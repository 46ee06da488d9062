package sparksim

import (
	"math"
	"strconv"

	"raal/internal/physical"
)

// Simulator prices physical plans on a simulated cluster.
type Simulator struct {
	Conf Config
	Seed int64
}

// New returns a Simulator with the given calibration.
func New(conf Config) *Simulator { return &Simulator{Conf: conf} }

// Estimate returns the simulated wall-clock seconds to execute p under res.
// If the plan has been executed by the engine (ActRows populated) the true
// cardinalities drive the model; otherwise the planner estimates do. It is
// Breakdown(p, res).TotalSec, priced by the same walk without recording
// the stages.
func (s *Simulator) Estimate(p *physical.Plan, res Resources) (float64, error) {
	return s.price(p, res, nil)
}

// StageCost is the priced execution of one stage.
type StageCost struct {
	// Label names the stage by its pipelined operators, leaf first.
	Label    string
	Tasks    int
	Waves    int
	CPUSec   float64
	DiskSec  float64
	NetSec   float64
	SpillSec float64
	Sec      float64 // total contribution including overheads
}

// CostBreakdown decomposes a plan's simulated cost.
type CostBreakdown struct {
	Stages   []StageCost
	TotalSec float64
}

// Breakdown simulates p under res and returns per-stage costs.
func (s *Simulator) Breakdown(p *physical.Plan, res Resources) (*CostBreakdown, error) {
	out := &CostBreakdown{}
	total, err := s.price(p, res, out)
	if err != nil {
		return nil, err
	}
	out.TotalSec = total
	return out, nil
}

// A stage is a maximal pipelined fragment between exchange boundaries: the
// operators reachable from its root without crossing an exchange. The
// stages above an exchange consume the stage below it, so the plan's
// stages form a tree, and the simulator prices them feeders first.

// stage is what a stage reads and writes across its boundaries.
type stage struct {
	scanBytes       float64 // raw table bytes read from disk
	shuffleInBytes  float64
	hashInput       bool // reads a hash-partitioned shuffle
	singleInput     bool // reads a single-partition exchange
	shuffleOutBytes float64
	broadcastBytes  float64 // hash relations broadcast into this stage
	broadcastRows   float64
	inputSkew       float64 // measured max/avg partition ratio of inputs
}

// pricer is the state of one pricing walk over a plan.
type pricer struct {
	c         Config
	res       Resources
	useActual bool // price on ActRows, not EstRows

	slots, memPerTask, gcFactor, broadcastBudget float64

	order int     // stages priced so far
	total float64 // seconds so far
	out   *CostBreakdown
}

// price simulates p under res and returns the total seconds. With a
// non-nil out it also records every stage, labels included, in pricing
// order.
func (s *Simulator) price(p *physical.Plan, res Resources, out *CostBreakdown) (float64, error) {
	if err := res.Validate(); err != nil {
		return 0, err
	}
	c := s.Conf
	pr := pricer{
		c: c, res: res, out: out,
		slots:           float64(res.Slots()),
		memPerTask:      res.ExecMemMB * 1e6 * c.MemFraction / float64(res.ExecCores),
		gcFactor:        1 + float64(c.GCCoefPerGB*res.ExecMemMB/1024),
		broadcastBudget: res.ExecMemMB * 1e6 * c.BroadcastFraction,
		total:           c.AppStartupMs / 1000,
	}
	for _, n := range p.Nodes {
		if n.ActRows > 0 {
			pr.useActual = true
			break
		}
	}
	pr.priceTree(p.Root, 0)
	if res.Dynamic {
		pr.total += float64(float64(res.Executors-1) * 0.05) // acquisition latency
	}

	// Deterministic run-to-run variance, seeded by plan and resources.
	unit := float64(noiseSeed(p.Sig, res, s.Seed)%20001)/10000 - 1 // [-1, 1]
	return pr.total * (1 + float64(c.NoiseAmplitude*unit)), nil
}

// noiseSeed is the 64-bit FNV-1a hash of sig|res|seed, res written as its
// String form.
func noiseSeed(sig string, res Resources, seed int64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [256]byte
	b := append(append(buf[:0], sig...), '|')
	b = strconv.AppendInt(append(res.appendText(b), '|'), seed, 10)
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// rows and bytesOf round their products: inlined into a sum, they would
// otherwise fuse into it on arm64.
func (pr *pricer) rows(n *physical.Node) float64 {
	r := n.EstRows
	if pr.useActual {
		r = n.ActRows
	}
	return float64(r * pr.c.RowScale)
}

func (pr *pricer) bytesOf(n *physical.Node) float64 {
	w := n.RowBytes
	if w <= 0 {
		w = 8
	}
	return float64(pr.rows(n) * w)
}

// isShuffle reports whether op is an exchange that shuffles its input into
// the stage above (a broadcast is the other stage boundary).
func isShuffle(op physical.OpType) bool {
	return op == physical.ExchangeHashPartition || op == physical.ExchangeSinglePartition
}

// priceTree prices the stage rooted at n after every stage feeding it;
// outBytes is what the stage writes to the shuffle above it.
func (pr *pricer) priceTree(n *physical.Node, outBytes float64) {
	pr.priceFeeders(n)
	var st stage
	st.shuffleOutBytes += outBytes
	pr.gather(&st, n)
	stageSlots := pr.slots
	if pr.res.Dynamic {
		// Dynamic allocation: executors arrive over the first
		// stages, so early stages run with fewer slots. One extra
		// executor-acquisition round trip per missing executor.
		ramp := float64(pr.order+1) / 3
		if ramp > 1 {
			ramp = 1
		}
		stageSlots = math.Max(float64(pr.res.ExecCores), math.Floor(pr.slots*ramp))
	}
	sc := pr.priceStage(&st, n, stageSlots)
	if pr.out != nil {
		sc.Label = stageLabel(n)
		pr.out.Stages = append(pr.out.Stages, sc)
	}
	pr.total += sc.Sec
	pr.order++
}

// priceFeeders prices the stages below n's stage: those behind its
// exchanges, the last exchange of the operator walk first.
func (pr *pricer) priceFeeders(n *physical.Node) {
	for i := len(n.Children) - 1; i >= 0; i-- {
		switch ch := n.Children[i]; {
		case isShuffle(ch.Op):
			pr.priceTree(ch.Children[0], pr.bytesOf(ch))
		case ch.Op == physical.BroadcastExchange:
			pr.priceTree(ch.Children[0], 0)
		default:
			pr.priceFeeders(ch)
		}
	}
}

// gather adds what the operators of n's stage under and at n read across
// the stage's boundaries to st, in operator order: children first.
func (pr *pricer) gather(st *stage, n *physical.Node) {
	for _, ch := range n.Children {
		switch {
		case isShuffle(ch.Op):
			st.shuffleInBytes += pr.bytesOf(ch)
			if ch.Op == physical.ExchangeHashPartition {
				st.hashInput = true
				if ch.Skew > st.inputSkew {
					st.inputSkew = ch.Skew
				}
			} else {
				st.singleInput = true
			}
		case ch.Op == physical.BroadcastExchange:
			st.broadcastBytes += pr.bytesOf(ch)
			st.broadcastRows += pr.rows(ch)
		default:
			pr.gather(st, ch)
		}
	}
	if n.Op == physical.FileScan {
		st.scanBytes += float64(n.RawRows * pr.c.RowScale * maxf(n.RowBytes, 8))
	}
}

// priceStage prices the stage rooted at n, whose boundary traffic is st,
// on slots task slots.
func (pr *pricer) priceStage(st *stage, n *physical.Node, slots float64) StageCost {
	c, res := pr.c, pr.res

	tasks := 1
	switch {
	case st.hashInput:
		tasks = c.ShufflePartitions
	case st.singleInput:
		tasks = 1
	case st.scanBytes > 0:
		tasks = int(math.Ceil(st.scanBytes / c.PartitionBytes))
		if tasks < 1 {
			tasks = 1
		}
	}
	w := opWork{ft: float64(tasks), broadcastOverflow: st.broadcastBytes > 0 && st.broadcastBytes > pr.broadcastBudget}
	pr.addWork(&w, n)
	ft, cpuNs, spillBytes := w.ft, w.cpuNs, w.spillBytes

	var broadcastPenaltyBytes float64
	if w.broadcastOverflow {
		broadcastPenaltyBytes = st.broadcastBytes * c.BroadcastOverflowPenalty
	}

	// Storage/page cache: with more cluster memory a growing share of
	// scan and shuffle bytes are served from memory instead of disk.
	clusterCache := float64(res.Executors) * res.ExecMemMB * 1e6 * c.CacheFraction
	ioBytes := st.scanBytes + st.shuffleInBytes
	hit := 0.0
	if ioBytes > 0 {
		hit = c.MaxCacheHit * math.Min(1, clusterCache/ioBytes)
	}

	diskBytes := float64(st.scanBytes*(1-hit)) + st.shuffleOutBytes + float64(spillBytes*c.SpillPenalty) + broadcastPenaltyBytes
	netBytes := st.shuffleInBytes * (1 - hit)

	cpuSec := float64(cpuNs / 1e9 * pr.gcFactor)
	diskSec := diskBytes / (res.DiskMBps * 1e6)
	netSec := netBytes / (res.NetMBps * 1e6)
	spillSec := spillBytes * c.SpillPenalty / (res.DiskMBps * 1e6)

	perTaskSec := (cpuSec + diskSec + netSec) / ft
	waves := math.Ceil(ft / slots)
	skew := c.SkewFactor
	if st.inputSkew > 1 {
		// Measured partition imbalance: the straggler task processes
		// inputSkew× the average partition.
		skew = st.inputSkew - 1
		if skew > 4 {
			skew = 4
		}
	}
	stageSec := float64(perTaskSec * (waves - 1 + 1 + skew)) // last wave straggles
	stageSec += float64(ft / slots * c.TaskOverheadMs / 1000)
	stageSec += c.StageOverheadMs / 1000

	// Broadcast distribution: collect at the driver, ship to every
	// executor, build the hash relation single-threaded.
	if st.broadcastBytes > 0 {
		stageSec += st.broadcastBytes * float64(1+res.Executors) / (res.NetMBps * 1e6)
		stageSec += float64(st.broadcastRows * c.HashBuildNsPerRow / 1e9 * pr.gcFactor)
	}

	return StageCost{
		Tasks: tasks, Waves: int(waves),
		CPUSec: cpuSec, DiskSec: diskSec, NetSec: netSec, SpillSec: spillSec,
		Sec: stageSec,
	}
}

// opWork is the operator work of one stage on its tasks.
type opWork struct {
	ft                float64 // tasks
	broadcastOverflow bool    // the broadcast side outgrew its budget
	cpuNs, spillBytes float64
}

// addWork adds the work of the operators of n's stage under and at n to
// w, children first.
func (pr *pricer) addWork(w *opWork, n *physical.Node) {
	for _, ch := range n.Children {
		if !isShuffle(ch.Op) && ch.Op != physical.BroadcastExchange {
			pr.addWork(w, ch)
		}
	}
	c, ft, memPerTask := pr.c, w.ft, pr.memPerTask
	switch n.Op {
	case physical.FileScan:
		raw := n.RawRows * c.RowScale
		if len(n.Preds) > 0 {
			// Pushdown: decode survivors only, but evaluate the
			// pushed predicates on every raw row.
			w.cpuNs += float64(pr.rows(n)*c.ScanNsPerRow) + float64(raw*float64(len(n.Preds))*c.FilterNsPerPred)
		} else {
			w.cpuNs += float64(raw * c.ScanNsPerRow)
		}
	case physical.Filter:
		in := pr.rows(n.Children[0])
		w.cpuNs += float64(in * float64(len(n.Preds)) * c.FilterNsPerPred)
	case physical.Project:
		w.cpuNs += float64(pr.rows(n.Children[0]) * c.ProjectNsPerRow)
	case physical.Sort:
		in := pr.rows(n.Children[0])
		perTask := in / ft
		if perTask > 1 {
			w.cpuNs += float64(in * c.SortNsPerRow * math.Log2(perTask+1))
		}
		ws := pr.bytesOf(n.Children[0]) / ft
		if ws > memPerTask {
			w.spillBytes += float64((ws - memPerTask) * ft)
		}
	case physical.SortMergeJoin:
		w.cpuNs += float64((pr.rows(n.Children[0]) + pr.rows(n.Children[1]) + pr.rows(n)) * c.MergeNsPerRow)
	case physical.BroadcastHashJoin:
		probe := pr.rows(n.Children[0])
		factor := 1.0
		if w.broadcastOverflow {
			factor = 2 // disk-backed lookups
		}
		w.cpuNs += float64((probe + pr.rows(n)) * c.HashProbeNsPerRow * factor)
	case physical.ShuffledHashJoin:
		// Build the smaller shuffled side per partition, probe the
		// other; the build hash table is a per-task working set.
		l, r := pr.rows(n.Children[0]), pr.rows(n.Children[1])
		build, probe := r, l
		buildBytes := pr.bytesOf(n.Children[1])
		if l < r {
			build, probe = l, r
			buildBytes = pr.bytesOf(n.Children[0])
		}
		w.cpuNs += float64(build*c.HashBuildNsPerRow) + float64((probe+pr.rows(n))*c.HashProbeNsPerRow)
		ws := buildBytes / ft
		if ws > memPerTask {
			w.spillBytes += float64((ws - memPerTask) * ft)
		}
	case physical.BroadcastNestedLoopJoin:
		// Quadratic probe: every probe row scans the whole broadcast
		// side (~2ns per comparison across the stage).
		w.cpuNs += float64(float64(pr.rows(n.Children[0])*pr.rows(n.Children[1])) * 2)
	case physical.HashAggregate, physical.SortAggregate:
		in := pr.rows(n.Children[0])
		w.cpuNs += float64(in * c.AggNsPerRow)
		ws := pr.bytesOf(n) / ft
		if ws > memPerTask {
			w.spillBytes += float64((ws - memPerTask) * ft)
		}
	case physical.LocalLimit:
		w.cpuNs += float64(pr.rows(n) * c.ProjectNsPerRow)
	}
}

// stageLabel names the stage rooted at n by its operator pipeline, leaf
// first.
func stageLabel(n *physical.Node) string {
	b := appendStageOps(nil, n)
	if len(b) == 0 {
		return "pipeline"
	}
	return string(b[1:])
}

// appendStageOps appends ">op" for each operator of n's stage under and at
// n, children first; filters and projections are noise in a label.
func appendStageOps(b []byte, n *physical.Node) []byte {
	for _, ch := range n.Children {
		if !isShuffle(ch.Op) && ch.Op != physical.BroadcastExchange {
			b = appendStageOps(b, ch)
		}
	}
	switch n.Op {
	case physical.FileScan:
		b = append(append(append(b, ">FileScan("...), n.Table...), ')')
	case physical.Project, physical.Filter:
	default:
		b = append(append(b, '>'), n.Op.String()...)
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
