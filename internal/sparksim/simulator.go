package sparksim

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

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
// cardinalities drive the model; otherwise the planner estimates do.
func (s *Simulator) Estimate(p *physical.Plan, res Resources) (float64, error) {
	b, err := s.Breakdown(p, res)
	if err != nil {
		return 0, err
	}
	return b.TotalSec, nil
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

// stage is a maximal pipelined fragment between exchange boundaries.
type stage struct {
	ops             []*physical.Node
	scanBytes       float64 // raw table bytes read from disk
	shuffleInBytes  float64
	hashInput       bool // reads a hash-partitioned shuffle
	singleInput     bool // reads a single-partition exchange
	shuffleOutBytes float64
	broadcastBytes  float64 // hash relations broadcast into this stage
	broadcastRows   float64
	sortBytes       float64 // per-stage sort working set (total)
	hashBytes       float64 // per-stage hash-table working set (total)
	inputSkew       float64 // measured max/avg partition ratio of inputs
}

// Breakdown simulates p under res and returns per-stage costs.
func (s *Simulator) Breakdown(p *physical.Plan, res Resources) (*CostBreakdown, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	c := s.Conf
	useActual := false
	for _, n := range p.Nodes {
		if n.ActRows > 0 {
			useActual = true
			break
		}
	}
	rows := func(n *physical.Node) float64 {
		r := n.EstRows
		if useActual {
			r = n.ActRows
		}
		return r * c.RowScale
	}
	bytesOf := func(n *physical.Node) float64 {
		w := n.RowBytes
		if w <= 0 {
			w = 8
		}
		return rows(n) * w
	}

	var stages []*stage
	var build func(n *physical.Node) *stage
	build = func(n *physical.Node) *stage {
		st := &stage{}
		stages = append(stages, st)
		var walk func(n *physical.Node)
		walk = func(n *physical.Node) {
			for _, ch := range n.Children {
				switch ch.Op {
				case physical.ExchangeHashPartition, physical.ExchangeSinglePartition:
					child := build(ch.Children[0])
					child.shuffleOutBytes += bytesOf(ch)
					st.shuffleInBytes += bytesOf(ch)
					if ch.Op == physical.ExchangeHashPartition {
						st.hashInput = true
						if ch.Skew > st.inputSkew {
							st.inputSkew = ch.Skew
						}
					} else {
						st.singleInput = true
					}
				case physical.BroadcastExchange:
					build(ch.Children[0])
					st.broadcastBytes += bytesOf(ch)
					st.broadcastRows += rows(ch)
				default:
					walk(ch)
				}
			}
			st.ops = append(st.ops, n)
			if n.Op == physical.FileScan {
				st.scanBytes += float64(n.RawRows * c.RowScale * maxf(n.RowBytes, 8))
			}
		}
		walk(n)
		return st
	}
	build(p.Root)

	slots := float64(res.Slots())
	memPerTask := res.ExecMemMB * 1e6 * c.MemFraction / float64(res.ExecCores)
	gcFactor := 1 + float64(c.GCCoefPerGB*res.ExecMemMB/1024)
	broadcastBudget := res.ExecMemMB * 1e6 * c.BroadcastFraction

	out := &CostBreakdown{TotalSec: c.AppStartupMs / 1000}
	order := 0
	for i := len(stages) - 1; i >= 0; i-- { // leaf-most stages first
		st := stages[i]
		stageSlots := slots
		if res.Dynamic {
			// Dynamic allocation: executors arrive over the first
			// stages, so early stages run with fewer slots. One extra
			// executor-acquisition round trip per missing executor.
			ramp := float64(order+1) / 3
			if ramp > 1 {
				ramp = 1
			}
			stageSlots = math.Max(float64(res.ExecCores), math.Floor(slots*ramp))
		}
		sc := s.priceStage(st, res, stageSlots, memPerTask, gcFactor, broadcastBudget, rows, bytesOf)
		out.Stages = append(out.Stages, sc)
		out.TotalSec += sc.Sec
		order++
	}
	if res.Dynamic {
		out.TotalSec += float64(float64(res.Executors-1) * 0.05) // acquisition latency
	}

	// Deterministic run-to-run variance, seeded by plan and resources.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%d", p.Sig, res, s.Seed)
	unit := float64(h.Sum64()%20001)/10000 - 1 // [-1, 1]
	out.TotalSec *= 1 + float64(c.NoiseAmplitude*unit)
	return out, nil
}

func (s *Simulator) priceStage(st *stage, res Resources, slots, memPerTask, gcFactor, broadcastBudget float64,
	rows func(*physical.Node) float64, bytesOf func(*physical.Node) float64) StageCost {
	c := s.Conf

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
	ft := float64(tasks)

	var cpuNs, spillBytes, broadcastPenaltyBytes float64
	broadcastOverflow := st.broadcastBytes > 0 && st.broadcastBytes > broadcastBudget

	for _, n := range st.ops {
		switch n.Op {
		case physical.FileScan:
			raw := n.RawRows * c.RowScale
			if len(n.Preds) > 0 {
				// Pushdown: decode survivors only, but evaluate the
				// pushed predicates on every raw row.
				cpuNs += float64(rows(n)*c.ScanNsPerRow) + float64(raw*float64(len(n.Preds))*c.FilterNsPerPred)
			} else {
				cpuNs += float64(raw * c.ScanNsPerRow)
			}
		case physical.Filter:
			in := rows(n.Children[0])
			cpuNs += float64(in * float64(len(n.Preds)) * c.FilterNsPerPred)
		case physical.Project:
			cpuNs += float64(rows(n.Children[0]) * c.ProjectNsPerRow)
		case physical.Sort:
			in := rows(n.Children[0])
			perTask := in / ft
			if perTask > 1 {
				cpuNs += float64(in * c.SortNsPerRow * math.Log2(perTask+1))
			}
			ws := bytesOf(n.Children[0]) / ft
			if ws > memPerTask {
				spillBytes += float64((ws - memPerTask) * ft)
			}
			st.sortBytes += bytesOf(n.Children[0])
		case physical.SortMergeJoin:
			cpuNs += float64((rows(n.Children[0]) + rows(n.Children[1]) + rows(n)) * c.MergeNsPerRow)
		case physical.BroadcastHashJoin:
			probe := rows(n.Children[0])
			factor := 1.0
			if broadcastOverflow {
				factor = 2 // disk-backed lookups
			}
			cpuNs += float64((probe + rows(n)) * c.HashProbeNsPerRow * factor)
		case physical.ShuffledHashJoin:
			// Build the smaller shuffled side per partition, probe the
			// other; the build hash table is a per-task working set.
			l, r := rows(n.Children[0]), rows(n.Children[1])
			build, probe := r, l
			buildBytes := bytesOf(n.Children[1])
			if l < r {
				build, probe = l, r
				buildBytes = bytesOf(n.Children[0])
			}
			cpuNs += float64(build*c.HashBuildNsPerRow) + float64((probe+rows(n))*c.HashProbeNsPerRow)
			ws := buildBytes / ft
			if ws > memPerTask {
				spillBytes += float64((ws - memPerTask) * ft)
			}
			st.hashBytes += buildBytes
		case physical.BroadcastNestedLoopJoin:
			// Quadratic probe: every probe row scans the whole broadcast
			// side (~2ns per comparison across the stage).
			cpuNs += float64(float64(rows(n.Children[0])*rows(n.Children[1])) * 2)
		case physical.HashAggregate, physical.SortAggregate:
			in := rows(n.Children[0])
			cpuNs += float64(in * c.AggNsPerRow)
			ws := bytesOf(n) / ft
			if ws > memPerTask {
				spillBytes += float64((ws - memPerTask) * ft)
			}
			st.hashBytes += bytesOf(n)
		case physical.LocalLimit:
			cpuNs += float64(rows(n) * c.ProjectNsPerRow)
		}
	}

	if broadcastOverflow {
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

	cpuSec := float64(cpuNs / 1e9 * gcFactor)
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
		stageSec += float64(st.broadcastRows * c.HashBuildNsPerRow / 1e9 * gcFactor)
	}

	return StageCost{
		Label: stageLabel(st),
		Tasks: tasks, Waves: int(waves),
		CPUSec: cpuSec, DiskSec: diskSec, NetSec: netSec, SpillSec: spillSec,
		Sec: stageSec,
	}
}

// stageLabel names a stage by its operator pipeline, leaf first.
func stageLabel(st *stage) string {
	parts := make([]string, 0, len(st.ops))
	for _, n := range st.ops {
		switch n.Op {
		case physical.FileScan:
			parts = append(parts, "FileScan("+n.Table+")")
		case physical.Project, physical.Filter:
			// noise in a label; skip
		default:
			parts = append(parts, n.Op.String())
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "pipeline")
	}
	return strings.Join(parts, ">")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
