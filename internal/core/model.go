package core

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/nn"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/tensor"
)

// Config sets the model dimensions. SemDim, MaxNodes, and StatsDim must
// match the encoder that produced the samples.
type Config struct {
	SemDim   int // semantic embedding width (encoder-dependent)
	MaxNodes int // padded plan length
	ResDim   int // resource vector width
	StatsDim int // global statistics width
	Hidden   int // plan feature layer width
	K        int // attention latent dimension (paper: 32)
	Seed     int64
}

// DefaultConfig returns the dimensions used throughout the experiments,
// matched to an encoder with the given semantic width.
func DefaultConfig(semDim, maxNodes int) Config {
	return Config{
		SemDim:   semDim,
		MaxNodes: maxNodes,
		ResDim:   sparksim.NumFeatures,
		StatsDim: encode.NumStats,
		Hidden:   48,
		K:        32,
		Seed:     1,
	}
}

// nodeStatFeatures mirrors encode: per-node stats appended to each row.
const nodeStatFeatures = 2

// Model is a deep cost model of one Variant: the one network NewModel
// builds, Fit trains, Save writes and every estimate scores on.
type Model struct {
	Var Variant
	Cfg Config

	// instr receives inference telemetry when set (see Instrument); nil
	// predicts unobserved. Never serialized.
	instr *Instrumentation

	lstm *nn.LSTM
	conv *nn.Conv1D

	wq, wk *nn.Param // node-aware attention projections (Hidden×K)
	wr     *nn.Param // resource query projection (ResDim×K)
	wrk    *nn.Param // resource-side node key projection (Hidden×K)

	head *nn.MLP

	// version counts the weight updates Fit has applied. A memoized prefix
	// (prefixMemo) is stamped with it, so one computed before an in-place
	// retrain is never served after it. Never serialized.
	version atomic.Uint64
}

// maxPooledTapes caps how many warm tapes of each kind the process keeps.
// More concurrent leases than this still run — extras build a cold tape
// and drop it afterwards.
const maxPooledTapes = 16

// tapePool is a mutex-guarded pair of stacks of warm tapes, one of
// inference tapes and one of recording tapes, and a stack of finished
// score calls' state (scoreRun) beside them. An explicit free list
// (rather than sync.Pool) keeps warm tapes out of the GC's reach, so the
// zero-steady-state-allocation guarantee holds deterministically. A
// parked tape has been Reset and a parked run cleared, so neither pins
// anything of the model that last used it, and whichever model leases a
// tape next gets its warm arena (DESIGN §5aa).
type tapePool struct {
	mu        sync.Mutex
	inference []*autodiff.Tape
	recording []*autodiff.Tape
	runs      []*scoreRun
}

// tapes is the process's tape pool.
var tapes tapePool

// free returns the stack that holds tapes of the kind record selects.
func (p *tapePool) free(record bool) *[]*autodiff.Tape {
	if record {
		return &p.recording
	}
	return &p.inference
}

// LeaseTape returns a tape from the process's pool of warm tapes: a
// recording tape when record is true, an inference tape otherwise. Its
// contents are those of a Reset tape; give it back with ReturnTape.
func LeaseTape(record bool) *autodiff.Tape {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	free := tapes.free(record)
	if n := len(*free); n > 0 {
		tp := (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
		return tp
	}
	if record {
		return autodiff.NewTape()
	}
	return autodiff.NewInferenceTape()
}

// ReturnTape resets tp and parks it for the next LeaseTape of its kind.
// Nothing the tape computed may be used afterwards.
func ReturnTape(tp *autodiff.Tape) {
	tp.Reset() // recycle the last pass's matrices and drop its leaves before parking the tape
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	if free := tapes.free(!tp.ForwardOnly()); len(*free) < maxPooledTapes {
		*free = append(*free, tp)
	}
}

// NewModel builds the variant's network with freshly initialized weights,
// drawn from cfg.Seed.
func NewModel(v Variant, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Var: v, Cfg: cfg}
	in := m.inputDim()
	if v.CNN {
		m.conv = nn.NewConv1D("plan.conv", in, cfg.Hidden, 3, nn.ReLU, rng)
	} else {
		m.lstm = nn.NewLSTM("plan.lstm", in, cfg.Hidden, rng)
	}
	if v.NodeAttention {
		m.wq = nn.NewParam("attn.wq", nn.Xavier(cfg.Hidden, cfg.K, rng))
		m.wk = nn.NewParam("attn.wk", nn.Xavier(cfg.Hidden, cfg.K, rng))
	}
	if v.ResourceAttention {
		m.wr = nn.NewParam("res.wr", nn.Xavier(cfg.ResDim, cfg.K, rng))
		m.wrk = nn.NewParam("res.wk", nn.Xavier(cfg.Hidden, cfg.K, rng))
	}
	m.head = nn.NewMLP("head", []int{m.headDim(), cfg.Hidden, cfg.Hidden / 2, 1}, nn.ReLU, rng)
	return m
}

// inputDim is the per-node input width after variant column selection.
func (m *Model) inputDim() int {
	d := m.Cfg.SemDim + nodeStatFeatures
	if m.Var.Structure {
		d += m.Cfg.MaxNodes
	}
	return d
}

// headDim is the width of the prediction layer's input.
func (m *Model) headDim() int {
	d := m.Cfg.Hidden + m.Cfg.StatsDim
	if m.Var.ResourceAttention {
		d += m.Cfg.Hidden
	}
	return d
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	if m.lstm != nil {
		ps = append(ps, m.lstm.Params()...)
	}
	if m.conv != nil {
		ps = append(ps, m.conv.Params()...)
	}
	if m.wq != nil {
		ps = append(ps, m.wq, m.wk)
	}
	if m.wr != nil {
		ps = append(ps, m.wr, m.wrk)
	}
	ps = append(ps, m.head.Params()...)
	return ps
}

// nodeInput extracts the model's input row for sample node i, dropping the
// structure segment for NE-LSTM.
func (m *Model) nodeInput(s *encode.Sample, i int, dst []float64) {
	row := s.Nodes.Row(i)
	sem := m.Cfg.SemDim
	if m.Var.Structure {
		copy(dst, row) // full row: semantic | structure | stats
		return
	}
	copy(dst[:sem], row[:sem])
	copy(dst[sem:], row[sem+m.Cfg.MaxNodes:])
}

// forward builds the computation graph for a batch and returns the B×1
// prediction (log-cost scale). The resource vector enters the network only
// at the resource-aware attention layer (paper Sec. IV-D), so the pass is
// the composition of a plan-only prefix, computed once per distinct plan of
// the batch, and a suffix computed once per row.
//
// sp, when non-nil, receives the per-stage wall-time breakdown (embed →
// lstm/conv → attention → dense); a nil span costs one branch per stage
// boundary.
func (m *Model) forward(tp *autodiff.Tape, batch []*encode.Sample, sp *telemetry.Span) *autodiff.Var {
	return m.suffix(tp, m.prefix(tp, batch, sp), batch, sp)
}

// prefixSet is one batch's plan prefixes, everything the network derives
// from a row's plan part: what the suffix reads to price the plan under
// the row's allocation. It is held row by row, and rows that share a
// prefix hold the same Vars. Its slices are on loan from the tape
// (NewVars), so a warm pass allocates none.
type prefixSet struct {
	pooled []*autodiff.Var // 1×Hidden node-attended, mask-pooled plan feature
	stats  []*autodiff.Var // 1×StatsDim global statistics
	// Read by resource attention only; keysT stays unset without it.
	h     []*autodiff.Var // L×Hidden plan-feature rows, the attention's values
	keysT []*autodiff.Var // K×L resource-side keys (h·Wrk)ᵀ
}

// newPrefixSet returns an empty set for n rows, on loan from tp.
func newPrefixSet(tp *autodiff.Tape, n int) prefixSet {
	v := tp.NewVars(4 * n)
	return prefixSet{pooled: v[:n:n], stats: v[n : 2*n : 2*n], h: v[2*n : 3*n : 3*n], keysT: v[3*n:]}
}

// share gives row b row f's prefix.
func (set prefixSet) share(b, f int) {
	set.pooled[b], set.stats[b], set.h[b], set.keysT[b] = set.pooled[f], set.stats[f], set.h[f], set.keysT[f]
}

// prefixMemo is a prefix copied off the tape that computed it, parked in a
// sample's memo slot (encode.PlanMemo). It is valid only for the network
// that produced it at the weights it had then: net and version are compared
// on every use. Immutable once stored.
type prefixMemo struct {
	net     *Model
	version uint64

	pooled, stats, h, keysT tensor.Matrix // views of one backing slice
}

// prefix returns the batch's plan prefixes, running the plan-only layers
// (planLayers) once per distinct plan that has none memoized.
//
// Which rows share a plan is decided by what the samples show: rows whose
// plan parts are one storage (encode.Sample.SamePlan — allocations of one
// encoding, or hits on one cache entry) share a prefix, and a plan whose
// memo slot holds a prefix of this network at its current weights skips the
// computation altogether. Rows are arithmetically independent, so sharing
// is exact. A recording tape never shares or memoizes: backward accumulates
// gradients per sample in tape order, and merging two rows' graphs would
// reorder that sum.
func (m *Model) prefix(tp *autodiff.Tape, batch []*encode.Sample, sp *telemetry.Span) prefixSet {
	n := len(batch)
	set := newPrefixSet(tp, n)
	share := tp.ForwardOnly()
	// first[b] is the first row of row b's plan; firsts lists those rows.
	first, firsts := tp.NewInts(n), tp.NewInts(n)[:0]
	for b, s := range batch {
		first[b] = b
		if share {
			if b > 0 && batch[b-1].SamePlan(s) {
				first[b] = first[b-1] // the common case: one plan's allocations arrive together
			} else {
				for _, f := range firsts {
					if batch[f].SamePlan(s) {
						first[b] = f
						break
					}
				}
			}
		}
		if first[b] == b {
			firsts = append(firsts, b)
		}
	}

	version := m.version.Load()
	todo := tp.NewInts(len(firsts))[:0] // the first rows whose prefix is computed
	for _, f := range firsts {
		var pm *prefixMemo
		if share {
			pm = m.memoized(batch[f], version)
		}
		if pm == nil {
			todo = append(todo, f)
			continue
		}
		stop := sp.Stage("prefix-reuse")
		set.pooled[f], set.stats[f] = tp.Const(&pm.pooled), tp.Const(&pm.stats)
		if m.Var.ResourceAttention {
			set.h[f], set.keysT[f] = tp.Const(&pm.h), tp.Const(&pm.keysT)
		}
		stop()
	}
	if len(todo) > 0 {
		m.planLayers(tp, batch, todo, set, sp)
	}
	if share {
		m.instr.observePrefixes(len(todo), n-len(todo))
		for _, f := range todo {
			if memo := batch[f].Memo; memo != nil {
				memo.Store(m.memoize(set, f, version))
			}
		}
	}
	for b, f := range first {
		if f != b {
			set.share(b, f)
		}
	}
	return set
}

// planLayers computes, into set, the prefixes of the plans first seen at
// the given rows of batch: embed → LSTM/conv → node-aware attention →
// masked mean pool, the resource-side keys, and the statistics vector —
// every layer the resource vector does not reach.
//
// Every plan runs at its own active length n (activeLen): the ragged
// recurrence steps it over its n real nodes only, the conv sees n rows, and
// its attention scores, keys and pooling are n×n, K×n and n-row blocks,
// whatever the longest plan beside it. Padding rows are fully masked
// downstream, so no gradient ever reaches them: leaving them out changes
// no bit of any value or gradient (DESIGN §5x).
func (m *Model) planLayers(tp *autodiff.Tape, batch []*encode.Sample, rows []int, set prefixSet, sp *telemetry.Span) {
	lens, L, total := tp.NewInts(len(rows)), 0, 0
	for k, f := range rows {
		lens[k] = activeLen(batch[f])
		L, total = max(L, lens[k]), total+lens[k]
	}
	in := m.inputDim()

	// Plan feature layer.
	if m.lstm != nil {
		stop := sp.Stage("embed")
		// One stacked ragged input buffer: step t's block holds node t of
		// every plan still running at t, in plan order. Arena-backed;
		// nodeInput overwrites every row.
		x := tp.NewMatrix(total, in)
		r := 0
		for t := 0; t < L; t++ {
			for k, f := range rows {
				if t < lens[k] {
					m.nodeInput(batch[f], t, x.Row(r))
					r++
				}
			}
		}
		stop()
		stop = sp.Stage("lstm")
		hs := m.lstm.ForwardStacked(tp, tp.Const(x), lens)
		// at[t] is plan k's row of hs[t]: the count of earlier plans
		// running step t, kept in next[t].
		next, at := tp.NewInts(L), tp.NewInts(L)
		for k, f := range rows {
			for t := 0; t < lens[k]; t++ {
				at[t] = next[t]
				next[t]++
			}
			set.h[f] = tp.GatherRows(hs[:lens[k]], at[:lens[k]])
		}
		stop()
	} else {
		for k, f := range rows {
			stop := sp.Stage("embed")
			x := tp.NewMatrix(lens[k], in)
			for t := 0; t < lens[k]; t++ {
				m.nodeInput(batch[f], t, x.Row(t))
			}
			xc := tp.Const(x)
			stop()
			stop = sp.Stage("conv")
			set.h[f] = m.conv.Forward(tp, xc)
			stop()
		}
	}

	defer sp.Stage("attention")()
	scale := m.attnScale()
	for k, f := range rows {
		s, h, n := batch[f], set.h[f], lens[k]
		if m.Var.NodeAttention {
			q := tp.MatMul(h, m.wq.Var)
			k := tp.MatMul(h, m.wk.Var)
			scores := tp.Scale(tp.MatMul(q, tp.Transpose(k)), scale)
			attn := tp.SoftmaxRowsMask2D(scores, s.Children[:n])
			attended := tp.MatMul(attn, h)
			// Leaves have no children: their attended rows are zero, so
			// blend with the raw hidden state before pooling.
			set.pooled[f] = tp.MeanRowsMasked(tp.Add(attended, h), s.Mask[:n])
		} else {
			set.pooled[f] = tp.MeanRowsMasked(h, s.Mask[:n])
		}
		if m.Var.ResourceAttention {
			set.keysT[f] = tp.Transpose(tp.MatMul(h, m.wrk.Var)) // K×n
		}
		sv := tp.NewMatrix(1, len(s.Stats))
		copy(sv.Data, s.Stats)
		set.stats[f] = tp.Const(sv)
	}
}

// suffix prices every row under its own allocation: the resource query
// q = r·Wr, one masked 1×L softmax over the plan's keys, battn·h, the
// concatenation with the pooled plan feature and the statistics, and the
// dense head — the only layers the resource vector reaches.
func (m *Model) suffix(tp *autodiff.Tape, pre prefixSet, batch []*encode.Sample, sp *telemetry.Span) *autodiff.Var {
	stop := sp.Stage("attention")
	scale := m.attnScale()
	feats := tp.NewVars(len(batch))
	for b, s := range batch {
		parts, n := [3]*autodiff.Var{pre.pooled[b], pre.stats[b]}, 2 // a fixed array: no allocation per row
		if m.Var.ResourceAttention {
			h := pre.h[b]
			rv := tp.NewMatrix(1, len(s.Resource))
			copy(rv.Data, s.Resource)
			q := tp.MatMul(tp.Const(rv), m.wr.Var)                       // 1×K
			scores := tp.Scale(tp.MatMul(q, pre.keysT[b]), scale)        // 1×L
			battn := tp.SoftmaxRows(scores, s.Mask[:h.Value.Rows])       // 1×L
			parts[1], parts[2], n = tp.MatMul(battn, h), pre.stats[b], 3 // 1×Hidden
		}
		feats[b] = tp.ConcatCols(parts[:n]...)
	}
	stop()
	defer sp.Stage("dense")()
	return m.head.Forward(tp, tp.ConcatRows(feats...))
}

// attnScale is the 1/√K both attention layers divide their scores by.
func (m *Model) attnScale() float64 { return 1 / math.Sqrt(float64(m.Cfg.K)) }

// memoized returns the prefix parked in s's memo slot when it is this
// network's at the given weights version; nil otherwise (no slot, empty,
// another network, stale weights).
func (m *Model) memoized(s *encode.Sample, version uint64) *prefixMemo {
	if s.Memo == nil {
		return nil
	}
	pm, _ := s.Memo.Load().(*prefixMemo)
	if pm == nil || pm.net != m || pm.version != version {
		return nil
	}
	return pm
}

// memoize copies what the suffix reads of row f's prefix off the tape
// (whose arena the next Reset recycles) into one heap block, stamped with
// the network and weights version it is valid for.
func (m *Model) memoize(set prefixSet, f int, version uint64) *prefixMemo {
	pm := &prefixMemo{net: m, version: version}
	src := [...]*autodiff.Var{set.pooled[f], set.stats[f], set.h[f], set.keysT[f]}
	dst := [...]*tensor.Matrix{&pm.pooled, &pm.stats, &pm.h, &pm.keysT}
	if !m.Var.ResourceAttention {
		src[2] = nil // h is read by resource attention only
	}
	n := 0
	for _, v := range src {
		if v != nil {
			n += len(v.Value.Data)
		}
	}
	buf := make([]float64, n)
	for i, v := range src {
		if v == nil {
			continue
		}
		n = copy(buf, v.Value.Data)
		*dst[i] = tensor.Matrix{Rows: v.Value.Rows, Cols: v.Value.Cols, Data: buf[:n:n]}
		buf = buf[n:]
	}
	return pm
}

// replica returns a model that shares m's weight matrices but owns private
// gradient accumulators, so concurrent shards can run forward/backward on
// independent tapes without racing on the shared nn.Param set. Params()
// returns the replica's parameters in the same order as the original's,
// which is what lets shard gradients be merged positionally.
func (m *Model) replica() *Model {
	r := &Model{Var: m.Var, Cfg: m.Cfg}
	if m.lstm != nil {
		r.lstm = m.lstm.ShareWeights()
	}
	if m.conv != nil {
		r.conv = m.conv.ShareWeights()
	}
	if m.wq != nil {
		r.wq, r.wk = m.wq.Shadow(), m.wk.Shadow()
	}
	if m.wr != nil {
		r.wr, r.wrk = m.wr.Shadow(), m.wrk.Shadow()
	}
	r.head = m.head.ShareWeights()
	return r
}

// PredictOpts is the field-less options argument of PredictCtx and of
// raal's batch APIs: every call runs the one schedule, chunks of up to
// predictChunk samples of one length hint (see schedule), claimed longest
// first by up to GOMAXPROCS goroutines that build and score them.
type PredictOpts struct{}

const predictChunk = 64

// PredictCtx returns the estimated cost in seconds for each sample; the
// model is only read, so one Model serves any number of concurrent calls. It
// is ScoreCtx with each sample's active length as its hint and the sample
// itself as its build.
func (m *Model) PredictCtx(ctx context.Context, samples []*encode.Sample, _ PredictOpts) ([]float64, error) {
	return m.predictCtx(ctx, samples, schedOpts{})
}

// ScoreCtx is the network's scorer: it returns the estimated cost in
// seconds of len(hints) samples, where build(i), safe for concurrent use,
// makes sample i. build runs once per sample, on the goroutine that scores
// the sample's chunk, so encoding there runs in parallel. hints[i] is
// sample i's active plan length (activeLen) or a guess at it: it only
// decides which samples share a chunk, so a wrong hint costs time, never a
// bit. A cancelled or expired context aborts the batch within one forward
// pass (ctx is consulted per chunk) and returns ctx.Err() with nil
// predictions. A span on ctx (telemetry.WithSpan) receives the per-stage
// breakdown — embed → lstm/conv → attention → dense → decode, or
// prefix-reuse in place of the plan layers — on the same chunks and
// goroutines, to the same bits, as an untraced call. A panic in build or
// in the network is raised again on the caller's goroutine.
func (m *Model) ScoreCtx(ctx context.Context, hints []int, build func(i int) *encode.Sample) ([]float64, error) {
	return m.score(ctx, hints, build, schedOpts{})
}

// schedOpts overrides the default schedule; only tests, comparing
// schedules, set it. Predictions are bit-identical for every setting:
// each sample's output depends only on its own rows.
type schedOpts struct {
	workers  int  // goroutines scoring chunks; <=0 means GOMAXPROCS
	chunk    int  // samples per forward pass; <=0 means predictChunk
	noBucket bool // the flat schedule (see schedule)
}

// activeLen returns the number of leading nodes the plan layers run for
// s: the last true Mask index plus one, floored at 1 so that a fully
// padded sample still runs one step.
func activeLen(s *encode.Sample) int {
	for i := len(s.Mask) - 1; i >= 0; i-- {
		if s.Mask[i] {
			return i + 1
		}
	}
	return 1
}

// oneOrder and oneCuts are every one-sample call's schedule, shared and
// never written.
var oneOrder, oneCuts = []int{0}, []int{0, 1}

// schedule decides which samples share a forward pass and in what order
// the passes are claimed. The default groups samples by length hint
// (counting sort: longest first, input order within a length), cuts
// chunks that never span two lengths, and hands them out longest first:
// a query's candidates usually have distinct lengths, so they fan out
// across the workers, and the longest starts first, which shortens the
// call's makespan. noBucket is the flat schedule, chunks cut over the
// input order. The returned order maps scheduled position to caller index,
// and chunk k is the positions cuts[k] to cuts[k+1]; both are carved from
// *buf, which grows when they do not fit. Scheduling only regroups
// samples — every sample's arithmetic is its own — so predictions are
// bit-identical on either schedule (TestBucketedPredictBitIdentical).
func (m *Model) schedule(buf *[]int, hints []int, chunk int, noBucket bool) (order, cuts []int) {
	n := len(hints)
	if n == 1 {
		return oneOrder, oneCuts
	}
	maxLen := 1
	if !noBucket {
		for _, l := range hints {
			maxLen = max(maxLen, l)
		}
	}
	// No chunk is empty, so there are at most n+1 cuts.
	b := slices.Grow((*buf)[:0], n+(n+1)+(maxLen+1))
	*buf = b
	order, cuts = b[:n:n], b[n:n:2*n+1]
	if noBucket {
		for lo := 0; lo < n; lo += chunk {
			cuts = append(cuts, lo)
		}
		for i := range order {
			order[i] = i
		}
		return order, append(cuts, n)
	}
	// at[l] counts the samples of length l, then becomes the next
	// scheduled position of that length.
	at := b[2*n+1 : 2*n+1+maxLen+1]
	clear(at)
	for _, l := range hints {
		at[max(l, 1)]++
	}
	for l, pos := maxLen, 0; l >= 1; l-- {
		end := pos + at[l]
		for lo := pos; lo < end; lo += chunk {
			cuts = append(cuts, lo)
		}
		at[l], pos = pos, end
	}
	for i, l := range hints {
		l = max(l, 1)
		order[at[l]] = i
		at[l]++
	}
	m.instr.observeBuckets(hints)
	return order, append(cuts, n)
}

// predictCtx is PredictCtx on the schedule o picks.
func (m *Model) predictCtx(ctx context.Context, samples []*encode.Sample, o schedOpts) ([]float64, error) {
	var buf [4]int // a short call's hints stay on the stack
	hints := slices.Grow(buf[:0], len(samples))
	for _, s := range samples {
		hints = append(hints, activeLen(s))
	}
	return m.score(ctx, hints, func(i int) *encode.Sample { return samples[i] }, o)
}

// score is ScoreCtx on the schedule o picks.
func (m *Model) score(ctx context.Context, hints []int, build func(i int) *encode.Sample, o schedOpts) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := telemetry.SpanFrom(ctx)
	start := time.Now()
	n := len(hints)
	out := make([]float64, n)
	chunk := o.chunk
	if chunk <= 0 {
		chunk = predictChunk
	}
	r := leaseRun()
	r.m, r.ctx, r.sp, r.build, r.out = m, ctx, sp, build, out
	r.order, r.cuts = m.schedule(&r.buf, hints, chunk, o.noBucket)
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(r.cuts)-1), 1)

	// The caller is one worker and workers-1 helper goroutines the others.
	r.wg.Add(workers - 1)
	for range workers - 1 {
		go r.helpFn()
	}
	r.work()
	r.wg.Wait()
	if f := r.fault.Load(); f != nil {
		panic(*f) // the run is dropped, not parked
	}
	aborted := r.aborted.Load()
	r.park()
	if aborted {
		return nil, ctx.Err()
	}
	m.instr.observePredict(n, time.Since(start))
	return out, nil
}

// scoreRun is one score call, shared by its workers: they claim its chunks
// in turn, so a call of ragged chunks balances itself. A finished run is
// parked in the tape pool with its schedule buffer and its bound helper,
// so a warm call allocates neither.
type scoreRun struct {
	m     *Model
	ctx   context.Context
	sp    *telemetry.Span
	build func(i int) *encode.Sample
	order []int // scheduled position → caller index
	cuts  []int // chunk k is order[cuts[k]:cuts[k+1]]
	out   []float64

	next    atomic.Int64
	aborted atomic.Bool
	fault   atomic.Pointer[any] // the first worker panic, raised again on the caller
	wg      sync.WaitGroup      // the helpers

	buf    []int  // order and cuts storage, kept across calls
	helpFn func() // help, bound once so starting a helper allocates nothing
}

// leaseRun returns a parked run, or a new one when none is parked.
func leaseRun() *scoreRun {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	if n := len(tapes.runs); n > 0 {
		r := tapes.runs[n-1]
		tapes.runs[n-1] = nil
		tapes.runs = tapes.runs[:n-1]
		return r
	}
	r := new(scoreRun)
	r.helpFn = r.help
	return r
}

// park clears r of the call it served and parks it for the next leaseRun.
// Every helper must have finished.
func (r *scoreRun) park() {
	r.m, r.ctx, r.sp, r.build, r.order, r.cuts, r.out = nil, nil, nil, nil, nil, nil, nil
	r.next.Store(0)
	r.aborted.Store(false)
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	if len(tapes.runs) < maxPooledTapes {
		tapes.runs = append(tapes.runs, r)
	}
}

// work scores unclaimed chunks until none is left, the context ends or a
// worker panics. It leases one warm tape for its whole run and resets it
// between chunks (scoreChunk).
func (r *scoreRun) work() {
	defer func() {
		if p := recover(); p != nil {
			f := p // declared here, so that only a panic moves it to the heap
			r.fault.CompareAndSwap(nil, &f)
			r.aborted.Store(true)
		}
	}()
	tp := LeaseTape(false)
	defer ReturnTape(tp)
	for !r.aborted.Load() {
		if r.ctx.Err() != nil {
			r.aborted.Store(true)
			return
		}
		k := int(r.next.Add(1)) - 1
		if k >= len(r.cuts)-1 {
			return
		}
		r.m.scoreChunk(tp, r.order[r.cuts[k]:r.cuts[k+1]], r.build, r.out, r.sp)
	}
}

// help is a helper goroutine's run.
func (r *scoreRun) help() {
	defer r.wg.Done()
	r.work()
}

// scoreChunk scores one forward pass on tp: the samples build makes for
// the caller indices idx, each prediction written to out at its index. All
// matrices the pass's graph needs come from the tape's arena and its
// slices are on loan from the tape, so a warm pass allocates nothing. The
// samples are built into a stack array (a test chunk longer than
// predictChunk grows onto the heap). Predictions are extracted before the
// next Reset.
func (m *Model) scoreChunk(tp *autodiff.Tape, idx []int, build func(i int) *encode.Sample, out []float64, sp *telemetry.Span) {
	var buf [predictChunk]*encode.Sample
	batch := buf[:0]
	for _, i := range idx {
		batch = append(batch, build(i))
	}
	tp.Reset()
	pred := m.forward(tp, batch, sp)
	defer sp.Stage("decode")()
	for r, i := range idx {
		out[i] = invTransform(pred.Value.At(r, 0))
	}
}

// transform maps a cost in seconds to the training scale; the models
// regress log cost, which tames the heavy-tailed label distribution.
func transform(sec float64) float64 { return math.Log1p(sec) }

// invTransform maps a prediction back to seconds.
func invTransform(y float64) float64 {
	v := math.Expm1(y)
	if v < 0 {
		v = 0
	}
	return v
}

// modelSnapshot is the serialized form of a model.
type modelSnapshot struct {
	Var Variant
	Cfg Config
}

// Save writes the model (magic header, variant, config, weights) to w.
func (m *Model) Save(w io.Writer) error {
	if err := WriteHeader(w, ModelMagic, ModelVersion); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(modelSnapshot{Var: m.Var, Cfg: m.Cfg}); err != nil {
		return fmt.Errorf("core: encoding model header: %w", err)
	}
	return nn.Save(w, m.Params())
}

// LoadModel reads a model previously written by Save. Truncated, corrupt,
// foreign, and version-mismatched files are rejected with descriptive
// errors rather than opaque gob failures or panics.
func LoadModel(r io.Reader) (*Model, error) {
	// The stream holds two gob sections (header, then weights), each read
	// by its own decoder. A gob.Decoder wraps any reader that is not an
	// io.ByteReader in its own read-ahead buffer, which would consume
	// bytes belonging to the next section — so give all sections one
	// shared buffered reader. (bytes.Buffer is already a ByteReader,
	// which is why only file-backed loads ever desynchronized.)
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	if err := ReadHeader(r, ModelMagic, ModelVersion, "model"); err != nil {
		return nil, err
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding model header (truncated or corrupt model file): %w", err)
	}
	if err := snap.Cfg.validate(snap.Var); err != nil {
		return nil, err
	}
	m := NewModel(snap.Var, snap.Cfg)
	if err := nn.Load(r, m.Params()); err != nil {
		return nil, fmt.Errorf("core: loading model weights (truncated or corrupt model file): %w", err)
	}
	return m, nil
}

// maxModelParams bounds the weight elements LoadModel lets a file's header
// ask NewModel for: 2^24 float64s (128 MiB), some 500 times the 32k of
// RAAL at the default configuration with 60-wide node rows. Each dimension
// alone is bounded at 2^20, but their products are not: Hidden 2^16 alone
// asks for a 2^34-element recurrent matrix, a fatal out-of-memory error
// that no recover catches.
const maxModelParams = 1 << 24

// ModelSizeError is LoadModel's refusal of a header whose configuration
// would allocate more than the bound's weight elements.
type ModelSizeError struct {
	Params int64 // weight elements the configuration asks for
	Max    int64 // the bound
}

func (e *ModelSizeError) Error() string {
	return fmt.Sprintf("core: corrupt model file: its configuration asks for %d weights, more than the %d a model file may hold",
		e.Params, e.Max)
}

// paramCount is the number of weight elements NewModel allocates for v at c,
// in int64 so that no product of bounded dimensions overflows.
func (c Config) paramCount(v Variant) int64 {
	shape := &Model{Var: v, Cfg: c}
	in, h, k := int64(shape.inputDim()), int64(c.Hidden), int64(c.K)
	var n int64
	if v.CNN {
		n += 3*in*h + h
	} else {
		n += in*4*h + h*4*h + 4*h
	}
	if v.NodeAttention {
		n += 2 * h * k
	}
	if v.ResourceAttention {
		n += int64(c.ResDim)*k + h*k
	}
	sizes := []int64{int64(shape.headDim()), h, h / 2, 1}
	for i := 1; i < len(sizes); i++ {
		n += sizes[i-1]*sizes[i] + sizes[i]
	}
	return n
}

// InputError is the refusal of a network whose input layer does not fit
// the encoder it is to be served with: its first forward pass would panic.
type InputError struct {
	Dim       string // the input dimension that disagrees
	Got, Want int    // the network's and the encoder's
}

func (e *InputError) Error() string {
	return fmt.Sprintf("core: network does not fit its encoder: %s %d, the encoder produces %d", e.Dim, e.Got, e.Want)
}

// CheckInputs returns an *InputError when c reads another feature layout
// than want (semantic, plan, resource or statistics width).
func (c Config) CheckInputs(want Config) error {
	got, exp := [4]int{c.SemDim, c.MaxNodes, c.ResDim, c.StatsDim}, [4]int{want.SemDim, want.MaxNodes, want.ResDim, want.StatsDim}
	for i, dim := range [4]string{"semantic dim", "max nodes", "resource dim", "stats dim"} {
		if got[i] != exp[i] {
			return &InputError{Dim: dim, Got: got[i], Want: exp[i]}
		}
	}
	return nil
}

// validate rejects decoded configurations that could not have come from a
// real save of variant v: a dimension out of range, or dimensions whose
// network exceeds maxModelParams. NewModel would panic or exhaust memory
// allocating them, so a corrupt (but gob-parseable) header must be caught
// here.
func (c Config) validate(v Variant) error {
	switch {
	case c.SemDim <= 0 || c.SemDim > 1<<20:
		return fmt.Errorf("core: corrupt model file: semantic dim %d out of range", c.SemDim)
	case c.MaxNodes <= 0 || c.MaxNodes > 1<<20:
		return fmt.Errorf("core: corrupt model file: max nodes %d out of range", c.MaxNodes)
	case c.ResDim <= 0 || c.ResDim > 1<<20:
		return fmt.Errorf("core: corrupt model file: resource dim %d out of range", c.ResDim)
	case c.StatsDim < 0 || c.StatsDim > 1<<20:
		return fmt.Errorf("core: corrupt model file: stats dim %d out of range", c.StatsDim)
	case c.Hidden <= 0 || c.Hidden > 1<<20:
		return fmt.Errorf("core: corrupt model file: hidden dim %d out of range", c.Hidden)
	case c.K <= 0 || c.K > 1<<20:
		return fmt.Errorf("core: corrupt model file: attention dim %d out of range", c.K)
	}
	if n := c.paramCount(v); n > maxModelParams {
		return &ModelSizeError{Params: n, Max: maxModelParams}
	}
	return nil
}
