package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

// BatchItem is one coalesced estimation request: a plan priced under its
// own resource allocation. Batch-mates may carry different allocations —
// the batch estimator scores each (plan, resources) pair independently.
type BatchItem struct {
	Plan *physical.Plan
	Res  sparksim.Resources
}

// BatchRunFunc prices many independent (plan, resources) requests in one
// batched forward pass (in practice CostModel.EstimateEachCtx). It must
// return exactly one prediction per item, in item order.
type BatchRunFunc func(ctx context.Context, items []BatchItem) ([]float64, error)

// BatcherConfig wires a Batcher.
type BatcherConfig struct {
	// Run executes one coalesced batch (required).
	Run BatchRunFunc
	// Window is the longest the first request of a batch may wait for
	// batch-mates before the batch is flushed anyway (required > 0).
	// It is an upper bound, not a fixed delay: the actual wait adapts
	// to the observed arrival rate, and a request with no other caller
	// in flight dispatches immediately — batch-mates provably cannot
	// arrive, so making it wait would only add latency.
	Window time.Duration
	// MaxSize flushes a batch immediately once it holds this many
	// requests (required >= 2) — a full batch never waits out the window.
	MaxSize int
	// Metrics receives batch size, queue-wait, and flush-trigger
	// observations; nil serves unobserved.
	Metrics *Metrics
}

// Batcher coalesces concurrent single-plan estimation requests into
// batched forward passes: the first request opens a collection window,
// and the batch is scored as one Run call when the window expires or
// MaxSize requests have gathered, whichever comes first. Each caller
// blocks on a private future and gets exactly its own prediction back.
//
// The collection window is adaptive. Waiting only pays off when a
// batch-mate can actually arrive, so a request whose caller is the only
// one in flight is dispatched solo, immediately — under a single
// closed-loop client a fixed window would serialize every request
// behind a wait that can never be joined, collapsing throughput by the
// Window-to-service-time ratio. When callers are concurrent, the wait
// is sized from the observed inter-arrival rate (long enough for a full
// batch to gather) and capped at Window, so sparse traffic is not
// taxed the full window either.
//
// Batch members that are provably the same computation — the same plan
// object under the same resource allocation, as the Handler's SQL-keyed
// plan entry produces for a hot query — are deduplicated before scoring:
// the batch prices each distinct (plan, resources) once and fans the
// answer out (singleflight).
//
// Failure isolation is per request: a caller whose context dies while
// waiting gets its own ctx error (the batch proceeds without it), and a
// batch-level failure is delivered to every member for its own serving
// pipeline to degrade or fail — members share the failure, never a
// batch-mate's fate. The batch's context carries the earliest member
// deadline, so a coalesced call can never outlive its tightest budget;
// with a shared per-request Deadline the member deadlines differ by at
// most Window.
//
// All methods are safe for concurrent use.
type Batcher struct {
	run    BatchRunFunc
	window time.Duration
	max    int
	met    *Metrics

	// inflight counts callers currently inside Estimate. The dispatcher
	// reads it to tell "batch-mates may still arrive" (some other caller
	// is mid-flight) from "nobody can join" (dispatch solo, now).
	inflight atomic.Int64
	// lastCompanion is the UnixNano instant a caller last observed
	// another caller in flight. Solo dispatch requires both inflight==1
	// and no companion within the last window: closed-loop clients
	// re-enter in bursts, and at the burst edge inflight dips to 1 for
	// an instant even though batch-mates are about to arrive — without
	// the hysteresis the first re-entrant would be stolen from every
	// batch, leaving the rest one short of the size cap.
	lastCompanion atomic.Int64
	// soloFlushes is BatchFlushes.With("solo"), resolved once so the
	// solo fast path skips the label lookup.
	soloFlushes *telemetry.Counter

	mu      sync.RWMutex // guards closed and the send on reqs
	closed  bool
	reqs    chan *batchReq
	stopped chan struct{}  // closed when the dispatcher exits
	flushes sync.WaitGroup // in-flight batch runs
}

// batchRes carries one member's result across the future channel.
type batchRes struct {
	cost float64
	err  error
}

// batchReq is one enqueued request: its item, its caller's context, and
// the buffered future the flush delivers into exactly once.
type batchReq struct {
	item BatchItem
	ctx  context.Context
	enq  time.Time
	done chan batchRes
}

// NewBatcher validates cfg, starts the dispatcher, and returns the
// batcher. Callers own its lifecycle: Close flushes and stops it.
func NewBatcher(cfg BatcherConfig) (*Batcher, error) {
	if cfg.Run == nil {
		return nil, errors.New("serve: BatcherConfig.Run is required")
	}
	if cfg.Window <= 0 {
		return nil, errors.New("serve: BatcherConfig.Window must be positive")
	}
	if cfg.MaxSize < 2 {
		return nil, errors.New("serve: BatcherConfig.MaxSize must be at least 2 (1 would just add Window of latency)")
	}
	met := cfg.Metrics
	if met == nil {
		met = &Metrics{}
	}
	b := &Batcher{
		run:         cfg.Run,
		window:      cfg.Window,
		max:         cfg.MaxSize,
		met:         met,
		soloFlushes: met.BatchFlushes.With("solo"),
		reqs:        make(chan *batchReq),
		stopped:     make(chan struct{}),
	}
	go b.dispatch()
	return b, nil
}

// Estimate submits one request and blocks until its batch delivers (or
// ctx dies first). The signature matches EstimateFunc, so a Batcher
// drops into the Server's deep path unchanged.
func (b *Batcher) Estimate(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
	n := b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if n > 1 {
		b.lastCompanion.Store(time.Now().UnixNano())
	} else if !b.companionsRecent(time.Now()) {
		// Alone at this instant — but on a loaded box peer clients may
		// simply not have been scheduled yet (a compute-bound solo run
		// never yields, so overlap cannot form on its own). Yield once:
		// any runnable peer gets the CPU and shows up in inflight; only
		// if still alone after that is solo dispatch safe.
		runtime.Gosched()
		if b.inflight.Load() == 1 && !b.companionsRecent(time.Now()) {
			return b.soloDispatch(ctx, p, res)
		}
	}
	r := &batchReq{
		item: BatchItem{Plan: p, Res: res},
		ctx:  ctx,
		enq:  time.Now(),
		done: make(chan batchRes, 1),
	}
	if err := b.submit(r); err != nil {
		return 0, err
	}
	select {
	case out := <-r.done:
		return out.cost, out.err
	case <-ctx.Done():
		// Already enqueued: the flush will observe the dead context and
		// drop this member, or its delivered result is discarded — the
		// buffered future never blocks the flusher either way.
		return 0, ctx.Err()
	}
}

// companionsRecent reports whether another caller was observed in
// flight within the last window — the signal that batch-mates are
// likely to arrive even though none is in flight at this instant.
func (b *Batcher) companionsRecent(now time.Time) bool {
	last := b.lastCompanion.Load()
	return last != 0 && now.UnixNano()-last <= int64(b.window)
}

// soloDispatch prices a request that has no other caller in flight:
// batch-mates provably cannot arrive, so the request skips the
// dispatcher entirely — no channel handoff, no collection window, no
// flush goroutine, no narrowed batch context — and runs as a batch of
// one on the caller's own goroutine and context. This is what keeps
// single-client throughput at parity with the unbatched path instead
// of paying the window per request (the low-concurrency collapse).
func (b *Batcher) soloDispatch(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, ErrDraining
	}
	// Register with the flush group under the read lock: Close flips
	// closed under the write lock before waiting on the group, so it
	// cannot miss a solo run admitted here.
	b.flushes.Add(1)
	b.mu.RUnlock()
	defer b.flushes.Done()

	b.soloFlushes.Inc()
	b.met.BatchSize.Observe(1)
	b.met.BatchWait.Observe(0)
	// A batch of one needs none of score's machinery (dedup, scatter,
	// bisection): run the estimator directly on the caller's goroutine.
	preds, err := b.guardedRun(ctx, []BatchItem{{Plan: p, Res: res}})
	if err == nil && len(preds) != 1 {
		err = fmt.Errorf("%w: batch estimator returned %d prediction(s) for 1 request(s)",
			ErrInternal, len(preds))
	}
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// submit hands the request to the dispatcher. The read lock makes the
// send safe against a concurrent Close (the channel is only closed under
// the write lock); the dispatcher is always receiving, so the send never
// blocks meaningfully.
func (b *Batcher) submit(r *batchReq) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrDraining
	}
	select {
	case b.reqs <- r:
		return nil
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
}

// gapEWMAWeight is the denominator of the inter-arrival EWMA: each new
// gap contributes 1/4, so the estimate tracks a rate change within a
// few requests without whipsawing on a single outlier.
const gapEWMAWeight = 4

// minWindowFrac floors the adaptive wait at Window/minWindowFrac, so a
// burst of near-simultaneous arrivals (measured gap ~0) still leaves
// the window open long enough for stragglers to join.
const minWindowFrac = 16

// dispatch is the single collector goroutine: it owns the pending batch
// and flushes it to a worker goroutine on window expiry, size cap, solo
// dispatch, or drain, so collection never stalls behind a running
// batch.
func (b *Batcher) dispatch() {
	defer close(b.stopped)
	var pending []*batchReq
	var window <-chan time.Time // nil while no batch is collecting
	var timer *time.Timer       // reused across batches; see arm
	var lastArrival time.Time
	var avgGap time.Duration // EWMA of request inter-arrival gaps
	flush := func(trigger string) {
		batch := pending
		pending = nil
		window = nil
		b.met.BatchFlushes.With(trigger).Inc()
		b.flushes.Add(1)
		go func() {
			defer b.flushes.Done()
			b.runBatch(batch)
		}()
	}
	// arm opens the collection window for d. The timer object is reused
	// across batches rather than allocated per batch: it may still hold
	// an undelivered tick from a batch that flushed full (or early), so
	// it is stopped and its channel drained before every reset — a stale
	// tick can then never flush the wrong batch.
	arm := func(d time.Duration) {
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
		}
		window = timer.C
	}
	for {
		select {
		case r, ok := <-b.reqs:
			if !ok {
				if len(pending) > 0 {
					flush("drain")
				}
				return
			}
			now := time.Now()
			if !lastArrival.IsZero() {
				gap := now.Sub(lastArrival)
				if avgGap == 0 {
					avgGap = gap
				} else {
					avgGap = ((gapEWMAWeight-1)*avgGap + gap) / gapEWMAWeight
				}
			}
			lastArrival = now
			pending = append(pending, r)
			if len(pending) >= b.max {
				flush("full")
			} else if len(pending) == 1 {
				if wait, ok := b.coalesceWait(avgGap); ok {
					arm(wait)
				} else {
					flush("solo")
				}
			}
		case <-window:
			flush("window")
		}
	}
}

// coalesceWait decides how long the first request of a batch waits for
// batch-mates. ok=false means waiting is pointless and the request must
// dispatch solo: either its caller is the only one in flight — nobody
// else can possibly join before the window expires, the pathology that
// made a single closed-loop client pay the full window per request —
// or arrivals are observed to be slower than the window itself. With
// concurrent callers the wait is sized from the arrival rate: long
// enough for a full batch to gather, floored against measurement noise,
// and never more than the configured Window.
func (b *Batcher) coalesceWait(avgGap time.Duration) (time.Duration, bool) {
	if b.inflight.Load() <= 1 && !b.companionsRecent(time.Now()) {
		return 0, false
	}
	if avgGap <= 0 {
		// No gap estimate yet: fall back to the full window.
		return b.window, true
	}
	if avgGap >= b.window {
		return 0, false
	}
	wait := time.Duration(b.max-1) * avgGap
	if floor := b.window / minWindowFrac; wait < floor {
		wait = floor
	}
	if wait > b.window {
		wait = b.window
	}
	return wait, true
}

// runBatch scores one flushed batch and delivers per-member results.
func (b *Batcher) runBatch(batch []*batchReq) {
	now := time.Now()
	live := make([]*batchReq, 0, len(batch))
	for _, r := range batch {
		// A member whose caller already gave up is dropped here, so a
		// dead request can neither shrink the batch deadline nor burn a
		// slot in the forward pass.
		if err := r.ctx.Err(); err != nil {
			r.done <- batchRes{err: err}
			continue
		}
		b.met.BatchWait.Observe(now.Sub(r.enq).Seconds())
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	b.met.BatchSize.Observe(float64(len(live)))

	if len(live) == 1 {
		// A batch of one needs no narrowed context: the member's own ctx
		// already carries exactly its deadline and cancellation.
		b.score(live[0].ctx, live)
		return
	}

	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if dl, ok := earliestDeadline(live); ok {
		var dcancel context.CancelFunc
		bctx, dcancel = context.WithDeadline(bctx, dl)
		defer dcancel()
	}
	// Release the batch as soon as every member's caller is gone: the
	// forward pass aborts at its next cancellation check instead of
	// pricing plans nobody will read.
	go func() {
		for _, r := range live {
			select {
			case <-r.ctx.Done():
			case <-bctx.Done():
				return
			}
		}
		cancel()
	}()

	b.score(bctx, live)
}

// itemKey identifies a request for in-batch deduplication: the same
// immutable plan object under the same allocation is the same
// computation. Pointer identity is deliberately conservative: plans built
// afresh per call never alias, so dedup fires only where it is provably
// sound. Behind the Handler it does fire, because every request for one
// SQL text gets the plan objects its plan entry keeps for that text.
type itemKey struct {
	plan *physical.Plan
	res  sparksim.Resources
}

// score runs one (sub-)batch and delivers per-member results. Identical
// in-flight requests (same plan object, same resources) coalesce into a
// single scored slot first — the singleflight half of the batching win
// on hot-query traffic. A failing batch is then bisected and retried
// half by half, so one poisoned request (a plan that makes the estimator
// error or panic) is isolated down to a sub-batch of itself and its
// batch-mates still get deep answers — the failure is shared only when
// it is genuinely batch-wide (an expired batch context is never
// bisected: it would fail every half the same way). Recursion depth is
// log2(MaxSize).
func (b *Batcher) score(ctx context.Context, reqs []*batchReq) {
	slot := make([]int, len(reqs))
	items := make([]BatchItem, 0, len(reqs))
	seen := make(map[itemKey]int, len(reqs))
	for i, r := range reqs {
		k := itemKey{r.item.Plan, r.item.Res}
		j, dup := seen[k]
		if !dup {
			j = len(items)
			seen[k] = j
			items = append(items, r.item)
		} else {
			b.met.BatchDeduped.Inc()
		}
		slot[i] = j
	}
	preds, err := b.guardedRun(ctx, items)
	if err == nil && len(preds) != len(items) {
		err = fmt.Errorf("%w: batch estimator returned %d prediction(s) for %d request(s)",
			ErrInternal, len(preds), len(items))
	}
	if err == nil {
		for i, r := range reqs {
			r.done <- batchRes{cost: preds[slot[i]]}
		}
		return
	}
	if ctx.Err() == nil && len(reqs) > 1 {
		b.met.BatchBisects.Inc()
		mid := len(reqs) / 2
		b.score(ctx, reqs[:mid])
		b.score(ctx, reqs[mid:])
		return
	}
	for _, r := range reqs {
		// The failure is this request's own (sub-batch of one) or truly
		// batch-wide; either way its serving pipeline decides what it
		// becomes (fallback degradation, 504, ...).
		r.done <- batchRes{err: err}
	}
}

// guardedRun is the batch's recover boundary: a panic deep in the
// estimator becomes a typed ErrInternal delivered per member, never a
// dead dispatcher.
func (b *Batcher) guardedRun(ctx context.Context, items []BatchItem) (preds []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: panic: %v", ErrInternal, r)
		}
	}()
	return b.run(ctx, items)
}

// earliestDeadline returns the soonest member deadline, if any member
// has one.
func earliestDeadline(reqs []*batchReq) (time.Time, bool) {
	var dl time.Time
	found := false
	for _, r := range reqs {
		if d, ok := r.ctx.Deadline(); ok && (!found || d.Before(dl)) {
			dl, found = d, true
		}
	}
	return dl, found
}

// Close stops admitting new requests (they fail with ErrDraining),
// flushes whatever is pending, and waits for in-flight batches to
// deliver or ctx to expire. Safe to call more than once.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.reqs)
	}
	b.mu.Unlock()
	select {
	case <-b.stopped:
	case <-ctx.Done():
		return fmt.Errorf("serve: batcher close: %w", ctx.Err())
	}
	flushed := make(chan struct{})
	go func() {
		b.flushes.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: batcher close: %w", ctx.Err())
	}
}
