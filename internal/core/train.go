package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/nn"
)

// TrainConfig controls optimization.
type TrainConfig struct {
	Epochs   int
	Batch    int
	LR       float64
	ClipNorm float64
	Seed     int64
	// Progress, if non-nil, is invoked after every epoch with the 0-based
	// epoch index and that epoch's sample-weighted mean training loss
	// (the same value appended to TrainResult.LossCurve). A nil Progress
	// simply trains silently; there is no separate quiet switch.
	Progress func(epoch int, loss float64)
	// Instr, if non-nil, receives per-epoch training telemetry: the epoch
	// counter, latest epoch loss, and gradient-shard throughput. Nil
	// trains unobserved.
	Instr *Instrumentation
	// State, if non-nil, warm-starts Fit from a previous run and records
	// where this run stopped. On entry Fit restores the Adam step counter
	// and moments from State.Opt (a mismatched snapshot — different
	// architecture or config — is a descriptive error) and fast-forwards
	// the shuffle RNG past the State.Epochs permutations the earlier run
	// already consumed, so for a fixed sample sequence Fit(2k) bit-equals
	// Fit(k) → Save → Load → Fit(k). On return Fit writes the updated
	// optimizer snapshot and epoch count back into State, ready for the
	// next continuation. A fresh NewTrainState() behaves like a cold
	// start; nil trains cold without recording anything.
	State *TrainState
}

// DefaultTrainConfig returns the settings used by the experiment harness.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, Batch: 16, LR: 3e-3, ClipNorm: 5, Seed: 1}
}

// TrainResult reports what happened during training.
type TrainResult struct {
	LossCurve []float64 // sample-weighted mean MSE (log-cost scale) per epoch
	Duration  time.Duration
	Samples   int
}

// Train fits a fresh model of the given variant on samples.
func Train(samples []*encode.Sample, v Variant, mc Config, tc TrainConfig) (*Model, *TrainResult, error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("core: no training samples")
	}
	if tc.Epochs <= 0 || tc.Batch <= 0 {
		return nil, nil, fmt.Errorf("core: invalid train config %+v", tc)
	}
	m := NewModel(v, mc)
	res, err := m.Fit(samples, tc)
	if err != nil {
		return nil, nil, err
	}
	return m, res, nil
}

// shardSize is the number of samples in one gradient shard. Fit cuts
// every mini-batch into shards of this size whatever the machine, so what
// it trains depends on Batch alone, never on GOMAXPROCS. 8 is measured: on
// BenchmarkFit/default (2 vCPUs, 16-sample batches), 8-sample shards on two
// goroutines ran a median 1.42× faster than whole batches, and 4-sample
// shards 1.24×.
const shardSize = 8

// shardRun is one gradient shard of a mini-batch: a replica model whose
// shadow parameters collect the shard's gradient, plus the shard's sample
// count and loss from the most recent batch.
type shardRun struct {
	model  *Model
	params []*nn.Param
	tape   *autodiff.Tape   // leased for the whole Fit; its arena keeps the shard's matrices warm
	batch  []*encode.Sample // the step's samples, reused across batches
	n      int
	loss   float64
}

// shardCrew steps one batch's shards at a time on the goroutines of one
// Fit: the caller's and helpers others that live until stop, each woken by
// one token per batch. They claim shards in turn from next, so a batch of
// ragged plans balances itself; what a shard computes does not depend on
// which goroutine runs it. A warm step allocates nothing.
type shardCrew struct {
	shards  []*shardRun
	samples []*encode.Sample
	sel     []int // the batch being stepped
	next    atomic.Int32
	helpers int
	wake    chan struct{} // closed by stop
	done    sync.WaitGroup
}

// Fit trains the model in place on samples and returns the loss curve.
//
// Each mini-batch is cut into shardSize-sample shards. The shards run
// forward and backward on weight-sharing replicas over
// min(GOMAXPROCS, shards) goroutines, and their gradients are summed into
// the model's parameters in shard order before the optimizer step. Shard
// boundaries depend on Batch alone and the sum is ordered, so training is
// deterministic for a given (Seed, Batch) whatever GOMAXPROCS is.
func (m *Model) Fit(samples []*encode.Sample, tc TrainConfig) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	if tc.Epochs <= 0 || tc.Batch <= 0 {
		return nil, fmt.Errorf("core: invalid train config %+v", tc)
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	params := m.Params()
	opt := nn.NewAdam(tc.LR)
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	if tc.State != nil {
		if err := opt.Restore(params, tc.State.Opt); err != nil {
			return nil, fmt.Errorf("core: cannot resume training: %w", err)
		}
		// Replay the permutations the earlier run consumed. This advances
		// the RNG *and* leaves idx in the exact permutation state an
		// uninterrupted run would carry into the next epoch — each epoch's
		// shuffle composes with the previous ones, so both matter.
		for e := 0; e < tc.State.Epochs; e++ {
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
	}

	// One replica per shard of a full-size batch; short final batches use
	// a prefix. Replicas share m's weights, so this allocates only
	// gradient buffers. Every shard leases one recording tape for the
	// whole run: after the first batch its arena holds every matrix the
	// graph needs, so a steady-state step allocates none, and the next Fit
	// in the process starts on those warm arenas. A Fit that panics drops
	// its tapes instead of parking them mid-pass.
	crew := &shardCrew{shards: make([]*shardRun, (tc.Batch+shardSize-1)/shardSize), samples: samples}
	for k := range crew.shards {
		r := m.replica()
		crew.shards[k] = &shardRun{model: r, params: r.Params(), tape: LeaseTape(true)}
	}
	crew.helpers = min(runtime.GOMAXPROCS(0), len(crew.shards)) - 1
	crew.wake = make(chan struct{}, crew.helpers) // one token per helper per batch
	for range crew.helpers {
		go crew.help()
	}
	defer crew.stop()

	start := time.Now()
	result := &TrainResult{Samples: len(samples)}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		epochStart := time.Now()
		epochShards := 0
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for lo := 0; lo < len(idx); lo += tc.Batch {
			hi := min(lo+tc.Batch, len(idx))
			batchLoss, nShards := crew.step(params, idx[lo:hi])
			epochShards += nShards
			if tc.ClipNorm > 0 {
				nn.ClipGradNorm(params, tc.ClipNorm)
			}
			opt.Step(params)
			m.version.Add(1) // prefixes memoized at the old weights are now stale
			// Weight each batch by its size so a short final batch does
			// not skew the epoch mean.
			epochLoss += float64(batchLoss * float64(hi-lo))
		}
		epochLoss /= float64(len(idx))
		result.LossCurve = append(result.LossCurve, epochLoss)
		tc.Instr.observeEpoch(epochLoss, epochShards, time.Since(epochStart))
		if tc.Progress != nil {
			tc.Progress(epoch, epochLoss)
		}
	}
	result.Duration = time.Since(start)
	// The pool is a stack: returning the tapes last shard first puts shard
	// 0's on top, so the next Fit's shard k leases the arena shard k warmed.
	for k := len(crew.shards) - 1; k >= 0; k-- {
		ReturnTape(crew.shards[k].tape)
	}
	if tc.State != nil {
		tc.State.Opt = opt.Export(params)
		tc.State.Epochs += tc.Epochs
	}
	return result, nil
}

// step runs the selected batch's shards on the crew, then merges the shard
// gradients into params in shard order (an ordered reduction, so the
// result does not depend on which goroutine ran which shard). It returns
// the batch's sample-weighted mean loss and its shard count.
func (c *shardCrew) step(params []*nn.Param, sel []int) (float64, int) {
	c.sel = sel
	c.next.Store(0)
	c.done.Add(c.helpers)
	for range c.helpers {
		c.wake <- struct{}{}
	}
	c.claim()
	c.done.Wait()

	// Barrier reached: every shard holds ∂(its mean loss)/∂θ in its shadow
	// params. Scaling shard k by n_k/n while summing yields the gradient
	// of the batch's sample-weighted mean loss.
	n := float64(len(sel))
	nShards := (len(sel) + shardSize - 1) / shardSize
	var batchLoss float64
	for _, sh := range c.shards[:nShards] {
		w := float64(sh.n) / n
		nn.AccumulateGrads(params, sh.params, w)
		batchLoss += float64(w * sh.loss)
	}
	return batchLoss, nShards
}

// help is a helper goroutine's loop: one claim pass per wake token, and
// one more Done when stop closes wake.
func (c *shardCrew) help() {
	for range c.wake {
		c.claim()
		c.done.Done()
	}
	c.done.Done()
}

// stop ends the helpers and returns once every one has exited.
func (c *shardCrew) stop() {
	c.done.Add(c.helpers)
	close(c.wake)
	c.done.Wait()
}

// claim runs unclaimed shards of the current batch until none is left.
func (c *shardCrew) claim() {
	for {
		lo := int(c.next.Add(1)-1) * shardSize
		if lo >= len(c.sel) {
			return
		}
		hi := min(lo+shardSize, len(c.sel))
		sh := c.shards[lo/shardSize]
		sh.n = hi - lo
		sh.loss = sh.step(c.samples, c.sel[lo:hi])
	}
}

// step runs one forward/backward pass of the selected samples on the
// shard's model, accumulating gradients into its parameters, and returns
// the mean MSE loss of the pass. The tape and the batch slice are reset and
// reused, so a warm shard performs the pass without matrix allocations.
func (sh *shardRun) step(samples []*encode.Sample, sel []int) float64 {
	tp := sh.tape
	tp.Reset()
	sh.batch = sh.batch[:0]
	target := tp.NewMatrix(len(sel), 1)
	for i, j := range sel {
		sh.batch = append(sh.batch, samples[j])
		target.Set(i, 0, transform(samples[j].CostSec))
	}
	loss := tp.MSE(sh.model.forward(tp, sh.batch, nil), target)
	tp.Backward(loss)
	return float64(loss.Value.Data[0])
}

// Evaluate computes the paper's metrics of the model on samples: RE, COR,
// and R² on raw seconds, MSE on the log-cost training scale (which is what
// keeps the paper's MSE magnitudes comparable across workloads).
func (m *Model) Evaluate(samples []*encode.Sample) (metrics.Result, error) {
	if len(samples) == 0 {
		return metrics.Result{}, fmt.Errorf("core: no evaluation samples")
	}
	est, _ := m.PredictCtx(context.Background(), samples, PredictOpts{}) // Background never cancels
	actual := make([]float64, len(samples))
	actLog := make([]float64, len(samples))
	estLog := make([]float64, len(samples))
	for i, s := range samples {
		actual[i] = s.CostSec
		actLog[i] = transform(s.CostSec)
		estLog[i] = transform(est[i])
	}
	res, err := metrics.Evaluate(actual, est)
	if err != nil {
		return metrics.Result{}, err
	}
	res.MSE = metrics.MSE(actLog, estLog)
	return res, nil
}
