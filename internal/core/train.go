package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
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
	// Workers is the number of goroutines used for intra-batch data
	// parallelism: each mini-batch is split into shards (see ShardSize),
	// and shards run forward/backward concurrently on private tapes.
	// <=0 or 1 trains serially. Workers never changes the result — shard
	// boundaries depend only on ShardSize, and shard gradients are merged
	// in shard order at a barrier — so any Workers value reproduces the
	// Workers=1 loss curve bit for bit. Each shard's Backward also
	// applies its weight gradients on a second goroutine of its own.
	Workers int
	// ShardSize is the number of samples per gradient-accumulation shard
	// within a mini-batch. <=0 or >=Batch keeps each batch as a single
	// shard, which reproduces the serial trainer exactly. Smaller shards
	// expose parallelism to Workers; the summed shard gradients equal the
	// full-batch gradient up to floating-point association, so changing
	// ShardSize (unlike Workers) may perturb the trajectory at round-off
	// scale.
	ShardSize int
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

// shardRun is one gradient-accumulation shard of a mini-batch: a replica
// model whose shadow parameters collect the shard's gradient, plus the
// shard's sample count and loss from the most recent batch. A serial
// trainer runs one on the model itself.
type shardRun struct {
	model  *Model
	params []*nn.Param
	tape   *autodiff.Tape   // reused across batches; its arena keeps the shard's matrices warm
	batch  []*encode.Sample // the step's samples, reused across batches
	n      int
	loss   float64
}

// Fit trains the model in place on samples and returns the loss curve.
//
// Each mini-batch is split into fixed-size shards (tc.ShardSize); shards
// run forward/backward concurrently on tc.Workers goroutines against
// weight-sharing replicas, and their gradients are summed into the model's
// parameters in shard order before the optimizer step. Because the shard
// decomposition is independent of Workers and the reduction is ordered,
// training is deterministic for a given (Seed, Batch, ShardSize)
// regardless of how many workers execute it.
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

	workers := tc.Workers
	if workers <= 0 {
		workers = 1
	}
	shardSize := tc.ShardSize
	if shardSize <= 0 || shardSize > tc.Batch {
		shardSize = tc.Batch
	}
	// One replica per shard of a full-size batch; short final batches use
	// a prefix. Replicas share m's weights, so this allocates only
	// gradient buffers. Serial (single-shard) batches run on m itself.
	// Every shard leases one recording tape for the whole run and gives
	// it back at the end: after the first batch its arena holds every
	// matrix the graph needs, so the steady-state training step allocates
	// none, and the next Fit in the process starts on that warm arena. A
	// Fit that panics drops its tapes instead of parking them mid-pass.
	maxShards := (tc.Batch + shardSize - 1) / shardSize
	var serial *shardRun
	var shards []*shardRun
	if maxShards == 1 {
		serial = &shardRun{model: m, tape: LeaseTape(true)}
	} else {
		shards = make([]*shardRun, maxShards)
		for k := range shards {
			r := m.replica()
			shards[k] = &shardRun{model: r, params: r.Params(), tape: LeaseTape(true)}
		}
	}

	start := time.Now()
	result := &TrainResult{Samples: len(samples)}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		epochStart := time.Now()
		epochShards := 0
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for lo := 0; lo < len(idx); lo += tc.Batch {
			hi := min(lo+tc.Batch, len(idx))
			n := hi - lo
			var batchLoss float64
			if maxShards == 1 {
				batchLoss = serial.step(samples, idx[lo:hi])
				epochShards++
			} else {
				batchLoss = m.shardedStep(shards, samples, idx[lo:hi], shardSize, workers)
				epochShards += (n + shardSize - 1) / shardSize
			}
			if tc.ClipNorm > 0 {
				nn.ClipGradNorm(params, tc.ClipNorm)
			}
			opt.Step(params)
			m.version.Add(1) // prefixes memoized at the old weights are now stale
			// Weight each batch by its size so a short final batch does
			// not skew the epoch mean.
			epochLoss += batchLoss * float64(n)
		}
		epochLoss /= float64(len(idx))
		result.LossCurve = append(result.LossCurve, epochLoss)
		tc.Instr.observeEpoch(epochLoss, epochShards, time.Since(epochStart))
		if tc.Progress != nil {
			tc.Progress(epoch, epochLoss)
		}
	}
	result.Duration = time.Since(start)
	if serial != nil {
		ReturnTape(serial.tape)
	}
	for _, sh := range shards {
		ReturnTape(sh.tape)
	}
	if tc.State != nil {
		tc.State.Opt = opt.Export(params)
		tc.State.Epochs += tc.Epochs
	}
	return result, nil
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

// shardedStep splits the selected batch into fixed shardSize shards, runs
// them concurrently on up to `workers` goroutines, then merges the shard
// gradients into m's parameters in shard order (an ordered reduction, so
// the result is identical for any worker count). It returns the batch's
// sample-weighted mean loss.
func (m *Model) shardedStep(shards []*shardRun, samples []*encode.Sample, sel []int, shardSize, workers int) float64 {
	nShards := (len(sel) + shardSize - 1) / shardSize
	run := func(k int) {
		lo := k * shardSize
		hi := min(lo+shardSize, len(sel))
		sh := shards[k]
		sh.n = hi - lo
		sh.loss = sh.step(samples, sel[lo:hi])
	}
	if workers <= 1 || nShards == 1 {
		for k := 0; k < nShards; k++ {
			run(k)
		}
	} else {
		if workers > nShards {
			workers = nShards
		}
		tasks := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range tasks {
					run(k)
				}
			}()
		}
		for k := 0; k < nShards; k++ {
			tasks <- k
		}
		close(tasks)
		wg.Wait()
	}

	// Barrier reached: every shard holds ∂(its mean loss)/∂θ in its shadow
	// params. Scaling shard k by n_k/n while summing yields the gradient
	// of the batch's sample-weighted mean loss, matching the single-shard
	// full-batch MSE gradient up to floating-point association.
	n := float64(len(sel))
	params := m.Params()
	var batchLoss float64
	for k := 0; k < nShards; k++ {
		sh := shards[k]
		w := float64(sh.n) / n
		nn.AccumulateGrads(params, sh.params, w)
		batchLoss += w * sh.loss
	}
	return batchLoss
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
