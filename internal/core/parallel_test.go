package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/nn"
	"raal/internal/tensor"
)

// TestPredictWithWorkersMatchesSerial: every worker count and chunk size
// scores the serial schedule's bits. The name keeps the scorer's former
// PredictWith entry point; the schedule is now predictCtx's argument.
func TestPredictWithWorkersMatchesSerial(t *testing.T) {
	samples := synthDataset(150, 21)
	tc := quickTrain()
	tc.Epochs = 2
	m, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	want := predictOn(m, samples, schedOpts{workers: 1, chunk: 64})
	for _, opt := range []schedOpts{
		{},                        // defaults: GOMAXPROCS workers
		{workers: 4, chunk: 64},   // parallel, same chunking
		{workers: 4, chunk: 7},    // parallel, ragged chunks
		{workers: 1, chunk: 1},    // serial, one sample per tape
		{workers: 32, chunk: 200}, // more workers than chunks
	} {
		got := predictOn(m, samples, opt)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("opts %+v: prediction %d differs: %v vs %v", opt, i, got[i], want[i])
			}
		}
	}
}

func TestPredictConcurrentCallers(t *testing.T) {
	samples := synthDataset(64, 22)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	want := predictOn(m, samples, schedOpts{workers: 1})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := predict(m, samples)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("concurrent caller diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFitWorkersDeterministic: shard boundaries depend on Batch alone, so
// GOMAXPROCS, which sets how many goroutines run the shards, must not
// change training at all: same loss curve, same weights, bit for bit.
func TestFitWorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range []Variant{RAAL(), RAAC()} {
		samples := synthDataset(90, 23) // 90 % 16 != 0: exercises short batches
		tc := quickTrain()
		tc.Epochs = 3
		var want fitRun
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			_, got := fitOn(t, samples, v, testConfig(), tc)
			if procs == 1 {
				want = got
				continue
			}
			sameFit(t, fmt.Sprintf("%s at GOMAXPROCS=%d", v.Name, procs), got, want)
		}
	}
}

// TestFitShardedMatchesWholeBatch checks that gradient accumulation over
// shards reproduces whole-batch training up to floating-point association.
// The whole-batch reference is Fit's loop with each batch run as one
// shardRun.step on the model itself.
func TestFitShardedMatchesWholeBatch(t *testing.T) {
	samples := synthDataset(64, 24)
	tc := quickTrain()
	tc.Epochs = 2

	_, sharded, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}

	m := NewModel(RAAL(), testConfig())
	whole := &shardRun{model: m, tape: autodiff.NewTape()}
	params := m.Params()
	opt := nn.NewAdam(tc.LR)
	rng := rand.New(rand.NewSource(tc.Seed))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for e := range tc.Epochs {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var loss float64
		for lo := 0; lo < len(idx); lo += tc.Batch {
			hi := min(lo+tc.Batch, len(idx))
			loss += whole.step(samples, idx[lo:hi]) * float64(hi-lo)
			nn.ClipGradNorm(params, tc.ClipNorm)
			opt.Step(params)
		}
		loss /= float64(len(idx))
		if got := sharded.LossCurve[e]; math.Abs(loss-got) > 1e-8*math.Max(1, math.Abs(loss)) {
			t.Fatalf("epoch %d: sharded loss %v drifted from whole-batch %v", e, got, loss)
		}
	}
}

// TestFitWeightedLossCurve is the regression test for the loss-reporting
// bug: the epoch loss must weight each batch by its size, and each shard
// within a batch by its size. With a vanishing learning rate every batch
// is scored at the initial weights, so the weighted epoch mean must equal
// the MSE over the whole dataset — which an unweighted mean of batch or
// shard means gets wrong whenever the sizes differ.
func TestFitWeightedLossCurve(t *testing.T) {
	samples := synthDataset(20, 25)
	cfg := testConfig()

	ref := NewModel(RAAL(), cfg)
	target := tensor.New(len(samples), 1)
	for i, s := range samples {
		target.Set(i, 0, transform(s.CostSec))
	}
	tp := autodiff.NewTape()
	want := tp.MSE(ref.forward(tp, samples, nil), target).Value.Data[0]

	m := NewModel(RAAL(), cfg) // same seed: identical initial weights
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.Batch = 12 // a batch of 12 (shards of 8 and 4), then one of 8
	tc.LR = 1e-300
	res, err := m.Fit(samples, tc)
	if err != nil {
		t.Fatal(err)
	}
	got := res.LossCurve[0]
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("epoch loss %v, want dataset MSE %v (short batch or shard over- or under-weighted)", got, want)
	}
}

// TestParallelTrainRaceSmoke is a short run on four shard goroutines meant
// to be executed under -race (see `make race`): it exercises concurrent
// shard backward passes and concurrent inference on the shared weights.
func TestParallelTrainRaceSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	samples := synthDataset(40, 26)
	tc := quickTrain()
	tc.Epochs = 2
	tc.Batch = 32 // four shards
	m, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	_ = predictOn(m, samples, schedOpts{workers: 4, chunk: 8})
}

func benchSamples(n int) []*encode.Sample { return synthDataset(n, 77) }

// BenchmarkPredict measures data-parallel inference throughput; compare
// workers=1 (the serial scorer) against higher worker counts.
func BenchmarkPredict(b *testing.B) {
	samples := benchSamples(512)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:128], RAAL(), testConfig(), tc)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := schedOpts{workers: workers, chunk: 32}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				predictOn(m, samples, opt)
			}
		})
	}
}

// BenchmarkFit measures training throughput: the schedule TrainCostModel
// runs, DefaultTrainConfig (16-sample batches, each two 8-sample shards on
// GOMAXPROCS goroutines) on the default model, one epoch, over samples at
// the shape the default encoder gives the offline corpus: 16 semantic
// columns and 42 padded nodes (60 input columns), plans of 3 to 42 nodes.
func BenchmarkFit(b *testing.B) {
	b.Run("default", func(b *testing.B) {
		const sem, nodes = 16, 42 // encode.DefaultConfig: word2vec Dim, MaxNodes
		rng := rand.New(rand.NewSource(77))
		shaped := make([]*encode.Sample, 256)
		for i := range shaped {
			shaped[i] = synthSampleAt(rng, sem, nodes)
		}
		tc := DefaultTrainConfig()
		tc.Epochs = 1
		m := NewModel(RAAL(), DefaultConfig(sem, nodes))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Fit(shaped, tc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
