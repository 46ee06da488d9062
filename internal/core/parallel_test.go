package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/encode"
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

// TestFitWorkersDeterministic is the tentpole's determinism guarantee:
// with shard boundaries pinned by ShardSize, the worker count must not
// change training at all — same loss curve, same weights, bit for bit.
func TestFitWorkersDeterministic(t *testing.T) {
	for _, v := range []Variant{RAAL(), RAAC()} {
		samples := synthDataset(90, 23) // 90 % 16 != 0: exercises short batches
		tc := quickTrain()
		tc.Epochs = 3
		tc.ShardSize = 4

		tc.Workers = 1
		m1, r1, err := Train(samples, v, testConfig(), tc)
		if err != nil {
			t.Fatal(err)
		}
		tc.Workers = 4
		m4, r4, err := Train(samples, v, testConfig(), tc)
		if err != nil {
			t.Fatal(err)
		}
		for e := range r1.LossCurve {
			if r1.LossCurve[e] != r4.LossCurve[e] {
				t.Fatalf("%s: epoch %d loss differs across workers: %v vs %v",
					v.Name, e, r1.LossCurve[e], r4.LossCurve[e])
			}
		}
		p1 := predictOn(m1, samples[:10], schedOpts{workers: 1})
		p4 := predictOn(m4, samples[:10], schedOpts{workers: 1})
		for i := range p1 {
			if p1[i] != p4[i] {
				t.Fatalf("%s: trained weights differ across workers (prediction %d: %v vs %v)",
					v.Name, i, p1[i], p4[i])
			}
		}
	}
}

// TestFitShardedMatchesWholeBatch checks that gradient accumulation over
// shards reproduces whole-batch training up to floating-point association.
func TestFitShardedMatchesWholeBatch(t *testing.T) {
	samples := synthDataset(64, 24)
	tc := quickTrain()
	tc.Epochs = 2

	_, whole, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	tc.ShardSize = 4
	tc.Workers = 2
	_, sharded, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	for e := range whole.LossCurve {
		a, b := whole.LossCurve[e], sharded.LossCurve[e]
		if math.Abs(a-b) > 1e-8*math.Max(1, math.Abs(a)) {
			t.Fatalf("epoch %d: sharded loss %v drifted from whole-batch %v", e, b, a)
		}
	}
}

// TestFitWeightedLossCurve is the regression test for the loss-reporting
// bug: the epoch loss must weight each batch by its size. With a
// vanishing learning rate every batch is scored at the initial weights,
// so the weighted epoch mean must equal the MSE over the whole dataset —
// which an unweighted mean of batch means gets wrong whenever the sample
// count is not divisible by the batch size.
func TestFitWeightedLossCurve(t *testing.T) {
	samples := synthDataset(10, 25)
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
	tc.Batch = 4 // batches of 4, 4, 2
	tc.LR = 1e-300
	res, err := m.Fit(samples, tc)
	if err != nil {
		t.Fatal(err)
	}
	got := res.LossCurve[0]
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("epoch loss %v, want dataset MSE %v (short batch over- or under-weighted)", got, want)
	}

	// The sharded trainer must report the same weighted mean.
	m2 := NewModel(RAAL(), cfg)
	tc.ShardSize = 3
	tc.Workers = 2
	res2, err := m2.Fit(samples, tc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.LossCurve[0]-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("sharded epoch loss %v, want dataset MSE %v", res2.LossCurve[0], want)
	}
}

// TestParallelTrainRaceSmoke is a short multi-worker run meant to be
// executed under -race (see `make race`): it exercises concurrent shard
// backward passes and concurrent inference on the shared weights.
func TestParallelTrainRaceSmoke(t *testing.T) {
	samples := synthDataset(40, 26)
	tc := quickTrain()
	tc.Epochs = 2
	tc.Batch = 8
	tc.ShardSize = 2
	tc.Workers = 4
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

// BenchmarkFit measures training throughput. "default" is the schedule
// TrainCostModel runs: DefaultTrainConfig (one 16-sample shard per batch,
// Workers 0) on the default model, one epoch, over samples at the shape
// the default encoder gives the offline corpus: 16 semantic columns and 42
// padded nodes (60 input columns), plans of 3 to 42 nodes. The workers=N
// cases measure data-parallel training; their shard boundaries are pinned
// so every worker count runs the same computation.
func BenchmarkFit(b *testing.B) {
	samples := benchSamples(256)
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
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tc := quickTrain()
			tc.Epochs = 1
			tc.Batch = 32
			tc.ShardSize = 4
			tc.Workers = workers
			m := NewModel(RAAL(), testConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Fit(samples, tc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
