package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/tensor"
)

// maxWarmScoreAllocs bounds a warm ScoreCtx over three memoized
// candidates (TestWarmScoreAndShardStepAllocs): the answer and the
// schedule's one block (order and chunk cuts).
const maxWarmScoreAllocs = 2

// TestWarmPredictAllocatesNoMatrices pins the tape pool's core guarantee:
// once the serial scorer has seen the corpus, repeated Predict calls take
// every matrix from the leased tape's arena — zero matrix allocations.
func TestWarmPredictAllocatesNoMatrices(t *testing.T) {
	samples := benchSamples(64)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:32], RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	opt := schedOpts{workers: 1, chunk: 32}
	warm := predictOn(m, samples, opt) // first pass populates the arena

	before := tensor.Allocs()
	var got []float64
	for i := 0; i < 5; i++ {
		got = predictOn(m, samples, opt)
	}
	if d := tensor.Allocs() - before; d != 0 {
		t.Fatalf("5 warm Predict passes allocated %d matrices, want 0", d)
	}
	// Recycled matrices must not change a single bit of the output.
	for i := range warm {
		if got[i] != warm[i] {
			t.Fatalf("prediction %d drifted across warm passes: %v != %v", i, got[i], warm[i])
		}
	}
}

// TestPooledPredictionsMatchFreshModel predicts on thoroughly warm
// pooled tapes and again on fresh ones (the process's pools emptied): the
// two must agree bit for bit. Pooling may change where values live, never
// what they are.
func TestPooledPredictionsMatchFreshModel(t *testing.T) {
	samples := benchSamples(48)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:32], RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // make the pool thoroughly warm
		predict(m, samples)
	}
	warm := predict(m, samples)
	drainTapes()
	cold := predict(m, samples)
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("prediction %d: warm pooled %v != cold fresh %v", i, warm[i], cold[i])
		}
	}
}

// TestPredictAllocsPerOpCeiling is the benchmark-driven regression gate:
// the pre-arena scorer ran at ~63,000 allocs/op on this exact workload
// (512 samples, serial, chunk 32); a warm call now allocates its answer,
// the length hints and the build closure, and nothing per chunk or per
// sample. A Reset that stops recycling, or a slice allocated per pass,
// trips this long before it shows up in wall-clock noise.
func TestPredictAllocsPerOpCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven; skipped in -short")
	}
	samples := benchSamples(512)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:128], RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	opt := schedOpts{workers: 1, chunk: 32}
	predictOn(m, samples, opt) // warm outside the measurement

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			predictOn(m, samples, opt)
		}
	})
	const ceiling = 4 // seed: 63,557 allocs/op; 102 before the pass slices moved onto the tape; 3 after
	if got := r.AllocsPerOp(); got > ceiling {
		t.Fatalf("Predict allocations regressed: %d allocs/op, ceiling %d", got, ceiling)
	}
}

// TestWarmScoreAndShardStepAllocs counts what a warm pass allocates on
// each side of the network at GOMAXPROCS 2. Serving: ScoreCtx over three
// candidates of distinct lengths whose plan prefixes are memoized, as a
// cached SelectPlanCtx scores them. Training: one shard step, forward and
// backward. Neither may allocate per row or per pass: the forward pass's
// slices are on loan from the tape.
func TestWarmScoreAndShardStepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := NewModel(RAAL(), testConfig())
	rng := rand.New(rand.NewSource(52))
	cands := make([]*encode.Sample, 3)
	hints := make([]int, len(cands))
	for i := range cands {
		cands[i] = synthSample(rng)
		for activeLen(cands[i]) != tNodes-i { // distinct lengths fan out across both workers
			cands[i] = synthSample(rng)
		}
		cands[i].Memo = new(encode.PlanMemo)
		hints[i] = activeLen(cands[i])
	}
	build := func(i int) *encode.Sample { return cands[i] }
	score := func() {
		if _, err := m.ScoreCtx(context.Background(), hints, build); err != nil {
			t.Fatal(err)
		}
	}

	r := m.replica()
	sh := &shardRun{model: r, params: r.Params(), tape: autodiff.NewTape()}
	samples := synthDataset(shardSize, 53)
	sel := []int{0, 1, 2, 3, 4, 5, 6, 7}
	step := func() { sh.step(samples, sel) }

	for _, c := range []struct {
		what  string
		limit float64
		op    func()
	}{
		{"ScoreCtx over 3 candidates", maxWarmScoreAllocs, score},
		{"shard step", 0, step},
	} {
		for range 3 {
			c.op()
		}
		got := allocsPerRun(50, c.op)
		t.Logf("warm %s: %.0f allocs", c.what, got)
		if got > c.limit {
			t.Errorf("warm %s made %.0f allocations, want at most %.0f", c.what, got, c.limit)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun at the caller's GOMAXPROCS, which
// AllocsPerRun sets to 1 while it measures: the mallocs of runs calls of
// f, after one warm-up call, divided by runs in integer arithmetic.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
