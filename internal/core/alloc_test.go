package core

import (
	"testing"

	"raal/internal/tensor"
)

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
// (512 samples, serial, chunk 32); the pooled scorer must stay at least
// 10x below that. A bad arena regression (for example, a Reset that stops
// recycling) trips this long before it shows up in wall-clock noise.
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
	const ceiling = 6000 // seed: 63,557 allocs/op; arena steady state: ~2,600
	if got := r.AllocsPerOp(); got > ceiling {
		t.Fatalf("Predict allocations regressed: %d allocs/op, ceiling %d", got, ceiling)
	}
}
