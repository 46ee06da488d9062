package core

import (
	"math/rand"
	"sync"
	"testing"

	"raal/internal/encode"
)

// TestBucketedEdgeLengthsBitIdentical covers the scheduler's degenerate
// inputs after the flat-tape rewrite: a fully padded plan (no true mask
// entry, active length floors at 1), batches whose plans all share one
// length (a single bucket), and a single-sample batch (the n<=1 early
// path). Each must predict bit-identically with bucketing on and off.
func TestBucketedEdgeLengthsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	train := make([]*encode.Sample, 32)
	for i := range train {
		train[i] = maskedSample(rng)
	}
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(train, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}

	emptyPlan := maskedSample(rng)
	for i := range emptyPlan.Mask {
		emptyPlan.Mask[i] = false
	}

	equalLen := make([]*encode.Sample, 9)
	for i := range equalLen {
		for {
			s := maskedSample(rng)
			if activeLen(s) == 3 {
				equalLen[i] = s
				break
			}
		}
	}

	cases := map[string][]*encode.Sample{
		"empty-plan":      {emptyPlan, maskedSample(rng), emptyPlan},
		"all-equal-lens":  equalLen,
		"single-sample":   {maskedSample(rng)},
		"single-is-empty": {emptyPlan},
	}
	for name, samples := range cases {
		t.Run(name, func(t *testing.T) {
			for _, opt := range []schedOpts{{}, {workers: 2, chunk: 2}, {workers: 1, chunk: 1}} {
				bucketed := predictOn(m, samples, opt)
				plain := predictFlat(m, samples, opt)
				for i := range plain {
					if bucketed[i] != plain[i] {
						t.Fatalf("opt %+v sample %d: bucketed %v != unbucketed %v", opt, i, bucketed[i], plain[i])
					}
				}
			}
		})
	}
}

// TestTapePoolConcurrentPredictInterleaved drives the tape pool from
// three directions at once — concurrent multi-worker Predicts leasing
// and returning tapes, direct get/put churn, and explicit Resets of
// leased tapes — so the race detector sees every pool transition
// interleaved with forward passes. Results must still be bit-identical
// to a serial baseline.
func TestTapePoolConcurrentPredictInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	samples := make([]*encode.Sample, 48)
	for i := range samples {
		samples[i] = maskedSample(rng)
	}
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:16], RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	want := predictOn(m, samples, schedOpts{workers: 1})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 6; iter++ {
				got := predictOn(m, samples, schedOpts{workers: 1 + g%3, chunk: 5 + g})
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("goroutine %d iter %d sample %d: %v != %v", g, iter, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	// Direct pool churn: lease tapes, reset them mid-flight, return them —
	// the interleavings a Predict storm alone might not hit.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				tp := LeaseTape(false)
				tp.Reset()
				ReturnTape(tp)
			}
		}()
	}
	wg.Wait()
}
