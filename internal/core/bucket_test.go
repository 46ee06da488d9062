package core

import (
	"context"
	"math/rand"
	"testing"

	"raal/internal/encode"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/tensor"
)

// predict scores samples on the default schedule, as PredictCtx does.
func predict(m *Model, samples []*encode.Sample) []float64 {
	out, _ := m.PredictCtx(context.Background(), samples, PredictOpts{})
	return out
}

// predictOn scores samples on the schedule o: how tests reach the worker
// counts and chunk sizes PredictCtx keeps to itself.
func predictOn(m *Model, samples []*encode.Sample, o schedOpts) []float64 {
	out, _ := m.predictCtx(context.Background(), samples, o)
	return out
}

// predictFlat is predictOn on the unbucketed schedule: chunks cut over
// the samples in input order, mixing lengths, each plan run at its own.
// It is how tests compare the two schedules.
func predictFlat(m *Model, samples []*encode.Sample, o schedOpts) []float64 {
	o.noBucket = true
	return predictOn(m, samples, o)
}

// maskedSample fabricates a sample with a random active length (1..tNodes)
// and, sometimes, interior mask holes — the adversarial shapes for the
// length-bucketed scheduler, whose bucketing key is the LAST true mask
// index, not the count of true entries.
func maskedSample(rng *rand.Rand) *encode.Sample {
	dim := tSem + tNodes + 2
	s := &encode.Sample{
		Nodes:    tensor.New(tNodes, dim),
		Mask:     make([]bool, tNodes),
		Children: make([][]bool, tNodes),
		Resource: make([]float64, sparksim.NumFeatures),
		Stats:    make([]float64, tStats),
	}
	for i := 0; i < tNodes; i++ {
		s.Children[i] = make([]bool, tNodes)
	}
	n := 1 + rng.Intn(tNodes) // active length 1..tNodes
	for i := 0; i < n; i++ {
		s.Mask[i] = true
		row := s.Nodes.Row(i)
		for d := 0; d < tSem; d++ {
			row[d] = rng.Float64()
		}
		if i > 0 {
			row[tSem+i-1] = 1
			s.Children[i][i-1] = true
			s.Nodes.Row(i - 1)[tSem+i] = -1
		}
		row[tSem+tNodes] = rng.Float64()
		row[tSem+tNodes+1] = rng.Float64()
	}
	// Punch an interior hole: the active length (last true index + 1)
	// must not change, so never unset the last real node.
	if n > 2 && rng.Intn(3) == 0 {
		s.Mask[rng.Intn(n-1)] = false
	}
	for j := range s.Resource {
		s.Resource[j] = rng.Float64()
	}
	for j := range s.Stats {
		s.Stats[j] = rng.Float64()
	}
	s.CostSec = 1 + rng.Float64()
	return s
}

// TestBucketedPredictBitIdentical is the scheduler's core property: for
// every architecture, grouping samples by active plan length (the
// default) predicts bit-identically to the unbucketed input-order
// schedule, across random masks, lengths, chunk sizes, and worker
// counts. Pooling and attention are mask-invariant, so the regrouping
// may change which samples share a forward pass but never a single bit
// of any output.
func TestBucketedPredictBitIdentical(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			samples := make([]*encode.Sample, 160)
			for i := range samples {
				samples[i] = maskedSample(rng)
			}
			tc := quickTrain()
			tc.Epochs = 1
			m, _, err := Train(samples[:48], v, testConfig(), tc)
			if err != nil {
				t.Fatal(err)
			}
			opts := []schedOpts{
				{},
				{workers: 1, chunk: 1},
				{workers: 1, chunk: 7},
				{workers: 4, chunk: 16},
				{workers: 3, chunk: 64},
			}
			for _, opt := range opts {
				bucketed := predictOn(m, samples, opt)
				plain := predictFlat(m, samples, opt)
				for i := range plain {
					if bucketed[i] != plain[i] {
						t.Fatalf("opt %+v sample %d (len %d): bucketed %v != unbucketed %v",
							opt, i, activeLen(samples[i]), bucketed[i], plain[i])
					}
				}
			}
		})
	}
}

// TestBucketedMatchesSingletonPredictions pins the stronger independence
// property the scheduler rests on: each sample's prediction in a
// bucketed batch equals its prediction scored alone in a batch of one.
func TestBucketedMatchesSingletonPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]*encode.Sample, 40)
	for i := range samples {
		samples[i] = maskedSample(rng)
	}
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	batched := predict(m, samples)
	for i, s := range samples {
		alone := predict(m, []*encode.Sample{s})[0]
		if batched[i] != alone {
			t.Fatalf("sample %d: batched %v != singleton %v", i, batched[i], alone)
		}
	}
}

// TestScheduleCutsChunksAtBucketBoundaries checks the schedule itself:
// chunks never mix two length hints, every input index appears exactly
// once, the chunks run longest first, within a length the input order is
// preserved (the counting sort is stable), and hints below 1 count as 1.
func TestScheduleCutsChunksAtBucketBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hints := make([]int, 100)
	for i := range hints {
		hints[i] = activeLen(maskedSample(rng))
	}
	hints[17], hints[40] = 0, -3
	m := NewModel(RAAL(), testConfig())
	var buf []int
	order, cuts := m.schedule(&buf, hints, 8, false)
	if len(order) != len(hints) {
		t.Fatalf("schedule lost samples: %d in order, want %d", len(order), len(hints))
	}
	hint := func(pos int) int { return max(hints[order[pos]], 1) }
	seen := make([]bool, len(hints))
	for _, idx := range order {
		if seen[idx] {
			t.Fatalf("index %d scheduled twice", idx)
		}
		seen[idx] = true
	}
	prevLen, prevIdx := tNodes+1, -1
	for pos, idx := range order {
		l := hint(pos)
		if l > prevLen {
			t.Fatalf("position %d: length %d after %d — schedule not longest first", pos, l, prevLen)
		}
		if l == prevLen && idx < prevIdx {
			t.Fatalf("position %d: input order not preserved within length-%d bucket", pos, l)
		}
		prevLen, prevIdx = l, idx
	}
	if cuts[0] != 0 {
		t.Fatalf("first chunk starts at %d, want 0", cuts[0])
	}
	next := 0
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi <= lo {
			t.Fatalf("chunk [%d, %d) is empty", lo, hi)
		}
		next = hi
		for p := lo; p < hi; p++ {
			if hint(p) != hint(lo) {
				t.Fatalf("chunk [%d, %d) mixes lengths %d and %d", lo, hi, hint(lo), hint(p))
			}
		}
		if hi-lo > 8 {
			t.Fatalf("chunk [%d, %d) exceeds chunk size 8", lo, hi)
		}
	}
	if next != len(hints) {
		t.Fatalf("chunks cover %d positions, want %d", next, len(hints))
	}
}

// TestBucketOccupancyCounters checks the scheduler's telemetry: scoring
// an instrumented model moves the per-band occupancy counters by exactly
// the number of samples in each band, and the unbucketed escape hatch
// leaves them untouched.
func TestBucketOccupancyCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := make([]*encode.Sample, 30)
	want := map[string]uint64{}
	for i := range samples {
		samples[i] = maskedSample(rng)
		want[bucketBand(activeLen(samples[i]))]++
	}
	m := NewModel(RAAL(), testConfig())
	reg := telemetry.NewRegistry()
	m.Instrument(NewInstrumentation(reg))
	predict(m, samples)
	for _, band := range bucketBands {
		if got := m.instr.BucketOccupancy.With(band).Value(); got != want[band] {
			t.Fatalf("band %s occupancy = %d, want %d", band, got, want[band])
		}
	}
	predictFlat(m, samples, schedOpts{})
	for _, band := range bucketBands {
		if got := m.instr.BucketOccupancy.With(band).Value(); got != want[band] {
			t.Fatalf("band %s moved under the flat schedule: %d, want %d", band, got, want[band])
		}
	}
}
