package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"raal/internal/encode"
	"raal/internal/telemetry"
)

// gridOf prices s's plan under n random allocations: shallow copies that
// share its plan part.
func gridOf(s *encode.Sample, n int, rng *rand.Rand) []*encode.Sample {
	out := make([]*encode.Sample, n)
	for i := range out {
		r := make([]float64, len(s.Resource))
		for j := range r {
			r[j] = rng.Float64()
		}
		out[i] = s.WithResource(r)
	}
	return out
}

// deepCopy rebuilds s from its contents, so it shares no storage with s
// and is its own plan as far as forward can tell.
func deepCopy(s *encode.Sample) *encode.Sample {
	c := &encode.Sample{
		Nodes:    s.Nodes.Clone(),
		Mask:     append([]bool(nil), s.Mask...),
		Children: make([][]bool, len(s.Children)),
		Resource: append([]float64(nil), s.Resource...),
		Stats:    append([]float64(nil), s.Stats...),
		CostSec:  s.CostSec,
	}
	for i, row := range s.Children {
		c.Children[i] = append([]bool(nil), row...)
	}
	return c
}

func instrumented(m *Model) *Instrumentation {
	ins := NewInstrumentation(telemetry.NewRegistry())
	m.Instrument(ins)
	return ins
}

// TestSharedPrefixBitIdentical mixes several plans' allocation grids with
// unrelated samples, shuffled, and checks for every variant that scoring
// them together — plans recognised by identity, one prefix each — returns
// the bits that scoring a deep copy of every row alone returns. With a
// memo slot on the plans the second pass finds the first pass's prefix.
func TestSharedPrefixBitIdentical(t *testing.T) {
	opts := []schedOpts{{}, {workers: 1, chunk: 7}, {workers: 4, chunk: 7}}
	for _, v := range goldenVariants() {
		for _, memo := range []bool{false, true} {
			rng := rand.New(rand.NewSource(5))
			batch := synthDataset(12, 99)
			for i := 0; i < 5; i++ {
				base := maskedSample(rng)
				if memo {
					base.Memo = new(encode.PlanMemo)
				}
				batch = append(batch, gridOf(base, 9, rng)...)
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

			m := goldenModel(v)
			check := func(name string, predict func([]*encode.Sample, schedOpts) []float64) {
				for _, opt := range opts {
					got := predict(batch, opt)
					for i, s := range batch {
						want := predict([]*encode.Sample{deepCopy(s)}, schedOpts{})[0]
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%s %s memo=%v %+v: row %d scored %v in the shared batch, %v alone",
								v.Name, name, memo, opt, i, got[i], want)
						}
					}
				}
			}
			check("f64", func(b []*encode.Sample, o schedOpts) []float64 { return predictOn(m, b, o) })
			check("f64 again", func(b []*encode.Sample, o schedOpts) []float64 { return predictOn(m, b, o) })
			check("f64 flat", func(b []*encode.Sample, o schedOpts) []float64 { return predictFlat(m, b, o) })
		}
	}
}

// TestTrainingNeverSharesPrefixes: shallow copies of one plan in a training
// batch (the online replay buffer holds exactly those) must train as the
// independent samples they are — same loss curve and weights, bit for bit,
// as deep copies — and must leave memo slots alone.
func TestTrainingNeverSharesPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var shared, deep []*encode.Sample
	for i := 0; i < 6; i++ {
		base := synthSample(rng)
		base.Memo = new(encode.PlanMemo)
		for _, s := range gridOf(base, 4, rng) {
			s.CostSec = 1 + rng.Float64()
			shared = append(shared, s)
			deep = append(deep, deepCopy(s))
		}
	}
	tc := quickTrain()
	tc.Epochs = 2
	for _, v := range []Variant{RAAL(), RAAC()} {
		a, ra, err := Train(shared, v, testConfig(), tc)
		if err != nil {
			t.Fatal(err)
		}
		b, rb, err := Train(deep, v, testConfig(), tc)
		if err != nil {
			t.Fatal(err)
		}
		for e := range ra.LossCurve {
			if ra.LossCurve[e] != rb.LossCurve[e] {
				t.Fatalf("%s epoch %d: loss %v with shared plan parts, %v with deep copies", v.Name, e, ra.LossCurve[e], rb.LossCurve[e])
			}
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			for j, w := range pa[i].Value().Data {
				if w != pb[i].Value().Data[j] {
					t.Fatalf("%s: weight %s[%d] differs between shared and deep-copied training samples", v.Name, pa[i].Name, j)
				}
			}
		}
	}
	for _, s := range shared {
		if s.Memo.Load() != nil {
			t.Fatal("training stored a prefix in a sample's memo slot")
		}
	}
}

// TestMemoizedPrefixValidity: a parked prefix serves only the network and
// weights that produced it. Another network of the same shape and the
// same network after Fit each recompute — and each matches a memo-less
// copy of the sample.
func TestMemoizedPrefixValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	train := synthDataset(48, 3)
	s := synthSample(rng)
	s.Memo = new(encode.PlanMemo)
	bare := deepCopy(s)
	one := func(x *encode.Sample) []*encode.Sample { return []*encode.Sample{x} }

	m := goldenModel(RAAL())
	ins := instrumented(m)
	counts := func() [2]uint64 { return [2]uint64{ins.PrefixComputed.Value(), ins.PrefixReused.Value()} }
	if got, want := predict(m, one(s))[0], predict(m, one(bare))[0]; got != want {
		t.Fatalf("first memoized predict %v != plain %v", got, want)
	}
	if got, want := predict(m, one(s))[0], predict(m, one(bare))[0]; got != want {
		t.Fatalf("predict from a reused prefix %v != plain %v", got, want)
	}
	if c := counts(); c != [2]uint64{3, 1} { // s once, bare twice; s's second pass reused
		t.Fatalf("computed/reused = %v, want [3 1]", c)
	}

	other := m.Clone() // same weights, another *Model: must not trust m's prefix
	oins := instrumented(other)
	if got, want := predict(other, one(s))[0], predict(other, one(bare))[0]; got != want {
		t.Fatalf("clone: %v != %v", got, want)
	}
	if oins.PrefixReused.Value() != 0 {
		t.Fatal("a clone reused the original network's prefix")
	}

	predict(m, one(s)) // m's prefix is back in the slot
	tc := quickTrain()
	tc.Epochs = 1
	if _, err := m.Fit(train, tc); err != nil {
		t.Fatal(err)
	}
	before := counts()
	if got, want := predict(m, one(s))[0], predict(m, one(bare))[0]; got != want {
		t.Fatalf("after Fit: predict %v from a stale prefix, want %v", got, want)
	}
	if c := counts(); c[1] != before[1] {
		t.Fatal("a prefix computed before Fit was reused after it")
	}
}

// TestGridPredictOneRecurrence is the split's allocation pin, next to
// TestPredictAllocsPerOpCeiling: a warm 60-allocation sweep of one plan
// runs exactly one recurrence and allocates at most a tenth of what 60
// independent estimates of the same rows do.
func TestGridPredictOneRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	grid := gridOf(synthSample(rng), 60, rng)
	m := NewModel(RAAL(), testConfig())
	ins := instrumented(m)
	predict(m, grid) // warm the tape

	c0, r0 := ins.PrefixComputed.Value(), ins.PrefixReused.Value()
	predict(m, grid)
	if c, r := ins.PrefixComputed.Value()-c0, ins.PrefixReused.Value()-r0; c != 1 || r != 59 {
		t.Fatalf("a 60-allocation sweep computed %d prefixes and reused %d, want 1 and 59", c, r)
	}

	alone := make([][]*encode.Sample, len(grid))
	for i, s := range grid {
		alone[i] = []*encode.Sample{s}
	}
	sweep := testing.AllocsPerRun(20, func() { predict(m, grid) })
	singles := testing.AllocsPerRun(20, func() {
		for _, one := range alone {
			predict(m, one)
		}
	})
	if sweep > singles/10 {
		t.Fatalf("the sweep allocates %.0f times per run, 60 single estimates %.0f: want at most a tenth", sweep, singles)
	}
}

// TestGridPredictAcrossChunks is the grid sweep cut into chunks: sixty
// allocations of one plan part, scored four workers wide in chunks of
// seven (each chunk computes the plan prefix for itself), one sample per
// tape, and on the default schedule, return the serial one-chunk bits,
// with and without a memo slot on the plan.
func TestGridPredictAcrossChunks(t *testing.T) {
	for _, memo := range []bool{false, true} {
		rng := rand.New(rand.NewSource(61))
		base := synthSample(rng)
		if memo {
			base.Memo = new(encode.PlanMemo)
		}
		grid := gridOf(base, 60, rng)
		m := NewModel(RAAL(), testConfig())
		want := predictOn(m, grid, schedOpts{workers: 1, chunk: 64})
		for _, o := range []schedOpts{{workers: 4, chunk: 7}, {workers: 1, chunk: 1}, {workers: 2, chunk: 64}, {}} {
			if got := predictOn(m, grid, o); !slices.Equal(got, want) {
				t.Fatalf("memo=%v %+v: grid scored %v, one serial chunk %v", memo, o, got, want)
			}
		}
	}
}
