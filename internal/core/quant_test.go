package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/tensor"
)

// trainSmall trains one small model for the reduced-precision tests.
func trainSmall(t *testing.T, v Variant, seed int64) *Model {
	t.Helper()
	m, _, err := Train(synthDataset(160, seed), v, testConfig(), quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func quantizeF32(t testing.TB, m *Model) *Net[float32] {
	t.Helper()
	qm, err := m.Quantize(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

// TestQuantizedCloseToFloat64 pins the headline accuracy property: for
// every variant, the 0.9-quantile q-error delta of the float32 network
// against the float64 predictions stays within the serving bound, and
// VerifyQuantized admits the snapshot.
func TestQuantizedCloseToFloat64(t *testing.T) {
	eval := synthDataset(64, 99)
	variants := map[string]Variant{"raal": RAAL(), "nelstm": NELSTM(), "nalstm": NALSTM(), "raac": RAAC()}
	for name, v := range variants {
		m := trainSmall(t, v, 7)
		qm := quantizeF32(t, m)
		if qm.Precision() != PrecisionF32 || m.Precision() != PrecisionF64 {
			t.Fatalf("%s: precisions %v / %v, want f32 / f64", name, qm.Precision(), m.Precision())
		}
		delta := metrics.Quantile(metrics.QErrorDeltas(predict(m, eval), predict(qm, eval)), GateQuantile)
		if delta > 0.05 {
			t.Fatalf("%s: p90 q-error delta %.4f > 0.05", name, delta)
		}
		if err := VerifyQuantized(m, qm, eval, 0.05); err != nil {
			t.Fatalf("%s: gate refused a good snapshot: %v", name, err)
		}
	}
}

// TestQuantizedPredictDeterministic pins the determinism contract at both
// element types: predictions are bit-identical across worker counts,
// chunk sizes, and bucketing settings.
func TestQuantizedPredictDeterministic(t *testing.T) {
	m := trainSmall(t, RAAL(), 11)
	eval := synthDataset(80, 101)
	t.Run("f64", func(t *testing.T) { checkPredictDeterministic(t, m, eval) })
	t.Run("f32", func(t *testing.T) { checkPredictDeterministic(t, quantizeF32(t, m), eval) })
}

func checkPredictDeterministic[T tensor.Float](t *testing.T, m *Net[T], eval []*encode.Sample) {
	want := predictFlat(m, eval, schedOpts{workers: 1, chunk: 7})
	opts := []schedOpts{
		{workers: 1, chunk: 80},
		{workers: 2, chunk: 16},
		{workers: 4, chunk: 5},
		{workers: 3, chunk: 11}, // scored on the flat schedule too
	}
	for k, opt := range opts {
		got := predictOn(m, eval, opt)
		if k == len(opts)-1 {
			got = predictFlat(m, eval, opt)
		}
		for i, v := range got {
			if v != want[i] {
				t.Fatalf("opts %+v: sample %d = %v, want %v (bit-identical)", opt, i, v, want[i])
			}
		}
	}
}

// TestQuantizedWarmPredictZeroAllocs pins the pooled-tape arena contract
// at both element types: after warmup, repeated serial predicts allocate
// no matrices.
func TestQuantizedWarmPredictZeroAllocs(t *testing.T) {
	m := trainSmall(t, RAAL(), 13)
	eval := synthDataset(32, 103)
	t.Run("f64", func(t *testing.T) { checkWarmPredictZeroAllocs(t, m, eval) })
	t.Run("f32", func(t *testing.T) { checkWarmPredictZeroAllocs(t, quantizeF32(t, m), eval) })
}

func checkWarmPredictZeroAllocs[T tensor.Float](t *testing.T, m *Net[T], eval []*encode.Sample) {
	opt := schedOpts{workers: 1}
	predictOn(m, eval, opt) // warm the tape pool
	before := tensor.Allocs()
	for i := 0; i < 3; i++ {
		predictOn(m, eval, opt)
	}
	if got := tensor.Allocs() - before; got != 0 {
		t.Fatalf("warm predict allocated %d matrices, want 0", got)
	}
}

// TestQuantGateRefusal deliberately violates the bound and requires the
// typed refusal: a corrupted snapshot must come back as *QuantGateError
// with the precision and quantile filled in.
func TestQuantGateRefusal(t *testing.T) {
	m := trainSmall(t, RAAL(), 17)
	qm := quantizeF32(t, m)
	// Sabotage the output layer bias: every prediction shifts, so the
	// q-error delta blows through any reasonable bound.
	out := qm.head.Layers[len(qm.head.Layers)-1]
	for i := range out.B.Value().Data {
		out.B.Value().Data[i] += 2
	}
	eval := synthDataset(48, 107)
	err := VerifyQuantized(m, qm, eval, 0.05)
	var gateErr *QuantGateError
	if !errors.As(err, &gateErr) {
		t.Fatalf("gate returned %v, want *QuantGateError", err)
	}
	if gateErr.Precision != PrecisionF32 || gateErr.Quantile != GateQuantile || gateErr.Delta <= gateErr.Bound {
		t.Fatalf("gate error fields wrong: %+v", gateErr)
	}
}

// TestQuantGateRefusesNonFinite pins the gate against predictions that are
// not numbers. A NaN delta sorts below every real one, so with up to 90%
// NaN rows the examined quantile never sees them, and with all rows NaN
// the comparison NaN > bound is false: either way the snapshot used to be
// admitted.
func TestQuantGateRefusesNonFinite(t *testing.T) {
	m := trainSmall(t, RAAL(), 19)
	eval := synthDataset(48, 109)
	for name, poison := range map[string]float32{"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1))} {
		qm := quantizeF32(t, m)
		// The output layer is linear, so the poison reaches every
		// prediction (a hidden layer's ReLU would clamp NaN to 0).
		qm.head.Layers[len(qm.head.Layers)-1].B.Value().Data[0] = poison
		err := VerifyQuantized(m, qm, eval, 0.05)
		var gateErr *QuantGateError
		if !errors.As(err, &gateErr) {
			t.Fatalf("%s head weight: gate returned %v, want *QuantGateError", name, err)
		}
		if gateErr.Precision != PrecisionF32 || gateErr.N != len(eval) {
			t.Fatalf("%s head weight: gate error fields wrong: %+v", name, gateErr)
		}
	}
}

// TestQuantizeRejectsF64 pins the contract: f64 is the reference path, not
// a reduced precision.
func TestQuantizeRejectsF64(t *testing.T) {
	m := NewModel(RAAL(), testConfig())
	if _, err := m.Quantize(PrecisionF64); err == nil {
		t.Fatal("Quantize(f64) succeeded, want error")
	}
}

// TestParsePrecision round-trips the CLI spellings and requires the
// removed value to fail loudly, naming its replacement.
func TestParsePrecision(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision(f16) succeeded, want error")
	}
	_, err := ParsePrecision("int8")
	if err == nil || !strings.Contains(err.Error(), "removed") || !strings.Contains(err.Error(), "f32") {
		t.Fatalf("ParsePrecision(int8) = %v, want an error saying int8 was removed and naming f32", err)
	}
}

// BenchmarkPredictQuant compares warm batch inference across precisions
// at the BenchmarkPredict shape (512 samples, chunk 32, serial scorer).
func BenchmarkPredictQuant(b *testing.B) {
	samples := benchSamples(512)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:128], RAAL(), testConfig(), tc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("f64", func(b *testing.B) { benchPredict(b, m, samples) })
	b.Run("f32", func(b *testing.B) { benchPredict(b, quantizeF32(b, m), samples) })
}

func benchPredict[T tensor.Float](b *testing.B, m *Net[T], samples []*encode.Sample) {
	opt := schedOpts{workers: 1, chunk: 32}
	predictOn(m, samples, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictOn(m, samples, opt)
	}
}
