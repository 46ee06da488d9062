package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"raal/internal/encode"
	"raal/internal/metrics"
)

// Precision names the element type an inference path runs at. Models
// always train in PrecisionF64; PrecisionF32 is the post-training,
// inference-only instantiation of the same network (see Net.Quantize),
// admitted for serving through the accuracy gate (VerifyQuantized).
type Precision uint8

// Supported precisions.
const (
	PrecisionF64 Precision = iota // float64 reference path (Model)
	PrecisionF32                  // all weights and arithmetic in float32 (Net[float32])
)

func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// ParsePrecision maps the CLI spelling ("f64", "f32") back to a Precision.
// "int8" was a third value once; it measured slower and less accurate than
// f32 and was removed, so asking for it is an error rather than a silent
// fallback.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	case "int8":
		return 0, errors.New(`core: precision "int8" was removed (it was slower and less accurate than f32); use f32`)
	}
	return 0, fmt.Errorf("core: unknown precision %q (have f64, f32)", s)
}

// Precision reports the element type m computes in.
func (m *Net[T]) Precision() Precision {
	var zero T
	if unsafe.Sizeof(zero) == 4 {
		return PrecisionF32
	}
	return PrecisionF64
}

// Quantize derives the inference-only reduced-precision network for p from
// the trained model: the same variant, configuration and forward graph
// with every weight narrowed to float32. m is untouched and remains the
// training/reference path; the result is never trained and never
// serialized — re-derive it from the float64 champion instead.
//
// Its predictions are deterministic (bit-identical across worker counts,
// chunk sizes and bucketing, by the same argument as at float64), but no
// bit relationship with m's output is promised; that gap is what
// VerifyQuantized bounds.
func (m *Net[T]) Quantize(p Precision) (*Net[float32], error) {
	if p != PrecisionF32 {
		return nil, fmt.Errorf("core: Quantize: %v is not a reduced precision (want f32)", p)
	}
	return convertNet[float32](m), nil
}

// GateQuantile is the order statistic the accuracy gate examines: the
// 0.9-quantile of the per-sample q-error delta between the quantized and
// float64 predictions. A tail quantile (rather than the mean) is what
// keeps one catastrophically mis-scaled row from hiding behind a thousand
// good ones.
const GateQuantile = 0.9

// QuantGateError is the typed refusal returned by VerifyQuantized when a
// quantized model disagrees with its float64 reference by more than the
// configured bound, or predicts a non-finite cost. Callers match it with
// errors.As and fall back to the f64 path.
type QuantGateError struct {
	Precision Precision
	Quantile  float64 // order statistic examined (GateQuantile)
	Delta     float64 // observed q-error delta at that quantile; NaN when a prediction was non-finite
	Bound     float64 // configured maximum
	N         int     // evaluation samples
	NonFinite int     // reduced-precision predictions that were NaN or ±Inf
}

func (e *QuantGateError) Error() string {
	if e.NonFinite > 0 {
		return fmt.Sprintf("core: quantization gate refused %s: %d of %d predictions are not finite",
			e.Precision, e.NonFinite, e.N)
	}
	return fmt.Sprintf("core: quantization gate refused %s: q-error delta p%.0f = %.4f > bound %.4f (over %d samples)",
		e.Precision, e.Quantile*100, e.Delta, e.Bound, e.N)
}

// VerifyQuantized is the accuracy gate: it scores samples through both
// the float64 model and its quantized snapshot, computes the per-sample
// q-error delta distribution (metrics.QErrorDeltas, with the f64
// predictions as reference — no labels needed), and refuses with a
// *QuantGateError when the GateQuantile delta exceeds maxQDelta. Any
// non-finite reduced-precision prediction refuses outright: a NaN delta
// sorts below every number, so it would otherwise never reach the
// examined quantile, and NaN > bound is false. A nil return admits qm for
// serving.
func VerifyQuantized(m *Model, qm *Net[float32], samples []*encode.Sample, maxQDelta float64) error {
	if m == nil || qm == nil {
		return errors.New("core: VerifyQuantized needs both the f64 model and the quantized snapshot")
	}
	if len(samples) == 0 {
		return errors.New("core: VerifyQuantized needs at least one evaluation sample")
	}
	if maxQDelta < 0 {
		return fmt.Errorf("core: VerifyQuantized bound %g must be non-negative", maxQDelta)
	}
	ref, _ := m.PredictCtx(context.Background(), samples, PredictOpts{}) // Background never cancels
	got, _ := qm.PredictCtx(context.Background(), samples, PredictOpts{})
	refusal := &QuantGateError{Precision: qm.Precision(), Quantile: GateQuantile, Delta: math.NaN(), Bound: maxQDelta, N: len(samples)}
	for _, g := range got {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			refusal.NonFinite++
		}
	}
	if refusal.NonFinite > 0 {
		return refusal
	}
	refusal.Delta = metrics.Quantile(metrics.QErrorDeltas(ref, got), GateQuantile)
	if !(refusal.Delta <= maxQDelta) { // also refuses a NaN quantile
		return refusal
	}
	return nil
}
