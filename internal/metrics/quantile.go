package metrics

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics (the R-7/NumPy default). xs is
// not modified. NaN for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// qErrorEps regularizes q-error ratios near zero: predicted costs are
// clamped non-negative by the decode transform, and a pair of
// near-identical tiny values must read as "no disagreement", not as an
// unbounded ratio.
const qErrorEps = 1e-9

// QErrorDeltas returns, for each pair, the q-error of got against ref
// minus one: max((got+ε)/(ref+ε), (ref+ε)/(got+ε)) − 1. A delta of 0
// means got agrees with ref exactly; 0.05 means it is off by 5% in ratio
// terms. This is the accuracy-gate statistic for quantized inference,
// where ref holds the float64 predictions. Slices must have equal length
// and non-negative entries (both are cost predictions).
func QErrorDeltas(ref, got []float64) []float64 {
	deltas := make([]float64, len(ref))
	for i, r := range ref {
		g := got[i]
		num, den := g+qErrorEps, r+qErrorEps
		if den > num {
			num, den = den, num
		}
		deltas[i] = num/den - 1
	}
	return deltas
}

// ArgminFinite returns the index of the smallest finite value (first on
// ties), or -1 when no value is finite. NaN and ±Inf predictions come from
// corrupt weights or inputs; they are never ranked, so one can neither win
// (a NaN in front compares false against everything) nor hide a winner.
func ArgminFinite(xs []float64) int {
	best := -1
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if best < 0 || x < xs[best] {
			best = i
		}
	}
	return best
}
