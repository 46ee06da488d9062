// Package metrics implements the paper's evaluation metrics (Sec. V-A,
// Eqs. 12–15): relative error, mean squared error, Pearson correlation,
// and the coefficient of determination.
package metrics

import (
	"fmt"
	"math"
)

// Result bundles all four metrics for one evaluation.
type Result struct {
	RE  float64 // relative error (Eq. 12)
	MSE float64 // mean squared error (Eq. 13)
	COR float64 // Pearson correlation (Eq. 14)
	R2  float64 // coefficient of determination (Eq. 15)
}

func (r Result) String() string {
	return fmt.Sprintf("RE=%.4f MSE=%.4f COR=%.4f R2=%.4f", r.RE, r.MSE, r.COR, r.R2)
}

// Evaluate computes all metrics of estimated vs actual. Slices must be the
// same non-zero length and finite throughout: a NaN or ±Inf anywhere would
// silently poison every aggregate, so it is rejected with an error naming
// the first offending slice, index, and value instead.
func Evaluate(actual, estimated []float64) (Result, error) {
	if len(actual) == 0 || len(actual) != len(estimated) {
		return Result{}, fmt.Errorf("metrics: need equal non-empty slices, got %d and %d", len(actual), len(estimated))
	}
	for i := range actual {
		if v := actual[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("metrics: actual[%d] is %v; all costs must be finite", i, v)
		}
		if v := estimated[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("metrics: estimated[%d] is %v; all costs must be finite", i, v)
		}
	}
	return Result{
		RE:  RelativeError(actual, estimated),
		MSE: MSE(actual, estimated),
		COR: Correlation(actual, estimated),
		R2:  R2(actual, estimated),
	}, nil
}

// RelativeError is the mean of |ac−es| / ac (Eq. 12). Samples with zero
// actual cost are skipped.
func RelativeError(actual, estimated []float64) float64 {
	var sum float64
	n := 0
	for i, ac := range actual {
		if ac == 0 {
			continue
		}
		sum += math.Abs(ac-estimated[i]) / ac
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MSE is the mean squared error (Eq. 13).
func MSE(actual, estimated []float64) float64 {
	var sum float64
	for i, ac := range actual {
		d := ac - estimated[i]
		sum += float64(d * d)
	}
	return sum / float64(len(actual))
}

// Correlation is the Pearson correlation coefficient (Eq. 14); 0 when
// either side is constant.
func Correlation(actual, estimated []float64) float64 {
	ma, me := mean(actual), mean(estimated)
	var cov, va, ve float64
	for i := range actual {
		da, de := actual[i]-ma, estimated[i]-me
		cov += float64(da * de)
		va += float64(da * da)
		ve += float64(de * de)
	}
	if va == 0 || ve == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(ve))
}

// R2 is the coefficient of determination (Eq. 15); it can be negative for
// models worse than predicting the mean.
func R2(actual, estimated []float64) float64 {
	ma := mean(actual)
	var ssRes, ssTot float64
	for i := range actual {
		d := actual[i] - estimated[i]
		ssRes += float64(d * d)
		t := actual[i] - ma
		ssTot += float64(t * t)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// QErrorMean is the mean q-error max(ac/es, es/ac), a standard cardinality
// and cost estimation metric; zero-valued pairs are skipped.
func QErrorMean(actual, estimated []float64) float64 {
	var sum float64
	n := 0
	for i, ac := range actual {
		es := estimated[i]
		if ac <= 0 || es <= 0 {
			continue
		}
		q := ac / es
		if es > ac {
			q = es / ac
		}
		sum += q
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
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
