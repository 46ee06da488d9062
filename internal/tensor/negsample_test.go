package tensor

import (
	"math"
	"testing"
)

// TestNegSampleStepOneSampleAtATime checks NegSampleStep, on whichever
// path this CPU and width take, against the step written one sample at a
// time: σ, the coefficient and both updates of a row before the next
// row's dot. The rows of a run are distinct, so both orders agree.
func TestNegSampleStepOneSampleAtATime(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 16, 33} {
		rows, runs := []int32{2, 0, 3, 2, 1, 2}, []int32{3, 2, 1}
		m := make([]float64, 4*n)
		x := make([]float64, n)
		for i := range m {
			m[i] = math.Sin(float64(i)) / 3
		}
		for i := range x {
			x[i] = math.Cos(float64(i)) / 2
		}
		wantX, wantM := append([]float64(nil), x...), append([]float64(nil), m...)
		acc := make([]float64, n)
		for i, r := range rows {
			v := wantM[int(r)*n:][:n]
			var s float64
			for d := range v {
				s += wantX[d] * v[d]
			}
			label := 0.0
			if i == 0 {
				label = 1
			}
			g := 0.05 * (label - 1/(1+math.Exp(-s)))
			for d := range v {
				acc[d] += g * v[d]
				v[d] += g * wantX[d]
			}
		}
		for d := range wantX {
			wantX[d] += acc[d]
		}
		NegSampleStep(x, m, rows, runs, 0.05, make([]float64, n+len(rows)+3))
		for i := range wantM {
			if math.Float64bits(m[i]) != math.Float64bits(wantM[i]) {
				t.Fatalf("n=%d: m[%d] = %v, want %v", n, i, m[i], wantM[i])
			}
		}
		for i := range wantX {
			if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], wantX[i])
			}
		}
	}
}

// TestNegSampleStepRejectsBadShapes checks the tests that let the kernel
// read rows unchecked.
func TestNegSampleStepRejectsBadShapes(t *testing.T) {
	for name, c := range map[string]struct {
		rows, runs []int32
		buf        int
	}{
		"row past m":        {[]int32{0, 2}, []int32{2}, 13},
		"negative row":      {[]int32{0, -1}, []int32{2}, 13},
		"runs short":        {[]int32{0, 1}, []int32{1}, 13},
		"runs long":         {[]int32{0, 1}, []int32{1, 2}, 13},
		"empty run":         {[]int32{0, 1}, []int32{2, 0}, 13},
		"scratch too short": {[]int32{0, 1}, []int32{2}, 12},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NegSampleStep accepted rows %v, runs %v, %d scratch values", name, c.rows, c.runs, c.buf)
				}
			}()
			NegSampleStep(make([]float64, 8), make([]float64, 16), c.rows, c.runs, 0.05, make([]float64, c.buf))
		}()
	}
}

// BenchmarkNegSampleStep times one step at the encoder's width, 16, with a
// context row and five negatives in one run, each step's x feeding the
// next as a center word's pairs do in training.
func BenchmarkNegSampleStep(b *testing.B) {
	const n = 16
	m, x := make([]float64, 64*n), make([]float64, n)
	for i := range m {
		m[i] = float64(i%7) / 100
	}
	rows, runs := []int32{1, 5, 9, 13, 17, 21}, []int32{6}
	buf := make([]float64, n+len(rows)+3)
	for i := 0; i < b.N; i++ {
		NegSampleStep(x, m, rows, runs, 0.001, buf)
	}
}
