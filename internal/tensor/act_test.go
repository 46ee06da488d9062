package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkActivations runs the float64 sigmoid and tanh slice kernels on
// the row widths the LSTM cell hands them at Hidden 48: h = 48 (tanh of
// the cell state, the o gate), 2h = 96 (the i|f gates) and 4h = 192 (a
// whole gate row, as AddRowActInto applies it in training). Inputs are
// normal with standard deviation 2, a spread of pre-activations that puts
// lanes on both sides of tanh's 0.625 branch point. Each op takes the
// next of 64 different rows, so a branch predictor cannot learn one row.
func BenchmarkActivations(b *testing.B) {
	const rows = 64
	for _, n := range []int{48, 96, 192} {
		rng := rand.New(rand.NewSource(1))
		src, dst := make([]float64, rows*n), make([]float64, n)
		for i := range src {
			src[i] = 2 * rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("sigmoid/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := i % rows
				sigmoidSlice(dst, src[r*n:(r+1)*n])
			}
		})
		b.Run(fmt.Sprintf("tanh/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := i % rows
				tanhSlice(dst, src[r*n:(r+1)*n])
			}
		})
	}
}

// TestLSTMCellMatchesUnfused checks the fused cell kernel, bit for bit,
// against the op-by-op chain it replaces: column slices, bias+activation
// per gate, then the five elementwise ops. It also pins what a backward
// pass reads back: the gate activations left in z, tanh of the new cell
// state in tc, and the incoming cell state untouched.
func TestLSTMCellMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, h = 5, 7
	z := randMat(rng, batch, 4*h)
	b := randMat(rng, 1, 4*h)
	cPrev := randMat(rng, batch, h)
	zIn, wantPrev := z.Clone(), cPrev.Clone()

	gate := func(k int, act Act) *Matrix {
		zk, bk := New(batch, h), New(1, h)
		for r := 0; r < batch; r++ {
			copy(zk.Row(r), z.Row(r)[k*h:(k+1)*h])
		}
		copy(bk.Data, b.Data[k*h:(k+1)*h])
		AddRowActInto(zk, zk, bk, act)
		return zk
	}
	gates := []*Matrix{gate(0, ActSigmoid), gate(1, ActSigmoid), gate(2, ActTanh), gate(3, ActSigmoid)}
	i, f, g, o := gates[0], gates[1], gates[2], gates[3]
	wantC := Add(Mul(f, cPrev), Mul(i, g))
	wantTC := New(batch, h)
	TanhInto(wantTC, wantC)
	wantH := Mul(o, wantTC)

	sh, tc, c := New(batch, h), New(batch, h), New(batch, h)
	LSTMCellInto(sh, tc, c, cPrev, z, b)
	mustEqual(t, sh, wantH, "hidden state")
	mustEqual(t, c, wantC, "cell state")
	mustEqual(t, tc, wantTC, "tanh of the cell state")
	mustEqual(t, cPrev, wantPrev, "incoming cell state")
	for k, want := range gates {
		got := New(batch, h)
		for r := 0; r < batch; r++ {
			copy(got.Row(r), z.Row(r)[k*h:(k+1)*h])
		}
		mustEqual(t, got, want, "gate activations in z")
	}

	// With tc = h, as a forward-only tape runs it, h is unchanged.
	sh2 := New(batch, h)
	LSTMCellInto(sh2, sh2, c, cPrev, zIn, b)
	mustEqual(t, sh2, wantH, "hidden state with tc = h")
}
