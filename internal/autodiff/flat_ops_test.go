package autodiff

import (
	"testing"

	"raal/internal/tensor"
)

// TestGradGatherRows checks the fused gather against numeric gradients.
func TestGradGatherRows(t *testing.T) {
	ps := randParams(31, [2]int{3, 4}, [2]int{3, 4}, [2]int{3, 4})
	checkGrad(t, ps, func(tp *Tape[float64], vs []*Var[float64]) *Var[float64] {
		return tp.MeanAll(tp.GatherRows(vs, 1))
	})
}

// TestGatherRowsMatchesRowAtConcat pins GatherRows to the chain it
// replaces: RowAt per input followed by ConcatRows, bit for bit in both
// values and gradients.
func TestGatherRowsMatchesRowAtConcat(t *testing.T) {
	ps := randParams(32, [2]int{4, 3}, [2]int{4, 3})
	for row := 0; row < 4; row++ {
		tpA, tpB := NewTape[float64](), NewTape[float64]()
		vsA := []*Var[float64]{tpA.Param(ps[0]), tpA.Param(ps[1])}
		vsB := []*Var[float64]{tpB.Param(ps[0]), tpB.Param(ps[1])}

		fused := tpA.GatherRows(vsA, row)
		chain := tpB.ConcatRows(tpB.RowAt(vsB[0], row), tpB.RowAt(vsB[1], row))
		mustEqualMat(t, fused.Value, chain.Value, "GatherRows value")

		tpA.Backward(tpA.MeanAll(fused))
		tpB.Backward(tpB.MeanAll(chain))
		for i := range vsA {
			mustEqualMat(t, vsA[i].Grad, vsB[i].Grad, "GatherRows grad")
		}
	}
}

// TestGradAddRowsAt checks the stacked-window add against numeric
// gradients, including gradient flow into both the window'd matrix and
// the addend.
func TestGradAddRowsAt(t *testing.T) {
	ps := randParams(33, [2]int{6, 3}, [2]int{2, 3})
	checkGrad(t, ps, func(tp *Tape[float64], vs []*Var[float64]) *Var[float64] {
		a := tp.AddRowsAt(vs[0], 0, vs[1])
		b := tp.AddRowsAt(vs[0], 4, vs[1]) // overlapping use of the same big matrix
		return tp.MeanAll(tp.Add(a, b))
	})
}

// TestAddRowsAtMatchesSliceAdd pins AddRowsAt values to the explicit
// row-window formulation.
func TestAddRowsAtMatchesSliceAdd(t *testing.T) {
	ps := randParams(34, [2]int{5, 4}, [2]int{2, 4})
	tp := NewTape[float64]()
	big, small := tp.Param(ps[0]), tp.Param(ps[1])
	got := tp.AddRowsAt(big, 2, small)
	want := tensor.Add(ps[0].SliceRows(2, 4), ps[1])
	mustEqualMat(t, got.Value, want, "AddRowsAt value")
}

// TestGradIm2ColRows checks the convolution lowering against numeric
// gradients for widths that pad zero, one, and two boundary rows.
func TestGradIm2ColRows(t *testing.T) {
	for _, width := range []int{1, 3, 5} {
		ps := randParams(35, [2]int{4, 2})
		checkGrad(t, ps, func(tp *Tape[float64], vs []*Var[float64]) *Var[float64] {
			return tp.MeanAll(tp.Im2ColRows(vs[0], width))
		})
	}
}

// TestIm2ColRowsValues pins the window layout: row p is the width-row
// neighborhood of input row p, zero-padded at the boundaries.
func TestIm2ColRowsValues(t *testing.T) {
	tp := NewTape[float64]()
	x := tp.Const(tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}))
	out := tp.Im2ColRows(x, 3)
	want := tensor.FromRows([][]float64{
		{0, 0, 1, 2, 3, 4},
		{1, 2, 3, 4, 5, 6},
		{3, 4, 5, 6, 0, 0},
	})
	mustEqualMat(t, out.Value, want, "Im2ColRows layout")
	if tp.Len() != 0 {
		t.Fatalf("Im2ColRows of a constant recorded %d ops, want 0", tp.Len())
	}
}

// TestLeafSharedAcrossTapesKeepsState verifies that a single Param leaf
// used by two tapes accumulates gradients from both — the leaf table is
// per-tape, so neither tape may stash per-tape state on the shared Var.
func TestLeafSharedAcrossTapesKeepsState(t *testing.T) {
	p := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	tpA, tpB := NewTape[float64](), NewTape[float64]()
	leafA := tpA.Param(p)
	tpA.Backward(tpA.MeanAll(tpA.Scale(leafA, 2)))

	// Reuse the same Var on a second tape: gradients must accumulate on top.
	tpB.Backward(tpB.MeanAll(tpB.Scale(leafA, 2)))
	for i, g := range leafA.Grad.Data {
		if want := 2 * 2.0 / 4.0; g != want {
			t.Fatalf("grad[%d] = %v, want %v after two backwards", i, g, want)
		}
	}
}

func mustEqualMat(t *testing.T, got, want *tensor.Matrix, what string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (got=%v want=%v)", what, got, want)
	}
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got.Data[i], want.Data[i])
		}
	}
}
