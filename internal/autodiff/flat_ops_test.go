package autodiff

import (
	"errors"
	"math"
	"testing"

	"raal/internal/tensor"
)

// TestGradGatherRows checks the row-list gather against numeric
// gradients, reading a different row of each input, one of them twice.
func TestGradGatherRows(t *testing.T) {
	ps := randParams(31, [2]int{3, 4}, [2]int{3, 4}, [2]int{2, 4})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		g := tp.GatherRows([]*Var{vs[0], vs[1], vs[2], vs[0]}, []int{2, 0, 1, 1})
		return tp.SumAll(tp.Mul(g, g))
	})
}

// TestGradKeepRows checks the ascending row subset against numeric
// gradients: kept rows get their gradient back, dropped rows none.
func TestGradKeepRows(t *testing.T) {
	ps := randParams(36, [2]int{5, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		k := tp.KeepRows(vs[0], []int{0, 2, 3})
		return tp.SumAll(tp.Mul(k, k))
	})
}

// TestGatherRowsMatchesRowAtConcat pins GatherRows to the chain it
// replaces: RowAt per input followed by ConcatRows, bit for bit in both
// values and gradients.
func TestGatherRowsMatchesRowAtConcat(t *testing.T) {
	ps := randParams(32, [2]int{4, 3}, [2]int{4, 3})
	for row := 0; row < 4; row++ {
		tpA, tpB := NewTape(), NewTape()
		vsA := []*Var{tpA.Param(ps[0]), tpA.Param(ps[1])}
		vsB := []*Var{tpB.Param(ps[0]), tpB.Param(ps[1])}

		fused := tpA.GatherRows(vsA, []int{row, 3 - row})
		chain := tpB.ConcatRows(tpB.RowAt(vsB[0], row), tpB.RowAt(vsB[1], 3-row))
		mustEqualMat(t, fused.Value, chain.Value, "GatherRows value")

		tpA.Backward(tpA.MeanAll(fused))
		tpB.Backward(tpB.MeanAll(chain))
		for i := range vsA {
			mustEqualMat(t, vsA[i].Grad, vsB[i].Grad, "GatherRows grad")
		}
	}
}

// TestRowListPanics pins the typed panic of both row-list ops: a row out
// of range, a KeepRows list that repeats or reorders a row, and a
// GatherRows list whose length is not the inputs'.
func TestRowListPanics(t *testing.T) {
	tp := NewTape()
	a := tp.Param(tensor.New(3, 2))
	for _, c := range []struct {
		name string
		run  func()
		want RowListError
	}{
		{"gather row past end", func() { tp.GatherRows([]*Var{a, a}, []int{0, 3}) }, RowListError{"GatherRows", 1, 3, 3}},
		{"gather negative row", func() { tp.GatherRows([]*Var{a}, []int{-1}) }, RowListError{"GatherRows", 0, -1, 3}},
		{"gather short list", func() { tp.GatherRows([]*Var{a, a}, []int{0}) }, RowListError{"GatherRows", -1, 1, 2}},
		{"keep row past end", func() { tp.KeepRows(a, []int{0, 3}) }, RowListError{"KeepRows", 1, 3, 3}},
		{"keep repeated row", func() { tp.KeepRows(a, []int{1, 1}) }, RowListError{"KeepRows", 1, 1, 3}},
		{"keep descending", func() { tp.KeepRows(a, []int{2, 0}) }, RowListError{"KeepRows", 1, 0, 3}},
	} {
		func() {
			defer func() {
				var err *RowListError
				if !errors.As(asError(recover()), &err) {
					t.Fatalf("%s: did not panic with a *RowListError", c.name)
				}
				if *err != c.want {
					t.Fatalf("%s: panicked with %+v, want %+v", c.name, *err, c.want)
				}
			}()
			c.run()
		}()
	}
}

// asError returns a recovered panic value that is an error, else nil.
func asError(v any) error {
	err, _ := v.(error)
	return err
}

// TestRowOpsAccumulateGradients pins that both row-list ops add their
// output gradient into their input's, never copy it: an input gradient
// that already holds a value keeps it under the sum, and a −0 upstream
// gradient leaves a fresh (+0) accumulator at +0, which is what makes
// dropping a ±0 term exact (DESIGN §5x).
func TestRowOpsAccumulateGradients(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, op := range []string{"GatherRows", "KeepRows"} {
		for _, preset := range []bool{false, true} {
			tp := NewTape()
			a := tp.Param(tensor.New(3, 2))
			if preset {
				a.Grad = tensor.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
			}
			var out *Var
			if op == "GatherRows" {
				out = tp.GatherRows([]*Var{a, a}, []int{0, 2})
			} else {
				out = tp.KeepRows(a, []int{0, 2})
			}
			// The root does not read out; out's gradient is set by hand,
			// so Backward replays its record against exactly that.
			root := tp.SumAll(tp.Scale(tp.Param(tensor.New(1, 1)), 1))
			out.Grad = tensor.FromRows([][]float64{{negZero, 2}, {negZero, negZero}})
			tp.Backward(root)

			base := 0.0
			if preset {
				base = 1
			}
			want := [][]float64{{base, base + 2}, {base, base}, {base, base}}
			for i, row := range want {
				for j, w := range row {
					if g := a.Grad.At(i, j); g != w || math.Signbit(g) {
						t.Fatalf("%s preset=%v: grad[%d][%d] = %v (signbit %v), want +%v", op, preset, i, j, g, math.Signbit(g), w)
					}
				}
			}
		}
	}
}

// TestWarmRaggedTapeAllocatesNothing replays a ragged recurrence-shaped
// graph — states shrunk by KeepRows, one sequence's rows gathered across
// steps, row lists loaned by NewInts and the step states by NewVars — on a
// reused tape: once warm, a pass allocates no matrix and no heap object at
// all, and Reset leaves no Var of the pass in the loans.
func TestWarmRaggedTapeAllocatesNothing(t *testing.T) {
	ps := randParams(37, [2]int{4, 3}, [2]int{3, 3})
	tp := NewTape()
	x, w := tp.Param(ps[0]), tp.Param(ps[1])
	run := func() {
		tp.Reset()
		hs := tp.NewVars(3)
		h := x
		for s := range hs {
			keep := tp.NewInts(h.Value.Rows - 1)
			for i := range keep {
				keep[i] = i + 1 // drop the first running row at every step
			}
			if s > 0 {
				h = tp.KeepRows(h, keep)
			}
			h = tp.AddRowApply(tp.MatMul(h, w), tp.RowAt(x, 0), ActTanh)
			hs[s] = h
		}
		rows := tp.NewInts(len(hs))
		for s := range rows {
			rows[s] = hs[s].Value.Rows - 1 // the last sequence runs every step
		}
		tp.Backward(tp.SumAll(tp.GatherRows(hs, rows)))
	}
	run()
	before := tensor.Allocs()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a warm ragged pass made %v heap allocations, want 0", n)
	}
	if d := tensor.Allocs() - before; d != 0 {
		t.Fatalf("warm ragged passes allocated %d matrices, want 0", d)
	}
	tp.Reset()
	for i, v := range tp.ptrs[:cap(tp.ptrs)] {
		if v != nil {
			t.Fatalf("after Reset, NewVars loan slot %d still holds a Var", i)
		}
	}
}

// TestGradAddRowsAt checks the stacked-window add against numeric
// gradients, including gradient flow into both the window'd matrix and
// the addend.
func TestGradAddRowsAt(t *testing.T) {
	ps := randParams(33, [2]int{6, 3}, [2]int{2, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		a := tp.AddRowsAt(vs[0], 0, vs[1])
		b := tp.AddRowsAt(vs[0], 4, vs[1]) // overlapping use of the same big matrix
		return tp.MeanAll(tp.Add(a, b))
	})
}

// TestAddRowsAtMatchesSliceAdd pins AddRowsAt values to the explicit
// row-window formulation.
func TestAddRowsAtMatchesSliceAdd(t *testing.T) {
	ps := randParams(34, [2]int{5, 4}, [2]int{2, 4})
	tp := NewTape()
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
		checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
			return tp.MeanAll(tp.Im2ColRows(vs[0], width))
		})
	}
}

// TestIm2ColRowsValues pins the window layout: row p is the width-row
// neighborhood of input row p, zero-padded at the boundaries.
func TestIm2ColRowsValues(t *testing.T) {
	tp := NewTape()
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
	tpA, tpB := NewTape(), NewTape()
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
