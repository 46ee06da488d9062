package autodiff

import (
	"testing"

	"raal/internal/tensor"
)

func TestGradSliceCols(t *testing.T) {
	ps := randParams(31, [2]int{3, 6})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		left := tp.SliceCols(vs[0], 0, 2)
		right := tp.SliceCols(vs[0], 4, 6)
		return tp.SumAll(tp.Mul(left, right))
	})
}

func TestSliceColsValues(t *testing.T) {
	tp := NewTape()
	a := tp.Const(tensor.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}))
	s := tp.SliceCols(a, 1, 3)
	want := tensor.FromRows([][]float64{{2, 3}, {5, 6}})
	if !tensor.AllClose(s.Value, want, 0) {
		t.Fatalf("SliceCols = %v", s.Value)
	}
}

func TestSliceColsBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.SliceCols(tp.Const(tensor.New(2, 3)), 1, 5)
}

func TestGradScaleComposite(t *testing.T) {
	ps := randParams(32, [2]int{2, 2})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		// -2·tanh(x) + 0.5·x, exercising Scale on both branches.
		return tp.MeanAll(tp.Add(tp.Scale(tp.Tanh(vs[0]), -2), tp.Scale(vs[0], 0.5)))
	})
}

func TestRowAtBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.RowAt(tp.Const(tensor.New(2, 3)), 5)
}

func TestMeanRowsMaskedLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.MeanRowsMasked(tp.Const(tensor.New(3, 2)), []bool{true})
}

func TestMSEShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.MSE(tp.Const(tensor.New(2, 1)), tensor.New(3, 1))
}

func TestDropoutNilMaskIsIdentity(t *testing.T) {
	tp := NewTape()
	v := tp.Const(tensor.FromRows([][]float64{{1, 2}}))
	if tp.Dropout(v, 0.5, nil) != v {
		t.Fatal("nil-mask dropout should return the input var")
	}
}
