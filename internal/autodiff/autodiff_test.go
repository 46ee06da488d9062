package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"raal/internal/tensor"
)

// numericalGrad computes d(loss)/d(param) by central differences, where
// loss re-runs the full forward pass.
func numericalGrad(param *tensor.Matrix, loss func() float64) *tensor.Matrix {
	const eps = 1e-6
	g := tensor.New(param.Rows, param.Cols)
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + eps
		up := loss()
		param.Data[i] = orig - eps
		down := loss()
		param.Data[i] = orig
		g.Data[i] = (up - down) / (2 * eps)
	}
	return g
}

// checkGrad runs forward once with a fresh tape, backpropagates, and
// compares every parameter's analytic gradient with the numeric one.
func checkGrad(t *testing.T, params []*tensor.Matrix, forward func(tp *Tape, ps []*Var) *Var) {
	t.Helper()
	tp := NewTape()
	vars := make([]*Var, len(params))
	for i, p := range params {
		vars[i] = tp.Param(p)
	}
	loss := forward(tp, vars)
	tp.Backward(loss)

	lossAt := func() float64 {
		tp2 := NewTape()
		vs := make([]*Var, len(params))
		for i, p := range params {
			vs[i] = tp2.Param(p)
		}
		return forward(tp2, vs).Value.Data[0]
	}
	for pi, p := range params {
		want := numericalGrad(p, lossAt)
		got := vars[pi].Grad
		if got == nil {
			got = tensor.New(p.Rows, p.Cols)
		}
		if !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("param %d gradient mismatch:\n got %v\nwant %v", pi, got, want)
		}
	}
}

func randParams(seed int64, shapes ...[2]int) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Matrix, len(shapes))
	for i, s := range shapes {
		out[i] = tensor.Randn(s[0], s[1], 0.7, rng)
	}
	return out
}

func TestGradMatMulChain(t *testing.T) {
	ps := randParams(1, [2]int{3, 4}, [2]int{4, 2})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MeanAll(tp.MatMul(vs[0], vs[1]))
	})
}

func TestGradAddSubMulScale(t *testing.T) {
	ps := randParams(2, [2]int{2, 3}, [2]int{2, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		sum := tp.Add(vs[0], vs[1])
		diff := tp.Sub(vs[0], vs[1])
		prod := tp.Mul(sum, diff) // (a+b)(a−b)
		return tp.SumAll(tp.Scale(prod, 0.5))
	})
}

func TestGradActivations(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, v *Var) *Var
	}{
		{"sigmoid", func(tp *Tape, v *Var) *Var { return tp.Sigmoid(v) }},
		{"tanh", func(tp *Tape, v *Var) *Var { return tp.Tanh(v) }},
		{"relu", func(tp *Tape, v *Var) *Var { return tp.ReLU(v) }},
		{"leakyrelu", func(tp *Tape, v *Var) *Var { return tp.LeakyReLU(v, 0.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := randParams(3, [2]int{2, 4})
			checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
				return tp.MeanAll(tc.f(tp, vs[0]))
			})
		})
	}
}

func TestGradAddRow(t *testing.T) {
	ps := randParams(4, [2]int{3, 4}, [2]int{1, 4})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MeanAll(tp.Tanh(tp.AddRow(vs[0], vs[1])))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	ps := randParams(5, [2]int{3, 5})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		sm := tp.SoftmaxRows(vs[0], nil)
		// weight the probabilities so the gradient isn't trivially zero
		w := tensor.New(3, 5)
		for i := range w.Data {
			w.Data[i] = float64(i%4) - 1.5
		}
		return tp.SumAll(tp.Mul(sm, tp.Const(w)))
	})
}

func TestGradSoftmaxMasked(t *testing.T) {
	mask := []bool{true, false, true, true, false}
	ps := randParams(6, [2]int{2, 5})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		sm := tp.SoftmaxRows(vs[0], mask)
		w := tensor.New(2, 5)
		for i := range w.Data {
			w.Data[i] = math.Sin(float64(i))
		}
		return tp.SumAll(tp.Mul(sm, tp.Const(w)))
	})
}

func TestSoftmaxMaskedColumnsZero(t *testing.T) {
	tp := NewTape()
	x := tp.Const(tensor.FromRows([][]float64{{5, 100, 1}}))
	sm := tp.SoftmaxRows(x, []bool{true, false, true})
	if sm.Value.At(0, 1) != 0 {
		t.Fatalf("masked column got probability %v", sm.Value.At(0, 1))
	}
	sum := sm.Value.Sum()
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSoftmaxFullyMaskedRowIsZero(t *testing.T) {
	tp := NewTape()
	x := tp.Const(tensor.FromRows([][]float64{{5, 3}}))
	sm := tp.SoftmaxRows(x, []bool{false, false})
	if sm.Value.Sum() != 0 {
		t.Fatalf("fully masked row should be zero, got %v", sm.Value)
	}
}

func TestGradSoftmaxMask2D(t *testing.T) {
	mask := [][]bool{
		{false, true, true, false},
		{true, false, false, true},
		{false, false, false, false}, // fully masked row
	}
	ps := randParams(21, [2]int{3, 4})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		sm := tp.SoftmaxRowsMask2D(vs[0], mask)
		w := tensor.New(3, 4)
		for i := range w.Data {
			w.Data[i] = math.Cos(float64(i))
		}
		return tp.SumAll(tp.Mul(sm, tp.Const(w)))
	})
}

func TestSoftmaxMask2DRowsSumToOne(t *testing.T) {
	tp := NewTape()
	x := tp.Const(tensor.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}))
	sm := tp.SoftmaxRowsMask2D(x, [][]bool{{true, true, false}, {false, false, false}})
	row0 := sm.Value.Row(0)
	if math.Abs(row0[0]+row0[1]-1) > 1e-12 || row0[2] != 0 {
		t.Fatalf("row 0 = %v", row0)
	}
	for _, v := range sm.Value.Row(1) {
		if v != 0 {
			t.Fatalf("fully masked row should be zero: %v", sm.Value.Row(1))
		}
	}
}

func TestGradConcatCols(t *testing.T) {
	ps := randParams(7, [2]int{2, 3}, [2]int{2, 2})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MeanAll(tp.Tanh(tp.ConcatCols(vs[0], vs[1])))
	})
}

func TestGradConcatRows(t *testing.T) {
	ps := randParams(8, [2]int{2, 3}, [2]int{1, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MeanAll(tp.Sigmoid(tp.ConcatRows(vs[0], vs[1])))
	})
}

func TestGradRowAt(t *testing.T) {
	ps := randParams(9, [2]int{4, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		r1 := tp.RowAt(vs[0], 1)
		r3 := tp.RowAt(vs[0], 3)
		return tp.SumAll(tp.Mul(r1, r3))
	})
}

func TestGradTranspose(t *testing.T) {
	ps := randParams(10, [2]int{3, 4})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MeanAll(tp.MatMul(vs[0], tp.Transpose(vs[0])))
	})
}

func TestGradMeanRowsMasked(t *testing.T) {
	mask := []bool{true, false, true, true}
	ps := randParams(11, [2]int{4, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.SumAll(tp.MeanRowsMasked(vs[0], mask))
	})
}

func TestGradMSE(t *testing.T) {
	target := tensor.FromRows([][]float64{{1, -1}, {0.5, 2}})
	ps := randParams(12, [2]int{2, 2})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MSE(tp.Tanh(vs[0]), target)
	})
}

func TestGradDropout(t *testing.T) {
	keep := []bool{true, false, true, true, false, true}
	ps := randParams(13, [2]int{2, 3})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		return tp.MeanAll(tp.Dropout(vs[0], 0.5, keep))
	})
}

func TestGradSharedParameterAccumulates(t *testing.T) {
	// Using the same parameter twice must sum both contributions.
	ps := randParams(14, [2]int{2, 2})
	checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
		a := tp.MatMul(vs[0], vs[0]) // same Var on both sides
		return tp.MeanAll(a)
	})
}

func TestConstHasNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(tensor.FromRows([][]float64{{1, 2}}))
	p := tp.Param(tensor.FromRows([][]float64{{3}, {4}}))
	loss := tp.SumAll(tp.MatMul(c, p))
	tp.Backward(loss)
	if c.Grad != nil {
		t.Fatal("const should not accumulate gradient")
	}
	if p.Grad == nil || p.Grad.At(0, 0) != 1 || p.Grad.At(1, 0) != 2 {
		t.Fatalf("param grad wrong: %v", p.Grad)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	v := tp.Param(tensor.New(2, 2))
	tp.Backward(v)
}

func TestTapeReset(t *testing.T) {
	tp := NewTape()
	p := tp.Param(tensor.FromRows([][]float64{{2}}))
	tp.Backward(tp.SumAll(p))
	if tp.Len() != 1 {
		t.Fatalf("tape len %d", tp.Len())
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("reset did not clear tape")
	}
}

func TestGradAccumulatesAcrossBackwards(t *testing.T) {
	// Two forward/backward passes without zeroing must double the grad.
	p := tensor.FromRows([][]float64{{3}})
	tp := NewTape()
	v := tp.Param(p)
	tp.Backward(tp.SumAll(v))
	tp.Reset()
	tp.Backward(tp.SumAll(v))
	if v.Grad.At(0, 0) != 2 {
		t.Fatalf("grad = %v, want 2", v.Grad.At(0, 0))
	}
}
