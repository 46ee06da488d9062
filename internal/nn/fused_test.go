package nn

import (
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

func mustBitEqual(t *testing.T, got, want *tensor.Matrix, what string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (got=%v want=%v)", what, got, want)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDenseFusedMatchesUnfused pins the fused bias+activation forward and
// backward of Dense against the pre-fusion formulation
// act(AddRow(x·W, b)) built from primitive ops: values and gradients must
// be bit-identical for every fused activation.
func TestDenseFusedMatchesUnfused(t *testing.T) {
	for _, act := range []Activation{Linear, ReLU, Tanh, Sigmoid} {
		rng := rand.New(rand.NewSource(7))
		d := NewDense[float64]("d", 5, 3, act, rng)
		x := tensor.Randn(4, 5, 1, rng)

		tp := autodiff.NewTape[float64]()
		out := d.Forward(tp, tp.Const(x))
		tp.Backward(tp.MeanAll(tp.Mul(out, out)))

		ut := autodiff.NewTape[float64]()
		w, b := ut.Param(d.W.Var.Value), ut.Param(d.B.Var.Value)
		pre := ut.AddRow(ut.MatMul(ut.Const(x), w), b)
		ref := applyActivation(ut, pre, act)
		ut.Backward(ut.MeanAll(ut.Mul(ref, ref)))

		mustBitEqual(t, out.Value, ref.Value, act.String()+" value")
		mustBitEqual(t, d.W.Var.Grad, w.Grad, act.String()+" W grad")
		mustBitEqual(t, d.B.Var.Grad, b.Grad, act.String()+" b grad")
	}
}

// TestLSTMStepFusedMatchesUnfused pins the fused LSTM step (slice the
// pre-activation, then fused bias+activation per gate) against the
// pre-fusion graph (add the packed bias to the whole pre-activation, then
// slice and activate): hidden state, cell state, and all three weight
// gradients must be bit-identical.
func TestLSTMStepFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const in, hidden, batch = 5, 4, 3
	l := NewLSTM[float64]("l", in, hidden, rng)
	x := tensor.Randn(batch, in, 1, rng)

	tp := autodiff.NewTape[float64]()
	s := l.Step(tp, tp.Const(x), l.ZeroState(tp, batch))
	loss := tp.MeanAll(tp.Add(tp.Mul(s.H, s.H), tp.Mul(s.C, s.C)))
	tp.Backward(loss)

	ut := autodiff.NewTape[float64]()
	wx, wh, b := ut.Param(l.Wx.Var.Value), ut.Param(l.Wh.Var.Value), ut.Param(l.B.Var.Value)
	h0 := ut.Const(ut.NewMatrix(batch, hidden))
	c0 := ut.Const(ut.NewMatrix(batch, hidden))
	z := ut.AddRow(ut.Add(ut.MatMul(ut.Const(x), wx), ut.MatMul(h0, wh)), b)
	i := ut.Sigmoid(ut.SliceCols(z, 0, hidden))
	f := ut.Sigmoid(ut.SliceCols(z, hidden, 2*hidden))
	g := ut.Tanh(ut.SliceCols(z, 2*hidden, 3*hidden))
	o := ut.Sigmoid(ut.SliceCols(z, 3*hidden, 4*hidden))
	c := ut.Add(ut.Mul(f, c0), ut.Mul(i, g))
	h := ut.Mul(o, ut.Tanh(c))
	uloss := ut.MeanAll(ut.Add(ut.Mul(h, h), ut.Mul(c, c)))
	ut.Backward(uloss)

	mustBitEqual(t, s.H.Value, h.Value, "hidden state")
	mustBitEqual(t, s.C.Value, c.Value, "cell state")
	mustBitEqual(t, l.Wx.Var.Grad, wx.Grad, "Wx grad")
	mustBitEqual(t, l.Wh.Var.Grad, wh.Grad, "Wh grad")
	mustBitEqual(t, l.B.Var.Grad, b.Grad, "B grad")
}

// TestLSTMForwardReusedTapeBitIdentical runs a full sequence on a reused
// (Reset) tape and on fresh tapes: the recurrence must be unaffected by
// arena recycling.
func TestLSTMForwardReusedTapeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLSTM[float64]("l", 4, 6, rng)
	seq := make([]*tensor.Matrix, 5)
	for i := range seq {
		seq[i] = tensor.Randn(2, 4, 1, rng)
	}

	tp := autodiff.NewTape[float64]()
	var warm []*tensor.Matrix
	for pass := 0; pass < 3; pass++ {
		tp.Reset()
		xs := make([]*autodiff.Var[float64], len(seq))
		for i, m := range seq {
			xs[i] = tp.Const(m)
		}
		hs := l.Forward(tp, xs)

		fresh := autodiff.NewTape[float64]()
		fxs := make([]*autodiff.Var[float64], len(seq))
		for i, m := range seq {
			fxs[i] = fresh.Const(m)
		}
		fhs := l.Forward(fresh, fxs)

		for i := range hs {
			mustBitEqual(t, hs[i].Value, fhs[i].Value, "hidden step")
			if pass > 0 {
				mustBitEqual(t, hs[i].Value, warm[i], "hidden step across Reset")
			}
		}
		warm = warm[:0]
		for i := range hs {
			warm = append(warm, hs[i].Value.Clone())
		}
	}
}
