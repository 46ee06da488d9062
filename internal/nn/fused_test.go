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
		d := NewDense("d", 5, 3, act, rng)
		x := tensor.Randn(4, 5, 1, rng)

		tp := autodiff.NewTape()
		out := d.Forward(tp, tp.Const(x))
		tp.Backward(tp.MeanAll(tp.Mul(out, out)))

		ut := autodiff.NewTape()
		w, b := ut.Param(d.W.Var.Value), ut.Param(d.B.Var.Value)
		pre := ut.AddRow(ut.MatMul(ut.Const(x), w), b)
		ref := applyActivation(ut, pre, act)
		ut.Backward(ut.MeanAll(ut.Mul(ref, ref)))

		mustBitEqual(t, out.Value, ref.Value, act.String()+" value")
		mustBitEqual(t, d.W.Var.Grad, w.Grad, act.String()+" W grad")
		mustBitEqual(t, d.B.Var.Grad, b.Grad, act.String()+" b grad")
	}
}

// TestLSTMStepFusedMatchesUnfused pins two ForwardStacked steps — the
// fused cell, recorded — against the pre-fusion graph (add the packed
// bias to the whole pre-activation, then slice and activate, then the
// elementwise cell update): both hidden states and all three weight
// gradients must be bit-identical. The second step carries the first
// cell state's value and gradient.
func TestLSTMStepFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const in, hidden, batch, steps = 5, 4, 3, 2
	l := NewLSTM("l", in, hidden, rng)
	x := tensor.Randn(steps*batch, in, 1, rng)
	loss := func(tp *autodiff.Tape, hs []*autodiff.Var) *autodiff.Var {
		return tp.MeanAll(tp.Add(tp.Mul(hs[0], hs[0]), tp.Mul(hs[1], hs[1])))
	}

	tp := autodiff.NewTape()
	hs := l.ForwardStacked(tp, tp.Const(x), dense(batch, steps))
	tp.Backward(loss(tp, hs))

	ut := autodiff.NewTape()
	wx, wh, b := ut.Param(l.Wx.Var.Value), ut.Param(l.Wh.Var.Value), ut.Param(l.B.Var.Value)
	zx := ut.MatMul(ut.Const(x), wx)
	h := ut.Const(ut.NewMatrix(batch, hidden))
	c := ut.Const(ut.NewMatrix(batch, hidden))
	uhs := make([]*autodiff.Var, steps)
	for s := range uhs {
		z := ut.AddRow(ut.AddRowsAt(zx, s*batch, ut.MatMul(h, wh)), b)
		i := ut.Sigmoid(ut.SliceCols(z, 0, hidden))
		f := ut.Sigmoid(ut.SliceCols(z, hidden, 2*hidden))
		g := ut.Tanh(ut.SliceCols(z, 2*hidden, 3*hidden))
		o := ut.Sigmoid(ut.SliceCols(z, 3*hidden, 4*hidden))
		c = ut.Add(ut.Mul(f, c), ut.Mul(i, g))
		h = ut.Mul(o, ut.Tanh(c))
		uhs[s] = h
	}
	ut.Backward(loss(ut, uhs))

	for s := range hs {
		mustBitEqual(t, hs[s].Value, uhs[s].Value, "hidden state")
	}
	mustBitEqual(t, l.Wx.Var.Grad, wx.Grad, "Wx grad")
	mustBitEqual(t, l.Wh.Var.Grad, wh.Grad, "Wh grad")
	mustBitEqual(t, l.B.Var.Grad, b.Grad, "B grad")
}

// TestLSTMForwardReusedTapeBitIdentical runs a full sequence on a reused
// (Reset) tape and on fresh tapes: the recurrence must be unaffected by
// arena recycling.
func TestLSTMForwardReusedTapeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLSTM("l", 4, 6, rng)
	const steps = 5
	seq := tensor.Randn(steps*2, 4, 1, rng)

	tp := autodiff.NewTape()
	var warm []*tensor.Matrix
	for pass := 0; pass < 3; pass++ {
		tp.Reset()
		hs := l.ForwardStacked(tp, tp.Const(seq), dense(2, steps))
		fresh := autodiff.NewTape()
		fhs := l.ForwardStacked(fresh, fresh.Const(seq), dense(2, steps))

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
