package nn

import (
	"math"
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

func TestConv1DWidth5Gradient(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := NewConv1D("c5", 2, 2, 5, Linear, rng)
	x := tensor.Randn(6, 2, 1, rng)
	target := tensor.Randn(6, 2, 1, rng)
	gradCheckModel(t, c.Params(), func(tp *autodiff.Tape) *autodiff.Var {
		return tp.MSE(c.Forward(tp, tp.Const(x)), target)
	})
}

func TestConv1DSequenceShorterThanKernel(t *testing.T) {
	// A 2-row input under a width-5 kernel: every window is mostly
	// padding, but shapes and values must stay well-defined.
	rng := rand.New(rand.NewSource(22))
	c := NewConv1D("c", 3, 2, 5, Tanh, rng)
	x := tensor.Randn(2, 3, 1, rng)
	tp := autodiff.NewTape()
	out := c.Forward(tp, tp.Const(x))
	if out.Value.Rows != 2 || out.Value.Cols != 2 {
		t.Fatalf("shape %dx%d", out.Value.Rows, out.Value.Cols)
	}
	for _, v := range out.Value.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN output")
		}
	}
}

func TestConv1DTranslationOfIdentityKernel(t *testing.T) {
	// A kernel that only weighs the centre slot reproduces a linear map
	// of each row independently.
	c := &Conv1D{In: 2, Filters: 2, Width: 3, Act: Linear}
	w := tensor.New(6, 2) // width*in × filters
	// centre slot occupies rows [2,4): identity map
	w.Set(2, 0, 1)
	w.Set(3, 1, 1)
	c.W = NewParam("w", w)
	c.B = NewParam("b", tensor.New(1, 2))

	x := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tp := autodiff.NewTape()
	out := c.Forward(tp, tp.Const(x))
	if !tensor.AllClose(out.Value, x, 1e-12) {
		t.Fatalf("identity-centre conv should reproduce input:\n%v", out.Value)
	}
}

func TestMLPPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP("m", []int{4}, Tanh, rand.New(rand.NewSource(1)))
}

func TestLSTMZeroStateShapes(t *testing.T) {
	l := NewLSTM("l", 3, 5, rand.New(rand.NewSource(23)))
	tp := autodiff.NewTape()
	s := l.ZeroState(tp, 7)
	if s.H.Value.Rows != 7 || s.H.Value.Cols != 5 || s.C.Value.Rows != 7 {
		t.Fatalf("zero state shapes: %v %v", s.H.Value, s.C.Value)
	}
	if s.H.Value.Sum() != 0 || s.C.Value.Sum() != 0 {
		t.Fatal("zero state not zero")
	}
}

// TestLSTMForwardEmptySequence is TestLSTMForwardStackedEmpty on a
// forward-only tape: no hidden states and nothing recorded.
func TestLSTMForwardEmptySequence(t *testing.T) {
	l := NewLSTM("l", 2, 3, rand.New(rand.NewSource(24)))
	tp := autodiff.NewInferenceTape()
	if hs := l.ForwardStacked(tp, tp.Const(tensor.New(0, 2)), nil); hs != nil || tp.Len() != 0 {
		t.Fatalf("empty sequence yielded %v with %d records, want nil and none", hs, tp.Len())
	}
}

func TestUnknownActivationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := autodiff.NewTape()
	applyActivation(tp, tp.Const(tensor.New(1, 1)), Activation(99))
}
