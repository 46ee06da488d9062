package nn

import (
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// TestLSTMForwardStackedMatchesForward pins the stacked recurrence to the
// per-step chain oracle, bit for bit: the stacked input projection
// computes the same dot products, each step's addition pairs the same
// operands, and the fused cell rounds where the chain does.
func TestLSTMForwardStackedMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l := NewLSTM("lstm", 5, 4, rng)
	const steps, batch = 6, 3

	tpA := autodiff.NewTape()
	xs := make([]*autodiff.Var, steps)
	stacked := tensor.Randn(steps*batch, 5, 0.8, rng)
	for s := 0; s < steps; s++ {
		xs[s] = tpA.Const(stacked.SliceRows(s*batch, (s+1)*batch))
	}
	hsA := chainForward(l, tpA, xs)

	tpB := autodiff.NewTape()
	hsB := l.ForwardStacked(tpB, tpB.Const(stacked), dense(batch, steps))

	if len(hsA) != steps || len(hsB) != steps {
		t.Fatalf("got %d/%d hidden states, want %d", len(hsA), len(hsB), steps)
	}
	for s := range hsA {
		a, b := hsA[s].Value, hsB[s].Value
		if !a.SameShape(b) {
			t.Fatalf("step %d: shape %dx%d vs %dx%d", s, a.Rows, a.Cols, b.Rows, b.Cols)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("step %d element %d: %v != %v (must be bit-identical)", s, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// TestLSTMForwardStackedGradients checks the stacked path end to end
// against numeric gradients, covering AddRowsAt's window accumulation
// into the shared input projection.
func TestLSTMForwardStackedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewLSTM("lstm", 3, 2, rng)
	const steps, batch = 3, 2
	x := tensor.Randn(steps*batch, 3, 0.8, rng)

	tp := autodiff.NewTape()
	hs := l.ForwardStacked(tp, tp.Const(x), dense(batch, steps))
	loss := tp.MeanAll(tp.ConcatRows(hs...))
	tp.Backward(loss)

	lossAt := func() float64 {
		tp2 := autodiff.NewTape()
		l2 := l.ShareWeights() // fresh grad buffers, same weights
		hs2 := l2.ForwardStacked(tp2, tp2.Const(x), dense(batch, steps))
		return tp2.MeanAll(tp2.ConcatRows(hs2...)).Value.Data[0]
	}
	const eps = 1e-6
	for _, p := range l.Params() {
		want := tensor.New(p.Var.Value.Rows, p.Var.Value.Cols)
		for i := range p.Var.Value.Data {
			orig := p.Var.Value.Data[i]
			p.Var.Value.Data[i] = orig + eps
			up := lossAt()
			p.Var.Value.Data[i] = orig - eps
			down := lossAt()
			p.Var.Value.Data[i] = orig
			want.Data[i] = (up - down) / (2 * eps)
		}
		if p.Var.Grad == nil {
			t.Fatalf("param %s has nil grad", p.Name)
		}
		if !tensor.AllClose(p.Var.Grad, want, 1e-4) {
			t.Fatalf("param %s gradient mismatch:\n got %v\nwant %v", p.Name, p.Var.Grad, want)
		}
	}
}

// TestLSTMForwardStackedEmpty mirrors the empty-sequence contract of
// Forward.
func TestLSTMForwardStackedEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := NewLSTM("lstm", 3, 2, rng)
	tp := autodiff.NewTape()
	if hs := l.ForwardStacked(tp, tp.Const(tensor.New(0, 3)), nil); hs != nil {
		t.Fatalf("ForwardStacked over 0 steps = %v, want nil", hs)
	}
}

// TestLSTMForwardStackedFusedMatchesRecorded holds the fused cell on both
// tapes to the chain oracle: over random widths,
// batch sizes and sequence lengths, every hidden state of a recording and
// of a forward-only tape must equal the recorded chain's bit for bit.
func TestLSTMForwardStackedFusedMatchesRecorded(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 40; trial++ {
			in, hidden := 1+rng.Intn(9), 1+rng.Intn(12)
			steps, batch := 1+rng.Intn(7), 1+rng.Intn(6)
			l := NewLSTM("lstm", in, hidden, rng)
			copy(l.B.Value().Data, tensor.Randn(1, 4*hidden, 1, rng).Data) // biases are zero/one at init
			x := tensor.Randn(steps*batch, in, 2, rng)

			oracle := autodiff.NewTape()
			want := chainForwardStacked(l, oracle, oracle.Const(x), steps)
			rec := autodiff.NewTape()
			fwd := autodiff.NewInferenceTape()
			for _, tp := range []*autodiff.Tape{rec, fwd} {
				got := l.ForwardStacked(tp, tp.Const(x), dense(batch, steps))
				for s := range want {
					for i, w := range want[s].Value.Data {
						if g := got[s].Value.Data[i]; g != w {
							t.Fatalf("trial %d (in=%d h=%d steps=%d batch=%d, forward-only %v) step %d element %d: fused %v != chain %v",
								trial, in, hidden, steps, batch, tp.ForwardOnly(), s, i, g, w)
						}
					}
				}
			}
			if rec.Len() == 0 || fwd.Len() != 0 {
				t.Fatalf("tape modes: recording tape has %d records, forward-only %d", rec.Len(), fwd.Len())
			}
		}
	})
}
