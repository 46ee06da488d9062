package nn

import (
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// BenchmarkBackwardLSTM times Tape.Backward alone over one recorded ragged
// ForwardStacked pass at the default model's shapes: 60 input columns
// (16 word2vec + 42 structure + 2 stats), Hidden 48, a batch of 16 plans
// of 1 to 8 nodes, and a loss that reads every hidden state, as the node
// attention does. Recording the pass and clearing the weight gradients run
// with the timer stopped.
func BenchmarkBackwardLSTM(b *testing.B) {
	const in, hidden, batch = 60, 48, 16
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM("lstm", in, hidden, rng)
	lens := make([]int, batch)
	rows := 0
	for k := range lens {
		lens[k] = 1 + (5*k+3)%8
		rows += lens[k]
	}
	x := tensor.Randn(rows, in, 1, rng)
	tp := autodiff.NewTape()
	record := func() *autodiff.Var {
		tp.Reset()
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
		return tp.SumAll(tp.ConcatRows(l.ForwardStacked(tp, tp.Const(x), lens)...))
	}
	tp.Backward(record())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := record()
		b.StartTimer()
		tp.Backward(root)
	}
}
