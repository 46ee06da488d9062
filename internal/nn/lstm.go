package nn

import (
	"math/rand"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// LSTM is a single-layer Long Short-Term Memory network. It is the plan
// feature layer of the paper's RAAL model (Sec. IV-D, Eqs. 2-7): at each
// step the gates are computed from the current input and the previous
// hidden state, the cell state carries long-range information, and the
// hidden state is the layer's output.
//
// Weights are packed per gate in the order [input, forget, cell, output]:
// Wx is in×4h, Wh is h×4h, and B is 1×4h.
type LSTM[T tensor.Float] struct {
	In, Hidden int
	Wx, Wh, B  *Param[T]
}

// NewLSTM returns an LSTM with Xavier-initialized weights and the
// customary +1 forget-gate bias, which keeps early training stable.
func NewLSTM[T tensor.Float](name string, in, hidden int, rng *rand.Rand) *LSTM[T] {
	b := tensor.NewMat[T](1, 4*hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Data[j] = 1 // forget gate bias
	}
	return &LSTM[T]{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", Xavier[T](in, 4*hidden, rng)),
		Wh:     NewParam(name+".Wh", Xavier[T](hidden, 4*hidden, rng)),
		B:      NewParam(name+".b", b),
	}
}

// State carries the recurrent hidden and cell activations (batch×hidden).
type State[T tensor.Float] struct {
	H, C *autodiff.Var[T]
}

// ZeroState returns an all-zero initial state for the given batch size.
// The state matrices come from the tape's arena, so reused tapes allocate
// nothing here.
func (l *LSTM[T]) ZeroState(tp *autodiff.Tape[T], batch int) State[T] {
	return State[T]{
		H: tp.Const(tp.NewMatrix(batch, l.Hidden)),
		C: tp.Const(tp.NewMatrix(batch, l.Hidden)),
	}
}

// gateBias holds the per-gate views of the packed 1×4h bias, sliced once
// per sequence so every timestep can use the fused bias+activation kernel.
type gateBias[T tensor.Float] struct {
	i, f, g, o *autodiff.Var[T]
}

func (l *LSTM[T]) biasSlices(tp *autodiff.Tape[T]) gateBias[T] {
	h := l.Hidden
	return gateBias[T]{
		i: tp.SliceCols(l.B.Var, 0, h),
		f: tp.SliceCols(l.B.Var, h, 2*h),
		g: tp.SliceCols(l.B.Var, 2*h, 3*h),
		o: tp.SliceCols(l.B.Var, 3*h, 4*h),
	}
}

// Step advances the recurrence one timestep with input x (batch×in).
func (l *LSTM[T]) Step(tp *autodiff.Tape[T], x *autodiff.Var[T], s State[T]) State[T] {
	return l.step(tp, x, s, l.biasSlices(tp))
}

// step is Step with the bias views hoisted out: it forms the packed
// pre-activation z = x·Wx + h·Wh and hands it to gates.
func (l *LSTM[T]) step(tp *autodiff.Tape[T], x *autodiff.Var[T], s State[T], b gateBias[T]) State[T] {
	z := tp.Add(tp.MatMul(x, l.Wx.Var), tp.MatMul(s.H, l.Wh.Var))
	return l.gates(tp, z, s, b)
}

// gates computes each gate as act(slice(z) + b_gate) through the fused
// kernel and advances the cell/hidden state. Slicing the pre-activation
// before adding the bias is bit-identical to the former slice-after-AddRow
// formulation — the same two addends meet in the same single addition —
// while touching each gate's quarter of the matrix once.
func (l *LSTM[T]) gates(tp *autodiff.Tape[T], z *autodiff.Var[T], s State[T], b gateBias[T]) State[T] {
	h := l.Hidden
	i := tp.AddRowApply(tp.SliceCols(z, 0, h), b.i, autodiff.ActSigmoid)
	f := tp.AddRowApply(tp.SliceCols(z, h, 2*h), b.f, autodiff.ActSigmoid)
	g := tp.AddRowApply(tp.SliceCols(z, 2*h, 3*h), b.g, autodiff.ActTanh)
	o := tp.AddRowApply(tp.SliceCols(z, 3*h, 4*h), b.o, autodiff.ActSigmoid)
	c := tp.Add(tp.Mul(f, s.C), tp.Mul(i, g))
	return State[T]{H: tp.Mul(o, tp.Tanh(c)), C: c}
}

// Forward runs the recurrence over a sequence of batch×in inputs and
// returns the hidden state after each step.
func (l *LSTM[T]) Forward(tp *autodiff.Tape[T], xs []*autodiff.Var[T]) []*autodiff.Var[T] {
	if len(xs) == 0 {
		return nil
	}
	b := l.biasSlices(tp)
	s := l.ZeroState(tp, xs[0].Value.Rows)
	hs := make([]*autodiff.Var[T], len(xs))
	for t, x := range xs {
		s = l.step(tp, x, s, b)
		hs[t] = s.H
	}
	return hs
}

// ForwardStacked runs the recurrence over a sequence given as one stacked
// (steps·batch)×in matrix whose row block t·batch..(t+1)·batch is the
// step-t input. The input projection for every timestep is computed as a
// single stacked matmul X·Wx up front — one large kernel call instead of
// `steps` small ones — and each step adds its row window to the recurrent
// term via AddRowsAt. Hidden states are bit-identical to Forward's: each
// element is the same dot product followed by the same single addition,
// and the matmul kernels are bit-stable across batch dimensions.
//
// On a forward-only tape the gate/cell update of each step runs as the
// one fused LSTMCell op in place of the 13-op recorded chain in gates —
// same values bit for bit (pinned at both element types), nothing kept
// for a backward pass that will not come.
func (l *LSTM[T]) ForwardStacked(tp *autodiff.Tape[T], x *autodiff.Var[T], steps int) []*autodiff.Var[T] {
	if steps == 0 {
		return nil
	}
	batch := x.Value.Rows / steps
	zx := tp.MatMul(x, l.Wx.Var)
	s := l.ZeroState(tp, batch)
	hs := make([]*autodiff.Var[T], steps)
	var b gateBias[T]
	if !tp.ForwardOnly() {
		b = l.biasSlices(tp)
	}
	for t := 0; t < steps; t++ {
		z := tp.AddRowsAt(zx, t*batch, tp.MatMul(s.H, l.Wh.Var))
		if tp.ForwardOnly() {
			s.H = tp.LSTMCell(z, l.B.Var, s.C) // advances s.C in place
		} else {
			s = l.gates(tp, z, s, b)
		}
		hs[t] = s.H
	}
	return hs
}

// Params returns the LSTM's trainable parameters.
func (l *LSTM[T]) Params() []*Param[T] { return []*Param[T]{l.Wx, l.Wh, l.B} }

// ShareWeights returns a replica that reads the same weight matrices but
// accumulates gradients into its own buffers (see Param.Shadow).
func (l *LSTM[T]) ShareWeights() *LSTM[T] {
	return &LSTM[T]{In: l.In, Hidden: l.Hidden, Wx: l.Wx.Shadow(), Wh: l.Wh.Shadow(), B: l.B.Shadow()}
}
