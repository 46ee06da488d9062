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
type LSTM struct {
	In, Hidden int
	Wx, Wh, B  *Param
}

// NewLSTM returns an LSTM with Xavier-initialized weights and the
// customary +1 forget-gate bias, which keeps early training stable.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	b := tensor.New(1, 4*hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Data[j] = 1 // forget gate bias
	}
	return &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", Xavier(in, 4*hidden, rng)),
		Wh:     NewParam(name+".Wh", Xavier(hidden, 4*hidden, rng)),
		B:      NewParam(name+".b", b),
	}
}

// State carries the recurrent hidden and cell activations (batch×hidden).
type State struct {
	H, C *autodiff.Var
}

// ZeroState returns an all-zero initial state for the given batch size.
// The state matrices come from the tape's arena, so reused tapes allocate
// nothing here.
func (l *LSTM) ZeroState(tp *autodiff.Tape, batch int) State {
	return State{
		H: tp.Const(tp.NewMatrix(batch, l.Hidden)),
		C: tp.Const(tp.NewMatrix(batch, l.Hidden)),
	}
}

// ForwardStacked runs the recurrence over a ragged batch and returns the
// hidden state after each step. lens[k] is sequence k's length; x stacks,
// step by step, the inputs of the sequences still running at that step
// (lens[k] > t) in batch order — Σ lens rows, no padding. Before a step at
// which sequences have ended, KeepRows drops them from the hidden and cell
// state, so hs[t] has one row per sequence running step t, in batch order.
// hs is on loan from the tape (NewVars), valid until its next Reset.
// Rows never mix, so each is computed exactly as a padded recurrence
// computes it; a uniform lens is the dense one.
//
// The input projection for every timestep is computed as a single stacked
// matmul X·Wx up front — one large kernel call instead of one per step —
// and each step adds its row window to the recurrent term via AddRowsAt;
// the matmul kernels are bit-stable across batch dimensions, so each
// element is the same dot product a per-step projection computes.
//
// Each step's gate and cell update is the one fused LSTMCell op, on every
// tape: a recording tape records it with its own backward pass. The packed
// bias enters through one full-width view per sequence, so its gradient
// sums a sequence's steps before B's gradient takes the total.
func (l *LSTM) ForwardStacked(tp *autodiff.Tape, x *autodiff.Var, lens []int) []*autodiff.Var {
	steps := 0
	for _, n := range lens {
		steps = max(steps, n)
	}
	if steps == 0 {
		return nil
	}
	zx := tp.MatMul(x, l.Wx.Var)
	b := tp.SliceCols(l.B.Var, 0, 4*l.Hidden)
	s := l.ZeroState(tp, len(lens))
	keep := tp.NewInts(len(lens))
	hs := tp.NewVars(steps)
	off := 0
	for t := 0; t < steps; t++ {
		// The state holds the sequences that ran step t−1 (all of them at
		// t = 0); keep lists, by their row in it, those that run step t.
		keep = keep[:0]
		i := 0
		for _, n := range lens {
			if n >= t {
				if n > t {
					keep = append(keep, i)
				}
				i++
			}
		}
		if len(keep) < s.H.Value.Rows {
			s.H, s.C = tp.KeepRows(s.H, keep), tp.KeepRows(s.C, keep)
		}
		z := tp.AddRowsAt(zx, off, tp.MatMul(s.H, l.Wh.Var))
		off += len(keep)
		s.H, s.C = tp.LSTMCell(z, b, s.C)
		hs[t] = s.H
	}
	return hs
}

// Params returns the LSTM's trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// ShareWeights returns a replica that reads the same weight matrices but
// accumulates gradients into its own buffers (see Param.Shadow).
func (l *LSTM) ShareWeights() *LSTM {
	return &LSTM{In: l.In, Hidden: l.Hidden, Wx: l.Wx.Shadow(), Wh: l.Wh.Shadow(), B: l.B.Shadow()}
}
