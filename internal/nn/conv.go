package nn

import (
	"math/rand"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// Conv1D is a one-dimensional convolution over a sequence of feature rows.
// It backs the RAAC ablation (Sec. V-B), where the paper replaces RAAL's
// LSTM plan-feature layer with a CNN.
//
// Input is an L×in matrix (one row per plan node); output is L×filters with
// "same" zero padding, so downstream attention layers see one row per node
// regardless of which plan-feature layer produced it.
type Conv1D struct {
	In, Filters, Width int
	W                  *Param // (Width·In)×Filters
	B                  *Param // 1×Filters
	Act                Activation
}

// NewConv1D returns a Conv1D layer with an odd kernel width (so "same"
// padding is symmetric) and Xavier-initialized weights.
func NewConv1D(name string, in, filters, width int, act Activation, rng *rand.Rand) *Conv1D {
	if width%2 == 0 {
		panic("nn: Conv1D kernel width must be odd")
	}
	return &Conv1D{
		In:      in,
		Filters: filters,
		Width:   width,
		W:       NewParam(name+".W", Xavier(width*in, filters, rng)),
		B:       NewParam(name+".b", tensor.New(1, filters)),
		Act:     act,
	}
}

// Forward convolves the L×in input and returns L×filters. The receptive
// field of each output row is the Width rows centred on it, with zero
// padding at the sequence boundaries. The window gather is a single
// Im2ColRows op — one record and one matrix for the whole lowering, where
// the per-position RowAt/ConcatCols chain recorded O(L·Width) of each.
func (c *Conv1D) Forward(tp *autodiff.Tape, x *autodiff.Var) *autodiff.Var {
	cols := tp.Im2ColRows(x, c.Width)
	return biasAct(tp, tp.MatMul(cols, c.W.Var), c.B, c.Act)
}

// Params returns the layer's trainable parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// ShareWeights returns a replica that reads the same weight matrices but
// accumulates gradients into its own buffers (see Param.Shadow).
func (c *Conv1D) ShareWeights() *Conv1D {
	return &Conv1D{In: c.In, Filters: c.Filters, Width: c.Width, W: c.W.Shadow(), B: c.B.Shadow(), Act: c.Act}
}
