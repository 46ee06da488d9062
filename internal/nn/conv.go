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
type Conv1D[T tensor.Float] struct {
	In, Filters, Width int
	W                  *Param[T] // (Width·In)×Filters
	B                  *Param[T] // 1×Filters
	Act                Activation
}

// NewConv1D returns a Conv1D layer with an odd kernel width (so "same"
// padding is symmetric) and Xavier-initialized weights.
func NewConv1D[T tensor.Float](name string, in, filters, width int, act Activation, rng *rand.Rand) *Conv1D[T] {
	if width%2 == 0 {
		panic("nn: Conv1D kernel width must be odd")
	}
	return &Conv1D[T]{
		In:      in,
		Filters: filters,
		Width:   width,
		W:       NewParam(name+".W", Xavier[T](width*in, filters, rng)),
		B:       NewParam(name+".b", tensor.NewMat[T](1, filters)),
		Act:     act,
	}
}

// Forward convolves the L×in input and returns L×filters. The receptive
// field of each output row is the Width rows centred on it, with zero
// padding at the sequence boundaries. The window gather is a single
// Im2ColRows op — one record and one matrix for the whole lowering, where
// the per-position RowAt/ConcatCols chain recorded O(L·Width) of each.
func (c *Conv1D[T]) Forward(tp *autodiff.Tape[T], x *autodiff.Var[T]) *autodiff.Var[T] {
	cols := tp.Im2ColRows(x, c.Width)
	return biasAct(tp, tp.MatMul(cols, c.W.Var), c.B, c.Act)
}

// Params returns the layer's trainable parameters.
func (c *Conv1D[T]) Params() []*Param[T] { return []*Param[T]{c.W, c.B} }

// ShareWeights returns a replica that reads the same weight matrices but
// accumulates gradients into its own buffers (see Param.Shadow).
func (c *Conv1D[T]) ShareWeights() *Conv1D[T] {
	return &Conv1D[T]{In: c.In, Filters: c.Filters, Width: c.Width, W: c.W.Shadow(), B: c.B.Shadow(), Act: c.Act}
}
