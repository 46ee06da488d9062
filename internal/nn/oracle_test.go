package nn

import (
	"math"
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// The LSTM step as the op chain the fused cell replaced: each gate is
// act(slice(z) + b_gate) through AddRowApply over a per-gate view of the
// packed bias, then Mul/Add/Tanh/Mul advance the cell and hidden states.
// Until Tape.LSTMCell had a backward pass, a recording tape ran exactly
// this chain. It is the oracle the fused cell is held to, bit for bit, in
// values and gradients.

// gateBias holds the per-gate views of the packed 1×4h bias, sliced once
// per sequence.
type gateBias struct {
	i, f, g, o *autodiff.Var
}

func chainBias(tp *autodiff.Tape, b *autodiff.Var, h int) gateBias {
	return gateBias{
		i: tp.SliceCols(b, 0, h),
		f: tp.SliceCols(b, h, 2*h),
		g: tp.SliceCols(b, 2*h, 3*h),
		o: tp.SliceCols(b, 3*h, 4*h),
	}
}

// chainGates computes one step from the pre-activation z (batch×4h) and
// the cell state c, returning the new hidden and cell states.
func chainGates(tp *autodiff.Tape, z, c *autodiff.Var, b gateBias) (h, cNext *autodiff.Var) {
	n := c.Value.Cols
	i := tp.AddRowApply(tp.SliceCols(z, 0, n), b.i, autodiff.ActSigmoid)
	f := tp.AddRowApply(tp.SliceCols(z, n, 2*n), b.f, autodiff.ActSigmoid)
	g := tp.AddRowApply(tp.SliceCols(z, 2*n, 3*n), b.g, autodiff.ActTanh)
	o := tp.AddRowApply(tp.SliceCols(z, 3*n, 4*n), b.o, autodiff.ActSigmoid)
	cNext = tp.Add(tp.Mul(f, c), tp.Mul(i, g))
	return tp.Mul(o, tp.Tanh(cNext)), cNext
}

// chainForwardStacked is ForwardStacked as a recording tape ran it before
// the fused cell recorded: the same stacked projection and AddRowsAt
// window per step, with the chain in place of LSTMCell.
func chainForwardStacked(l *LSTM, tp *autodiff.Tape, x *autodiff.Var, steps int) []*autodiff.Var {
	batch := x.Value.Rows / steps
	zx := tp.MatMul(x, l.Wx.Var)
	s := l.ZeroState(tp, batch)
	b := chainBias(tp, l.B.Var, l.Hidden)
	hs := make([]*autodiff.Var, steps)
	for t := 0; t < steps; t++ {
		z := tp.AddRowsAt(zx, t*batch, tp.MatMul(s.H, l.Wh.Var))
		s.H, s.C = chainGates(tp, z, s.C, b)
		hs[t] = s.H
	}
	return hs
}

// chainForward runs the chain over per-step inputs, projecting each step
// on its own: z = x_t·Wx + h·Wh.
func chainForward(l *LSTM, tp *autodiff.Tape, xs []*autodiff.Var) []*autodiff.Var {
	b := chainBias(tp, l.B.Var, l.Hidden)
	s := l.ZeroState(tp, xs[0].Value.Rows)
	hs := make([]*autodiff.Var, len(xs))
	for t, x := range xs {
		z := tp.Add(tp.MatMul(x, l.Wx.Var), tp.MatMul(s.H, l.Wh.Var))
		s.H, s.C = chainGates(tp, z, s.C, b)
		hs[t] = s.H
	}
	return hs
}

// sameBits reports whether two floats are the same value with the same
// sign, or both NaN: Go leaves the payload of a NaN result unspecified.
func sameBits(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return a == b && math.Signbit(a) == math.Signbit(b)
}

func mustSameBits(t *testing.T, got, want *tensor.Matrix, what string) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: nil matrix (got=%v want=%v)", what, got, want)
		}
		return
	}
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if !sameBits(got.Data[i], w) {
			t.Fatalf("%s: element %d = %v, want %v (bit for bit)", what, i, got.Data[i], w)
		}
	}
}

// TestLSTMForwardStackedGradientsMatchOracle runs whole multi-step
// sequences through ForwardStacked and Backward and holds every hidden
// state and every gradient — Wx, Wh, B and the input — to the chain
// oracle bit for bit. Two sequences share one
// tape, so B's gradient sums over sequences exactly as training sums it,
// and the loss skips some steps' hidden states, so some cells see a
// cell-state gradient but no hidden-state one.
func TestLSTMForwardStackedGradientsMatchOracle(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for trial := 0; trial < 20; trial++ {
			in, hidden := 1+rng.Intn(6), 1+rng.Intn(9)
			l := NewLSTM("lstm", in, hidden, rng)
			copy(l.B.Value().Data, tensor.Randn(1, 4*hidden, 1, rng).Data) // biases are zero/one at init
			type seq struct {
				x       *tensor.Matrix
				steps   int
				weights *tensor.Matrix // loss weight per hidden row of every step but the first
			}
			seqs := make([]seq, 2)
			for k := range seqs {
				steps, batch := 2+rng.Intn(5), 1+rng.Intn(4)
				seqs[k] = seq{
					x:       tensor.Randn(steps*batch, in, 2, rng),
					steps:   steps,
					weights: tensor.Randn((steps-1)*batch, hidden, 1, rng),
				}
			}

			type result struct {
				hs    []*tensor.Matrix
				grads []*tensor.Matrix // Wx, Wh, B, then each sequence's input
			}
			run := func(forward func(*LSTM, *autodiff.Tape, *autodiff.Var, int) []*autodiff.Var) result {
				net := l.ShareWeights() // own gradient buffers, same weights
				tp := autodiff.NewTape()
				var res result
				var loss *autodiff.Var
				xs := make([]*autodiff.Var, len(seqs))
				for k, s := range seqs {
					xs[k] = tp.Param(s.x)
					hs := forward(net, tp, xs[k], s.steps)
					for _, h := range hs {
						res.hs = append(res.hs, h.Value)
					}
					term := tp.SumAll(tp.Mul(tp.ConcatRows(hs[1:]...), tp.Const(s.weights)))
					if loss == nil {
						loss = term
					} else {
						loss = tp.Add(loss, term)
					}
				}
				tp.Backward(loss)
				for _, p := range net.Params() {
					res.grads = append(res.grads, p.Var.Grad)
				}
				for _, x := range xs {
					res.grads = append(res.grads, x.Grad)
				}
				return res
			}
			got := run(func(l *LSTM, tp *autodiff.Tape, x *autodiff.Var, steps int) []*autodiff.Var {
				return l.ForwardStacked(tp, x, dense(x.Value.Rows/steps, steps))
			})
			want := run(chainForwardStacked)
			for k := range want.hs {
				mustSameBits(t, got.hs[k], want.hs[k], "hidden state")
			}
			for k, name := range []string{"Wx", "Wh", "B", "x0", "x1"} {
				mustSameBits(t, got.grads[k], want.grads[k], name+" grad")
			}
		}
	})
}

// cellBytes derives fuzz operands from raw bytes; past the end it reads
// zeros.
type cellBytes []byte

func (r *cellBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// cellSpecials are the values a selector byte below their count picks:
// signed zeros, infinities, NaN, float64 and float32 subnormals, the
// largest float64, and values that saturate the gates.
var cellSpecials = [...]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat64, 1, -1, 40, -40,
}

// val reads one value: a special, raw float64 bits, or a byte-sized step
// in [-8, 8).
func (r *cellBytes) val() float64 {
	k := r.byte()
	switch {
	case int(k) < len(cellSpecials):
		return cellSpecials[k]
	case k < 64:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(r.byte())
		}
		return math.Float64frombits(bits)
	default:
		return float64(int8(k)) / 16
	}
}

func (r *cellBytes) mat(rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.val()
	}
	return m
}

// cellCase is one cell step's operands: pre-activation z, packed bias b,
// incoming cell state c and the upstream gradients dh and dc of the new
// hidden and cell states (nil when that state gets none).
type cellCase struct {
	z, b, c, dh, dc *tensor.Matrix
	cGrad           bool // whether the incoming cell state tracks a gradient
}

func decodeCell(data []byte) cellCase {
	r := cellBytes(data)
	batch, hidden := 1+int(r.byte()%3), 1+int(r.byte()%4)
	flags := r.byte()
	cc := cellCase{z: r.mat(batch, 4*hidden), b: r.mat(1, 4*hidden), c: r.mat(batch, hidden), cGrad: flags&4 != 0}
	dh, dc := r.mat(batch, hidden), r.mat(batch, hidden)
	switch flags & 3 {
	case 1:
		cc.dh = dh
	case 2:
		cc.dc = dc
	default:
		cc.dh, cc.dc = dh, dc
	}
	return cc
}

// checkCell runs one cell step on a recording tape twice — the fused
// LSTMCell over a full-width bias view, as ForwardStacked calls it, and
// the chain over per-gate views — and holds h, c′ and the gradients of z,
// b and c to each other bit for bit.
func checkCell(t *testing.T, cc cellCase) {
	t.Helper()
	type result struct{ h, c, dz, db, dcPrev *tensor.Matrix }
	run := func(fused bool) result {
		tp := autodiff.NewTape()
		z, b := tp.Param(cc.z.Clone()), tp.Param(cc.b.Clone())
		cm := cc.c.Clone()
		c := tp.Const(cm)
		if cc.cGrad {
			c = tp.Param(cm)
		}
		var h, cNext *autodiff.Var
		if fused {
			h, cNext = tp.LSTMCell(z, tp.SliceCols(b, 0, b.Value.Cols), c)
		} else {
			h, cNext = chainGates(tp, z, c, chainBias(tp, b, c.Value.Cols))
		}
		var loss *autodiff.Var
		for _, up := range []struct {
			v *autodiff.Var
			d *tensor.Matrix
		}{{h, cc.dh}, {cNext, cc.dc}} {
			if up.d == nil {
				continue
			}
			term := tp.SumAll(tp.Mul(up.v, tp.Const(up.d)))
			if loss == nil {
				loss = term
			} else {
				loss = tp.Add(loss, term)
			}
		}
		tp.Backward(loss)
		return result{h.Value, cNext.Value, z.Grad, b.Grad, c.Grad}
	}
	got, want := run(true), run(false)
	mustSameBits(t, got.h, want.h, "h")
	mustSameBits(t, got.c, want.c, "c′")
	mustSameBits(t, got.dz, want.dz, "z grad")
	mustSameBits(t, got.db, want.db, "b grad")
	mustSameBits(t, got.dcPrev, want.dcPrev, "c grad")
}

// FuzzLSTMCell holds the fused, recorded LSTM cell to the chain oracle bit
// for bit: the new hidden and cell states and the
// gradients of the pre-activation, the bias and the incoming cell state,
// for operands that include ±0, subnormals, ±Inf and NaN, with upstream
// gradients on either new state or both.
func FuzzLSTMCell(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 200, 90, 255, 128})
	f.Add([]byte{2, 1, 5, 13, 12, 1, 0, 4, 100, 150, 2, 3, 1, 0, 0, 0, 1, 4, 1})
	rng := rand.New(rand.NewSource(53))
	for k := 0; k < 4; k++ {
		seed := make([]byte, 3+rng.Intn(80))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cc := decodeCell(data)
		checkCell(t, cc)
	})
}
