package autodiff

import (
	"fmt"

	"raal/internal/tensor"
)

// Backward seeds root's gradient with 1 (root must be 1×1) and propagates
// gradients through every recorded operation in reverse order.
func (t *Tape[T]) Backward(root *Var[T]) {
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward root must be 1x1, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	t.gradOf(root).Data[0] = 1
	for i := len(t.recs) - 1; i >= 0; i-- {
		t.step(&t.recs[i])
	}
}

// step replays one record's adjoint. A record whose output never received
// gradient (no downstream consumer contributed) is skipped, matching the
// closure tape's nil-Grad check. Gradient accumulation order within each
// op is ported unchanged from the closure implementation, so gradients
// stay bit-identical to it.
func (t *Tape[T]) step(r *rec) {
	out := t.at(r.out)
	if out.Grad == nil {
		return
	}
	switch r.op {
	case opMatMul:
		a, b := t.at(r.a), t.at(r.b)
		if a.needsGrad {
			tmp := t.tmpMat(out.Grad.Rows, b.Value.Rows)
			tensor.MatMulTransBInto(tmp, out.Grad, b.Value)
			tensor.AddInPlace(t.gradOf(a), tmp)
		}
		if b.needsGrad {
			tmp := t.tmpMat(a.Value.Cols, out.Grad.Cols)
			tensor.MatMulTransAInto(tmp, a.Value, out.Grad)
			tensor.AddInPlace(t.gradOf(b), tmp)
		}

	case opAdd:
		a, b := t.at(r.a), t.at(r.b)
		if a.needsGrad {
			tensor.AddInPlace(t.gradOf(a), out.Grad)
		}
		if b.needsGrad {
			tensor.AddInPlace(t.gradOf(b), out.Grad)
		}

	case opSub:
		a, b := t.at(r.a), t.at(r.b)
		if a.needsGrad {
			tensor.AddInPlace(t.gradOf(a), out.Grad)
		}
		if b.needsGrad {
			tensor.AxpyInPlace(t.gradOf(b), -1, out.Grad)
		}

	case opMul:
		a, b := t.at(r.a), t.at(r.b)
		if a.needsGrad {
			tmp := t.tmpMat(out.Grad.Rows, out.Grad.Cols)
			tensor.MulInto(tmp, out.Grad, b.Value)
			tensor.AddInPlace(t.gradOf(a), tmp)
		}
		if b.needsGrad {
			tmp := t.tmpMat(out.Grad.Rows, out.Grad.Cols)
			tensor.MulInto(tmp, out.Grad, a.Value)
			tensor.AddInPlace(t.gradOf(b), tmp)
		}

	case opScale:
		tensor.AxpyInPlace(t.gradOf(t.at(r.a)), T(r.s), out.Grad)

	case opAddRow:
		m, rv := t.at(r.a), t.at(r.b)
		if m.needsGrad {
			tensor.AddInPlace(t.gradOf(m), out.Grad)
		}
		if rv.needsGrad {
			g := t.gradOf(rv)
			for i := 0; i < out.Grad.Rows; i++ {
				row := out.Grad.Row(i)
				for j, v := range row {
					g.Data[j] += v
				}
			}
		}

	case opAddRowAct:
		// d = dL/d(pre-activation), derived from the output value with the
		// same association the unfused activation backward uses; it then
		// flows to m elementwise and to r as column sums, in the same
		// ascending-row order as AddRow's backward.
		m, rv := t.at(r.a), t.at(r.b)
		f := ActFn(r.act)
		var mg, rg *tensor.Mat[T]
		if m.needsGrad {
			mg = t.gradOf(m)
		}
		if rv.needsGrad {
			rg = t.gradOf(rv)
		}
		val := out.Value
		for i := 0; i < val.Rows; i++ {
			y := val.Row(i)
			dy := out.Grad.Row(i)
			var mrow []T
			if mg != nil {
				mrow = mg.Row(i)
			}
			for j := range y {
				var d T
				switch f {
				case ActIdentity:
					d = dy[j]
				case ActSigmoid:
					d = dy[j] * y[j] * (1 - y[j])
				case ActTanh:
					d = dy[j] * (1 - y[j]*y[j])
				case ActReLU:
					if y[j] > 0 {
						d = dy[j]
					}
				}
				if mrow != nil {
					mrow[j] += d
				}
				if rg != nil {
					rg.Data[j] += d
				}
			}
		}

	case opSigmoid:
		g := t.gradOf(t.at(r.a))
		for i, s := range out.Value.Data {
			g.Data[i] += out.Grad.Data[i] * s * (1 - s)
		}

	case opTanh:
		g := t.gradOf(t.at(r.a))
		for i, y := range out.Value.Data {
			g.Data[i] += out.Grad.Data[i] * (1 - y*y)
		}

	case opReLU:
		a := t.at(r.a)
		g := t.gradOf(a)
		for i, x := range a.Value.Data {
			if x > 0 {
				g.Data[i] += out.Grad.Data[i]
			}
		}

	case opLeakyReLU:
		a := t.at(r.a)
		g := t.gradOf(a)
		for i, x := range a.Value.Data {
			if x > 0 {
				g.Data[i] += out.Grad.Data[i]
			} else {
				g.Data[i] += T(r.s) * out.Grad.Data[i]
			}
		}

	case opTranspose:
		tmp := t.tmpMat(out.Grad.Cols, out.Grad.Rows)
		tensor.TransposeInto(tmp, out.Grad)
		tensor.AddInPlace(t.gradOf(t.at(r.a)), tmp)

	case opSoftmaxRows:
		// Masked variants share this adjoint: masked entries carry
		// probability exactly 0, so their terms vanish on their own.
		g := t.gradOf(t.at(r.a))
		val := out.Value
		for i := 0; i < val.Rows; i++ {
			y := val.Row(i)
			dy := out.Grad.Row(i)
			var dot T
			for j := range y {
				dot += y[j] * dy[j]
			}
			grow := g.Row(i)
			for j := range y {
				grow[j] += y[j] * (dy[j] - dot)
			}
		}

	case opConcatCols:
		args := t.auxArgs[r.x0 : r.x0+r.x1]
		off := 0
		for _, ai := range args {
			v := t.at(ai)
			w := v.Value.Cols
			if v.needsGrad {
				g := t.gradOf(v)
				for i := 0; i < out.Grad.Rows; i++ {
					accumulate(g.Row(i), out.Grad.Row(i)[off:off+w])
				}
			}
			off += w
		}

	case opConcatRows:
		args := t.auxArgs[r.x0 : r.x0+r.x1]
		off := 0
		for _, ai := range args {
			v := t.at(ai)
			n := v.Value.Rows * v.Value.Cols
			if v.needsGrad {
				accumulate(t.gradOf(v).Data, out.Grad.Data[off:off+n])
			}
			off += n
		}

	case opGatherRows:
		args := t.auxArgs[r.x0 : r.x0+r.x1]
		rows := t.auxArgs[r.x0+r.x1 : r.x0+2*r.x1]
		for k, ai := range args {
			if v := t.at(ai); v.needsGrad {
				accumulate(t.gradOf(v).Row(int(rows[k])), out.Grad.Row(k))
			}
		}

	case opAddRowsAt:
		big, small := t.at(r.a), t.at(r.b)
		if big.needsGrad {
			off := int(r.x0) * out.Grad.Cols
			accumulate(t.gradOf(big).Data[off:off+len(out.Grad.Data)], out.Grad.Data)
		}
		if small.needsGrad {
			tensor.AddInPlace(t.gradOf(small), out.Grad)
		}

	case opIm2ColRows:
		x := t.at(r.a)
		g := t.gradOf(x)
		width := int(r.x0)
		half := width / 2
		rows, cols := x.Value.Rows, x.Value.Cols
		for p := 0; p < rows; p++ {
			orow := out.Grad.Row(p)
			for k := 0; k < width; k++ {
				src := p + k - half
				if src < 0 || src >= rows {
					continue
				}
				accumulate(g.Row(src), orow[k*cols:(k+1)*cols])
			}
		}

	case opRowAt:
		accumulate(t.gradOf(t.at(r.a)).Row(int(r.x0)), out.Grad.Data)

	case opSliceCols:
		g := t.gradOf(t.at(r.a))
		lo, hi := int(r.x0), int(r.x1)
		for i := 0; i < out.Grad.Rows; i++ {
			accumulate(g.Row(i)[lo:hi], out.Grad.Row(i))
		}

	case opMeanRowsMasked:
		g := t.gradOf(t.at(r.a))
		mask := t.auxMask[r.x0]
		for i, m := range mask {
			if !m {
				continue
			}
			dst := g.Row(i)
			for j, x := range out.Grad.Data {
				dst[j] += x / T(r.s)
			}
		}

	case opSumAll:
		g := t.gradOf(t.at(r.a))
		d := out.Grad.Data[0]
		for i := range g.Data {
			g.Data[i] += d
		}

	case opMeanAll:
		g := t.gradOf(t.at(r.a))
		d := out.Grad.Data[0] / T(r.s)
		for i := range g.Data {
			g.Data[i] += d
		}

	case opMSE:
		pred := t.at(r.a)
		target := t.auxMat[r.x0]
		g := t.gradOf(pred)
		d := out.Grad.Data[0]
		for i, p := range pred.Value.Data {
			g.Data[i] += d * 2 * (p - target.Data[i]) / T(r.s)
		}

	case opDropout:
		g := t.gradOf(t.at(r.a))
		keep := t.auxMask[r.x0]
		for i := range g.Data {
			if keep[i] {
				g.Data[i] += out.Grad.Data[i] * T(r.s)
			}
		}

	case opLSTMHidden:
		// h = o∘tanh(c′), the hidden half of LSTMCell: per element, the
		// chain's Mul, Tanh and output-gate AddRowApply backward, with each
		// product rounded where the chain stores it. The chain's stored
		// gradients hold 0+x where these hold x, which differ only for
		// x = −0, and every such term ends in a sum from +0, where ±0 add
		// alike.
		z, tc := t.at(r.a), t.auxMat[r.x1]
		cg, zg, bg := t.gradOf(t.at(r.b)), t.gradIf(z), t.gradIf(t.at(r.x0))
		n := tc.Cols
		for i := 0; i < tc.Rows; i++ {
			y, o, cgr := tc.Row(i), z.Value.Row(i)[3*n:], cg.Row(i)
			for j, dh := range out.Grad.Row(i) {
				cgr[j] += T(dh*o[j]) * (1 - y[j]*y[j])
				d := T(dh*y[j]) * o[j] * (1 - o[j])
				if zg != nil {
					zg.Data[(4*i+3)*n+j] += d
				}
				if bg != nil {
					bg.Data[3*n+j] += d
				}
			}
		}

	case opLSTMCell:
		// c′ = f∘c + i∘g, the cell half of LSTMCell: per element, the
		// chain's Add, two Mul and i/f/g AddRowApply backward, rounded as
		// in opLSTMHidden. z holds the gate activations.
		z, c := t.at(r.a), t.at(r.b)
		zg, bg, cg := t.gradIf(z), t.gradIf(t.at(r.x0)), t.gradIf(c)
		n := out.Value.Cols
		for i := 0; i < out.Value.Rows; i++ {
			zr, cp := z.Value.Row(i), c.Value.Row(i)
			for j, dc := range out.Grad.Row(i) {
				ia, fa, ga := zr[j], zr[n+j], zr[2*n+j]
				d := [3]T{T(dc*ga) * ia * (1 - ia), T(dc*cp[j]) * fa * (1 - fa), T(dc*ia) * (1 - ga*ga)}
				if cg != nil {
					cg.Data[i*n+j] += T(dc * fa)
				}
				for k, dk := range d {
					if zg != nil {
						zg.Data[(4*i+k)*n+j] += dk
					}
					if bg != nil {
						bg.Data[k*n+j] += dk
					}
				}
			}
		}

	default:
		panic(fmt.Sprintf("autodiff: unknown opcode %d", r.op))
	}
}

// accumulate adds src into dst elementwise.
func accumulate[T tensor.Float](dst, src []T) {
	for j, x := range src {
		dst[j] += x
	}
}
