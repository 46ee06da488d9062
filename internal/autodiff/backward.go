package autodiff

import (
	"fmt"
	"slices"

	"raal/internal/tensor"
)

// Backward seeds root's gradient with 1 (root must be 1×1) and propagates
// gradients through every recorded operation in reverse order.
//
// The walk carries the gradients of tape Vars down the tape; every
// contribution to a leaf (Param) gradient is handed, in walk order, to one
// worker goroutine that applies them while the walk goes on (DESIGN §5z).
// A record's output gradient is final once the walk reaches it and no
// value changes during the walk, so each leaf receives the same
// contributions in the same order as a walk that applied them itself, bit
// for bit. A tape with no leaf operand starts no worker, and the worker
// has finished when Backward returns.
func (t *Tape) Backward(root *Var) {
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward root must be 1x1, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	t.gradOf(root).Data[0] = 1
	t.leafT = slices.Grow(t.leafT[:0], len(t.leaves))[:len(t.leaves)]
	clear(t.leafT)
	defer t.stopLeafWorker()
	for i := len(t.recs) - 1; i >= 0; i-- {
		r := &t.recs[i]
		if t.at(r.out).Grad == nil {
			// No downstream consumer contributed, as the closure tape's
			// nil-Grad check skipped.
			continue
		}
		if t.hasLeaf(r) {
			t.pushLeafJob(int32(i))
		}
		t.step(r, false, &t.scratch)
	}
}

// hasLeaf reports whether a leaf is among r's operands.
func (t *Tape) hasLeaf(r *rec) bool {
	switch r.op {
	case opConcatCols, opConcatRows, opGatherRows:
		return slices.ContainsFunc(t.auxArgs[r.x0:r.x0+r.x1], func(i int32) bool { return i < 0 })
	case opLSTMCell, opLSTMHidden:
		return r.a < 0 || r.b < 0 || r.x0 < 0
	}
	return r.a < 0 || r.b < 0
}

// pushLeafJob queues record i's leaf contributions for the worker,
// starting it on the pass's first job. The queue holds a slot for every
// record plus the stop mark, so a send never blocks, and a warm tape
// reuses both the queue and the worker's function value.
func (t *Tape) pushLeafJob(i int32) {
	if !t.leafBusy {
		if cap(t.leafJobs) < len(t.recs)+1 {
			t.leafJobs = make(chan int32, len(t.recs)+1)
		}
		if t.leafRun == nil {
			t.leafRun = t.drainLeafJobs
		}
		t.leafBusy = true
		t.leafWG.Add(1)
		go t.leafRun()
	}
	t.leafJobs <- i
}

// stopLeafWorker ends the pass's worker, if one started, and waits for it.
// A panic in a leaf job surfaces here, on the caller's goroutine; the
// queue it left unread is dropped.
func (t *Tape) stopLeafWorker() {
	if !t.leafBusy {
		return
	}
	t.leafJobs <- -1
	t.leafWG.Wait()
	t.leafBusy = false
	if p := t.leafPanic; p != nil {
		t.leafPanic, t.leafJobs = nil, nil
		panic(p)
	}
}

// drainLeafJobs is the leaf worker: it applies each queued record's leaf
// contributions in queue order, with its own scratch, until the stop mark.
func (t *Tape) drainLeafJobs() {
	defer t.leafWG.Done()
	defer func() { t.leafPanic = recover() }()
	for i := range t.leafJobs {
		if i < 0 {
			return
		}
		t.step(&t.recs[i], true, &t.leafScratch)
	}
}

// grad returns v's gradient accumulator when v tracks gradients and is on
// the side this step runs for (leaves on the worker, tape Vars on the
// walk), nil otherwise.
func (t *Tape) grad(v *Var, leaves bool) *tensor.Matrix {
	if !v.needsGrad || (v.idx == leafIdx) != leaves {
		return nil
	}
	return t.gradOf(v)
}

// transposed returns Wᵀ for the leaf operand ref, transposed into the
// arena on its first use in a pass, or nil when W holds an infinity or a
// NaN. dY·Wᵀ as a plain product skips dY's zeros where MatMulTransBInto's
// Go loop multiplies them; for a finite W the two agree bit for bit (a sum
// from +0 never becomes −0), so only a non-finite W keeps MatMulTransBInto.
func (t *Tape) transposed(ref int32) *tensor.Matrix {
	lt := &t.leafT[-1-ref]
	if !lt.done {
		lt.done = true
		w := t.leaves[-1-ref].Value
		wt := t.get(w.Cols, w.Rows)
		for i := 0; i < w.Rows; i++ {
			for j, v := range w.Row(i) {
				if v-v != 0 { // ±Inf or NaN
					return nil
				}
				wt.Data[j*w.Rows+i] = v
			}
		}
		lt.m = wt
	}
	return lt.m
}

// step replays one record's adjoint into the gradients of its operands on
// one side: tape Vars when leaves is false, leaves when it is true. Each
// side recomputes what a fused op's per-element gradient needs from the
// record's values and its output gradient, so the split changes no bit.
// Gradient accumulation order within each op is ported unchanged from the
// closure implementation, so gradients stay bit-identical to it.
func (t *Tape) step(r *rec, leaves bool, scr *scratch) {
	out := t.at(r.out)
	switch r.op {
	case opMatMul:
		// Each product is added into its gradient as the kernel stores it
		// (DESIGN §5n). Where the kernel declines, and for dY·bᵀ through a
		// non-finite or non-leaf b, the product goes through scratch.
		a, b := t.at(r.a), t.at(r.b)
		if g := t.grad(a, leaves); g != nil {
			var bt *tensor.Matrix
			if r.b < 0 && !leaves {
				bt = t.transposed(r.b)
			}
			if bt == nil || !tensor.MatMulAddInto(g, out.Grad, bt) {
				tmp := scr.mat(out.Grad.Rows, b.Value.Rows)
				if bt != nil {
					tensor.MatMulInto(tmp, out.Grad, bt)
				} else {
					tensor.MatMulTransBInto(tmp, out.Grad, b.Value)
				}
				tensor.AddInPlace(g, tmp)
			}
		}
		if g := t.grad(b, leaves); g != nil && !tensor.MatMulTransAAddInto(g, a.Value, out.Grad) {
			tmp := scr.mat(a.Value.Cols, out.Grad.Cols)
			tensor.MatMulTransAInto(tmp, a.Value, out.Grad)
			tensor.AddInPlace(g, tmp)
		}

	case opAdd, opAddRowsAt:
		a, b := t.at(r.a), t.at(r.b)
		if g := t.grad(a, leaves); g != nil {
			off := int(r.x0) * out.Grad.Cols // AddRowsAt's row window; 0 for Add
			tensor.Accumulate(g.Data[off:off+len(out.Grad.Data)], out.Grad.Data)
		}
		if g := t.grad(b, leaves); g != nil {
			tensor.AddInPlace(g, out.Grad)
		}

	case opSub:
		a, b := t.at(r.a), t.at(r.b)
		if g := t.grad(a, leaves); g != nil {
			tensor.AddInPlace(g, out.Grad)
		}
		if g := t.grad(b, leaves); g != nil {
			tensor.AxpyInPlace(g, -1, out.Grad)
		}

	case opMul:
		a, b := t.at(r.a), t.at(r.b)
		if g := t.grad(a, leaves); g != nil {
			tmp := scr.mat(out.Grad.Rows, out.Grad.Cols)
			tensor.MulInto(tmp, out.Grad, b.Value)
			tensor.AddInPlace(g, tmp)
		}
		if g := t.grad(b, leaves); g != nil {
			tmp := scr.mat(out.Grad.Rows, out.Grad.Cols)
			tensor.MulInto(tmp, out.Grad, a.Value)
			tensor.AddInPlace(g, tmp)
		}

	case opScale:
		if g := t.grad(t.at(r.a), leaves); g != nil {
			tensor.AxpyInPlace(g, r.s, out.Grad)
		}

	case opAddRow:
		m, rv := t.at(r.a), t.at(r.b)
		if g := t.grad(m, leaves); g != nil {
			tensor.AddInPlace(g, out.Grad)
		}
		if g := t.grad(rv, leaves); g != nil {
			for i := 0; i < out.Grad.Rows; i++ {
				tensor.Accumulate(g.Data, out.Grad.Row(i))
			}
		}

	case opAddRowAct:
		// d = dL/d(pre-activation), derived from the output value with the
		// same association the unfused activation backward uses; it then
		// flows to m elementwise and to r as column sums, in the same
		// ascending-row order as AddRow's backward. A side that owns only
		// one of the two recomputes d for it alone.
		mg, rg := t.grad(t.at(r.a), leaves), t.grad(t.at(r.b), leaves)
		if mg == nil && rg == nil {
			break
		}
		f := ActFn(r.act)
		val := out.Value
		for i := 0; i < val.Rows; i++ {
			y := val.Row(i)
			dy := out.Grad.Row(i)
			var mrow []float64
			if mg != nil {
				mrow = mg.Row(i)
			}
			for j := range y {
				var d float64
				switch f {
				case ActIdentity:
					d = dy[j]
				case ActSigmoid:
					d = dy[j] * y[j] * (1 - y[j])
				case ActTanh:
					// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
					d = dy[j] * (1 - float64(y[j]*y[j]))
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
		if g := t.grad(t.at(r.a), leaves); g != nil {
			for i, s := range out.Value.Data {
				// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
				g.Data[i] += float64(out.Grad.Data[i] * s * (1 - s))
			}
		}

	case opTanh:
		if g := t.grad(t.at(r.a), leaves); g != nil {
			for i, y := range out.Value.Data {
				// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
				g.Data[i] += float64(out.Grad.Data[i] * (1 - float64(y*y)))
			}
		}

	case opReLU, opLeakyReLU:
		a := t.at(r.a)
		g := t.grad(a, leaves)
		if g == nil {
			break
		}
		for i, x := range a.Value.Data {
			switch {
			case x > 0:
				g.Data[i] += out.Grad.Data[i]
			case r.op == opLeakyReLU:
				// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
				g.Data[i] += float64(r.s * out.Grad.Data[i])
			}
		}

	case opTranspose:
		if g := t.grad(t.at(r.a), leaves); g != nil {
			tmp := scr.mat(out.Grad.Cols, out.Grad.Rows)
			tensor.TransposeInto(tmp, out.Grad)
			tensor.AddInPlace(g, tmp)
		}

	case opSoftmaxRows:
		// Masked variants share this adjoint: masked entries carry
		// probability exactly 0, so their terms vanish on their own.
		g := t.grad(t.at(r.a), leaves)
		if g == nil {
			break
		}
		val := out.Value
		for i := 0; i < val.Rows; i++ {
			y := val.Row(i)
			dy := out.Grad.Row(i)
			// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
			var dot float64
			for j := range y {
				dot += float64(y[j] * dy[j])
			}
			grow := g.Row(i)
			for j := range y {
				grow[j] += float64(y[j] * (dy[j] - dot))
			}
		}

	case opConcatCols:
		args := t.auxArgs[r.x0 : r.x0+r.x1]
		off := 0
		for _, ai := range args {
			v := t.at(ai)
			w := v.Value.Cols
			if g := t.grad(v, leaves); g != nil {
				for i := 0; i < out.Grad.Rows; i++ {
					tensor.Accumulate(g.Row(i), out.Grad.Row(i)[off:off+w])
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
			if g := t.grad(v, leaves); g != nil {
				tensor.Accumulate(g.Data, out.Grad.Data[off:off+n])
			}
			off += n
		}

	case opGatherRows:
		args := t.auxArgs[r.x0 : r.x0+r.x1]
		rows := t.auxArgs[r.x0+r.x1 : r.x0+2*r.x1]
		for k, ai := range args {
			if g := t.grad(t.at(ai), leaves); g != nil {
				tensor.Accumulate(g.Row(int(rows[k])), out.Grad.Row(k))
			}
		}

	case opIm2ColRows:
		x := t.at(r.a)
		g := t.grad(x, leaves)
		if g == nil {
			break
		}
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
				tensor.Accumulate(g.Row(src), orow[k*cols:(k+1)*cols])
			}
		}

	case opRowAt:
		if g := t.grad(t.at(r.a), leaves); g != nil {
			tensor.Accumulate(g.Row(int(r.x0)), out.Grad.Data)
		}

	case opSliceCols:
		if g := t.grad(t.at(r.a), leaves); g != nil {
			lo, hi := int(r.x0), int(r.x1)
			for i := 0; i < out.Grad.Rows; i++ {
				tensor.Accumulate(g.Row(i)[lo:hi], out.Grad.Row(i))
			}
		}

	case opMeanRowsMasked:
		g := t.grad(t.at(r.a), leaves)
		if g == nil {
			break
		}
		for i, m := range t.auxMask[r.x0] {
			if !m {
				continue
			}
			dst := g.Row(i)
			for j, x := range out.Grad.Data {
				dst[j] += x / r.s
			}
		}

	case opSumAll, opMeanAll:
		g := t.grad(t.at(r.a), leaves)
		if g == nil {
			break
		}
		d := out.Grad.Data[0]
		if r.op == opMeanAll {
			d /= r.s
		}
		for i := range g.Data {
			g.Data[i] += d
		}

	case opMSE:
		pred := t.at(r.a)
		g := t.grad(pred, leaves)
		if g == nil {
			break
		}
		target := t.auxMat[r.x0]
		d := out.Grad.Data[0]
		for i, p := range pred.Value.Data {
			g.Data[i] += d * 2 * (p - target.Data[i]) / r.s
		}

	case opDropout:
		g := t.grad(t.at(r.a), leaves)
		if g == nil {
			break
		}
		keep := t.auxMask[r.x0]
		for i := range g.Data {
			if keep[i] {
				// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
				g.Data[i] += float64(out.Grad.Data[i] * r.s)
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
		cg, zg, bg := t.grad(t.at(r.b), leaves), t.grad(z, leaves), t.grad(t.at(r.x0), leaves)
		if cg == nil && zg == nil && bg == nil {
			break
		}
		n := tc.Cols
		for i := 0; i < tc.Rows; i++ {
			y, o := tc.Row(i), z.Value.Row(i)[3*n:]
			for j, dh := range out.Grad.Row(i) {
				if cg != nil {
					// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
					cg.Data[i*n+j] += float64(float64(dh*o[j]) * (1 - float64(y[j]*y[j])))
				}
				// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
				d := float64(float64(dh*y[j]) * o[j] * (1 - o[j]))
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
		zg, bg, cg := t.grad(z, leaves), t.grad(t.at(r.x0), leaves), t.grad(c, leaves)
		if zg == nil && bg == nil && cg == nil {
			break
		}
		n := out.Value.Cols
		for i := 0; i < out.Value.Rows; i++ {
			zr, cp := z.Value.Row(i), c.Value.Row(i)
			for j, dc := range out.Grad.Row(i) {
				ia, fa, ga := zr[j], zr[n+j], zr[2*n+j]
				// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
				d := [3]float64{float64(dc*ga) * ia * (1 - ia), float64(dc*cp[j]) * fa * (1 - fa), float64(dc*ia) * (1 - float64(ga*ga))}
				if cg != nil {
					// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
					cg.Data[i*n+j] += float64(dc * fa)
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
