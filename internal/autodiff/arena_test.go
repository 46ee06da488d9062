package autodiff

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"raal/internal/tensor"
)

// mlpForward builds a small two-layer network with every fused op the
// model layers use: matmul, fused bias+activation, element-wise ops, and
// a scalar loss.
func mlpForward(tp *Tape, w1, b1, w2, b2 *Var, x *tensor.Matrix) *Var {
	h := tp.AddRowApply(tp.MatMul(tp.Const(x), w1), b1, ActTanh)
	y := tp.AddRowApply(tp.MatMul(h, w2), b2, ActIdentity)
	return tp.MeanAll(tp.Mul(y, y))
}

func arenaFixture(seed int64) (w1, b1, w2, b2, x *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	w1 = tensor.Randn(5, 7, 0.5, rng)
	b1 = tensor.Randn(1, 7, 0.5, rng)
	w2 = tensor.Randn(7, 3, 0.5, rng)
	b2 = tensor.Randn(1, 3, 0.5, rng)
	x = tensor.Randn(4, 5, 1, rng)
	return
}

// TestResetReusesArenaBitIdentical runs the same graph on one tape many
// times with Reset between passes and on a fresh tape each pass: values
// and gradients must match bit for bit — the arena may never change what
// is computed, only where it lives.
func TestResetReusesArenaBitIdentical(t *testing.T) {
	w1, b1, w2, b2, x := arenaFixture(3)

	pooled := NewTape()
	for pass := 0; pass < 5; pass++ {
		pooled.Reset()
		pv := [4]*Var{pooled.Param(w1), pooled.Param(b1), pooled.Param(w2), pooled.Param(b2)}
		ploss := mlpForward(pooled, pv[0], pv[1], pv[2], pv[3], x)
		pooled.Backward(ploss)

		fresh := NewTape()
		fv := [4]*Var{fresh.Param(w1), fresh.Param(b1), fresh.Param(w2), fresh.Param(b2)}
		floss := mlpForward(fresh, fv[0], fv[1], fv[2], fv[3], x)
		fresh.Backward(floss)

		if ploss.Value.Data[0] != floss.Value.Data[0] {
			t.Fatalf("pass %d: pooled loss %v != fresh loss %v", pass, ploss.Value.Data[0], floss.Value.Data[0])
		}
		for i := range pv {
			for j := range pv[i].Grad.Data {
				if pv[i].Grad.Data[j] != fv[i].Grad.Data[j] {
					t.Fatalf("pass %d: param %d grad[%d] pooled %v != fresh %v",
						pass, i, j, pv[i].Grad.Data[j], fv[i].Grad.Data[j])
				}
			}
		}
	}
}

// TestInferenceTapeMatchesTrainingTape pins that the no-grad tape computes
// bit-identical forward values while recording no nodes.
func TestInferenceTapeMatchesTrainingTape(t *testing.T) {
	w1, b1, w2, b2, x := arenaFixture(5)

	train := NewTape()
	trainLoss := mlpForward(train, train.Param(w1), train.Param(b1), train.Param(w2), train.Param(b2), x)

	inf := NewInferenceTape()
	infLoss := mlpForward(inf, inf.Param(w1), inf.Param(b1), inf.Param(w2), inf.Param(b2), x)

	if trainLoss.Value.Data[0] != infLoss.Value.Data[0] {
		t.Fatalf("inference value %v != training value %v", infLoss.Value.Data[0], trainLoss.Value.Data[0])
	}
	if train.Len() == 0 {
		t.Fatal("training tape should record nodes")
	}
	if inf.Len() != 0 {
		t.Fatalf("inference tape recorded %d nodes, want 0", inf.Len())
	}
}

// TestWarmTapeAllocatesNoMatrices is the arena's core guarantee: after one
// warm-up pass, repeating the same graph through Reset performs zero
// matrix allocations — every value and gradient comes from the free list.
func TestWarmTapeAllocatesNoMatrices(t *testing.T) {
	w1, b1, w2, b2, x := arenaFixture(9)
	tp := NewTape()
	// Params are persistent leaves, created once and reused across passes
	// (as nn.Param does in the real model); their gradients accumulate in
	// place, so the steady state has no leaf allocations either.
	pv := [4]*Var{tp.Param(w1), tp.Param(b1), tp.Param(w2), tp.Param(b2)}
	run := func() {
		tp.Reset()
		loss := mlpForward(tp, pv[0], pv[1], pv[2], pv[3], x)
		tp.Backward(loss)
	}
	run() // warm-up: populates the arena and the leaf gradients

	before := tensor.Allocs()
	for i := 0; i < 10; i++ {
		run()
	}
	if got := tensor.Allocs() - before; got != 0 {
		t.Fatalf("10 warm passes allocated %d matrices, want 0", got)
	}
}

// TestFusedAddRowApplyMatchesUnfused checks the fused bias+activation op
// against the unfused AddRow→activation pair: identical values and
// identical gradients, bit for bit, for every fused activation.
func TestFusedAddRowApplyMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := tensor.Randn(4, 6, 1, rng)
	r := tensor.Randn(1, 6, 1, rng)

	unfusedOf := func(tp *Tape, z, b *Var, f ActFn) *Var {
		s := tp.AddRow(z, b)
		switch f {
		case ActIdentity:
			return s
		case ActSigmoid:
			return tp.Sigmoid(s)
		case ActTanh:
			return tp.Tanh(s)
		case ActReLU:
			return tp.ReLU(s)
		}
		t.Fatalf("unknown ActFn %v", f)
		return nil
	}

	for _, f := range []ActFn{ActIdentity, ActSigmoid, ActTanh, ActReLU} {
		ft := NewTape()
		fm, fr := ft.Param(m), ft.Param(r)
		fused := ft.AddRowApply(fm, fr, f)
		ft.Backward(ft.MeanAll(ft.Mul(fused, fused)))

		ut := NewTape()
		um, ur := ut.Param(m), ut.Param(r)
		unfused := unfusedOf(ut, um, ur, f)
		ut.Backward(ut.MeanAll(ut.Mul(unfused, unfused)))

		for i := range fused.Value.Data {
			if fused.Value.Data[i] != unfused.Value.Data[i] {
				t.Fatalf("ActFn %v: fused value[%d] %v != unfused %v", f, i, fused.Value.Data[i], unfused.Value.Data[i])
			}
		}
		for i := range fm.Grad.Data {
			if fm.Grad.Data[i] != um.Grad.Data[i] {
				t.Fatalf("ActFn %v: fused m-grad[%d] %v != unfused %v", f, i, fm.Grad.Data[i], um.Grad.Data[i])
			}
		}
		for i := range fr.Grad.Data {
			if fr.Grad.Data[i] != ur.Grad.Data[i] {
				t.Fatalf("ActFn %v: fused bias-grad[%d] %v != unfused %v", f, i, fr.Grad.Data[i], ur.Grad.Data[i])
			}
		}
	}
}

// TestGradAddRowApply verifies the fused op against numeric gradients,
// independent of the unfused implementation.
func TestGradAddRowApply(t *testing.T) {
	for _, f := range []ActFn{ActIdentity, ActSigmoid, ActTanh} {
		ps := randParams(31, [2]int{3, 4}, [2]int{1, 4})
		checkGrad(t, ps, func(tp *Tape, vs []*Var) *Var {
			return tp.MeanAll(tp.AddRowApply(vs[0], vs[1], f))
		})
	}
	// ReLU is omitted: central differences straddle the kink at 0.
}

// TestNewMatrixRecycledAcrossReset pins the loan channel: tape-provided
// scratch matrices return to the arena on Reset and are handed out again.
func TestNewMatrixRecycledAcrossReset(t *testing.T) {
	tp := NewTape()
	m1 := tp.NewMatrix(3, 4)
	m1.Fill(42)
	tp.Reset()
	m2 := tp.NewMatrix(3, 4)
	if m2 != m1 {
		t.Fatal("NewMatrix after Reset should reuse the loaned matrix")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled loan must come back zeroed, got %v", v)
		}
	}
}

// TestConstValueNotRecycled pins that Const never pools a caller-owned
// matrix: recycling it would let a later op silently overwrite caller
// state.
func TestConstValueNotRecycled(t *testing.T) {
	tp := NewTape()
	own := tensor.FromSlice(1, 2, []float64{1, 2})
	tp.Const(own)
	tp.Reset()
	got := tp.get(1, 2)
	if got == own {
		t.Fatal("Reset must not recycle a Const's caller-owned value")
	}
	if own.Data[0] != 1 || own.Data[1] != 2 {
		t.Fatalf("caller-owned matrix mutated: %v", own.Data)
	}
}

// TestLSTMCellMatchesRecordedChain pins the fused cell's values, bit for
// bit, to the op chain it replaces, on a forward-only and on a recording
// tape, and that the recording tape records it (its gradients are held to
// the chain by internal/nn's FuzzLSTMCell). The incoming cell state is
// only read.
func TestLSTMCellMatchesRecordedChain(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		const batch, h = 3, 5
		z := tensor.Randn(batch, 4*h, 1, rng)
		b := tensor.Randn(1, 4*h, 1, rng)
		c := tensor.Randn(batch, h, 1, rng)

		chain := NewTape()
		zv, bv, cv := chain.Const(z), chain.Const(b), chain.Const(c)
		gate := func(k int, f ActFn) *Var {
			return chain.AddRowApply(chain.SliceCols(zv, k*h, (k+1)*h), chain.SliceCols(bv, k*h, (k+1)*h), f)
		}
		i, f, g, o := gate(0, ActSigmoid), gate(1, ActSigmoid), gate(2, ActTanh), gate(3, ActSigmoid)
		wantC := chain.Add(chain.Mul(f, cv), chain.Mul(i, g))
		wantH := chain.Mul(o, chain.Tanh(wantC))

		for _, tp := range []*Tape{NewInferenceTape(), NewTape()} {
			cIn := c.Clone()
			gotH, gotC := tp.LSTMCell(tp.Param(z.Clone()), tp.Const(b), tp.Const(cIn))
			for k := range wantH.Value.Data {
				if gotH.Value.Data[k] != wantH.Value.Data[k] || gotC.Value.Data[k] != wantC.Value.Data[k] {
					t.Fatalf("forward-only %v, element %d: fused h,c = %v,%v; chain %v,%v", tp.ForwardOnly(), k,
						gotH.Value.Data[k], gotC.Value.Data[k], wantH.Value.Data[k], wantC.Value.Data[k])
				}
				if cIn.Data[k] != c.Data[k] {
					t.Fatalf("forward-only %v: the incoming cell state changed at %d", tp.ForwardOnly(), k)
				}
			}
			want := 2 // the cell-state and the hidden-state record
			if tp.ForwardOnly() {
				want = 0
			}
			if tp.Len() != want {
				t.Fatalf("forward-only %v: %d records, want %d", tp.ForwardOnly(), tp.Len(), want)
			}
		}
	})
}

// TestWarmReplayReusesArena pins the arena contract: after Reset, an identical op sequence returns pointer-identical matrices
// backed by the same slabs, and the steady state allocates zero new
// matrices.
func TestWarmReplayReusesArena(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		tp := NewInferenceTape()
		a := tensor.Randn(16, 16, 1, rng)
		b := tensor.Randn(16, 16, 1, rng)

		run := func() *tensor.Matrix {
			av := tp.Const(a)
			h := tp.Tanh(tp.MatMul(av, tp.Const(b)))
			return tp.Add(h, av).Value
		}
		first := run()
		want := first.Clone()
		tp.Reset()

		before := tensor.Allocs()
		second := run()
		if got := tensor.Allocs() - before; got != 0 {
			t.Fatalf("warm replay allocated %d matrices, want 0", got)
		}
		if first != second {
			t.Fatalf("warm replay returned a different header: %p vs %p", first, second)
		}
		for i, v := range second.Data {
			if v != want.Data[i] {
				t.Fatalf("warm replay element %d = %g, want %g", i, v, want.Data[i])
			}
		}
	})
}

// arenaBytes is the memory held by the tape's value slabs.
func arenaBytes(tp *Tape) int {
	n := 0
	for _, b := range tp.arena.data {
		n += len(b)
	}
	return 8 * n // bytes of float64
}

// TestGrowingRequestKeepsOnePass replays a pass whose one dedicated
// request, in the middle, grows every pass (as a batch with a longer plan
// grows the stacked X·Wx). The block too small for it is replaced where it
// stands, so the arena stays at one pass of standard slabs plus that
// request, and the requests after it reuse the blocks they had.
func TestGrowingRequestKeepsOnePass(t *testing.T) {
	std := slabValues
	tp := NewInferenceTape()
	pass := func(big int) {
		tp.Reset()
		for i := 0; i < 20; i++ {
			tp.NewMatrix(64, 64)
		}
		tp.NewMatrix(1, big)
		for i := 0; i < 20; i++ {
			tp.NewMatrix(64, 64)
		}
	}
	pass(std + 1)
	small := arenaBytes(tp) - 8*(std+1)
	for k := 2; k <= 6; k++ {
		big := std + k*4096
		pass(big)
		if got, limit := arenaBytes(tp), small+8*big; got > limit {
			t.Fatalf("pass %d: arena holds %d bytes, want at most one pass of standard slabs (%d) plus the %d-value request", k, got, small, big)
		}
	}
	before := arenaBytes(tp)
	pass(std + 6*4096)
	if got := arenaBytes(tp); got != before {
		t.Fatalf("an identical replay grew the arena from %d to %d bytes", before, got)
	}
}

// TestResetPinsNoLeaf walks everything a tape reaches after a Backward and
// a Reset: nothing may point at a leaf's Var, value or gradient, so a
// tape parked in a pool keeps no model alive, and the pass's weight
// transposes are dropped too.
func TestResetPinsNoLeaf(t *testing.T) {
	w1, b1, w2, b2, x := arenaFixture(5)
	tp := NewTape()
	pv := [4]*Var{tp.Param(w1), tp.Param(b1), tp.Param(w2), tp.Param(b2)}
	tp.Backward(mlpForward(tp, pv[0], pv[1], pv[2], pv[3], x))
	if len(tp.leafT) == 0 {
		t.Fatal("the fixture's Backward transposed no weight; the test shows nothing")
	}
	tp.Reset()
	if len(tp.leafT) != 0 {
		t.Fatalf("Reset kept %d leaf transposes", len(tp.leafT))
	}

	pinned := map[uintptr]string{}
	for i, v := range pv {
		pinned[uintptr(unsafe.Pointer(v))] = fmt.Sprintf("leaf %d's Var", i)
		pinned[uintptr(unsafe.Pointer(v.Value))] = fmt.Sprintf("leaf %d's value", i)
		pinned[uintptr(unsafe.Pointer(&v.Value.Data[0]))] = fmt.Sprintf("leaf %d's value data", i)
		pinned[uintptr(unsafe.Pointer(v.Grad))] = fmt.Sprintf("leaf %d's gradient", i)
		pinned[uintptr(unsafe.Pointer(&v.Grad.Data[0]))] = fmt.Sprintf("leaf %d's gradient data", i)
	}
	seen := map[uintptr]bool{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			p := v.Pointer()
			if what, ok := pinned[p]; ok {
				t.Fatalf("reset tape reaches %s through %s", what, path)
			}
			if !seen[p] {
				seen[p] = true
				walk(path, v.Elem())
			}
		case reflect.Slice:
			if v.IsNil() {
				return
			}
			if what, ok := pinned[v.Pointer()]; ok {
				t.Fatalf("reset tape reaches %s through %s", what, path)
			}
			full := v.Slice3(0, v.Cap(), v.Cap()) // what the backing array keeps past len, too
			for i := 0; i < full.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), full.Index(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		}
	}
	walk("tape", reflect.ValueOf(tp))
}
