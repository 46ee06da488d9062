package autodiff

import (
	"math"
	"testing"

	"raal/internal/tensor"
)

// Fully-masked rows are the degenerate case of both softmax primitives: a
// leaf node has no children (SoftmaxRowsMask2D) and a zero-length plan
// prefix has no real nodes (SoftmaxRows). The contract is that such rows
// produce an all-zero probability row and contribute nothing to the
// input's gradient — previously this was only exercised indirectly through
// whole-model forward passes.

func TestSoftmaxRowsFullyMasked(t *testing.T) {
	tp := NewTape()
	a := tp.Param(tensor.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	mask := []bool{false, false, false}
	sm := tp.SoftmaxRows(a, mask)
	for i, v := range sm.Value.Data {
		if v != 0 {
			t.Fatalf("fully masked softmax entry %d = %v, want 0", i, v)
		}
	}

	// Backward through a reduction: the input's gradient must stay zero.
	tp.Backward(tp.SumAll(sm))
	if a.Grad != nil {
		for i, g := range a.Grad.Data {
			if g != 0 {
				t.Fatalf("fully masked softmax leaked gradient %v at %d", g, i)
			}
		}
	}
}

func TestSoftmaxRowsPartialMask(t *testing.T) {
	tp := NewTape()
	a := tp.Param(tensor.FromSlice(1, 4, []float64{1, 100, 2, 100}))
	mask := []bool{true, false, true, false}
	sm := tp.SoftmaxRows(a, mask)
	row := sm.Value.Row(0)
	if row[1] != 0 || row[3] != 0 {
		t.Fatalf("masked columns got probability: %v", row)
	}
	if math.Abs(row[0]+row[2]-1) > 1e-12 {
		t.Fatalf("unmasked columns should sum to 1: %v", row)
	}

	// Weight the output so the softmax gradient is non-trivial, then check
	// masked columns receive exactly zero gradient and unmasked ones do
	// not.
	w := tp.Const(tensor.FromSlice(1, 4, []float64{1, 1, 2, 1}))
	tp.Backward(tp.SumAll(tp.Mul(sm, w)))
	g := a.Grad.Data
	if g[1] != 0 || g[3] != 0 {
		t.Fatalf("masked columns leaked gradient: %v", g)
	}
	if g[0] == 0 || g[2] == 0 {
		t.Fatalf("unmasked columns should receive gradient: %v", g)
	}
}

func TestSoftmaxRowsMask2DFullyMaskedRow(t *testing.T) {
	tp := NewTape()
	a := tp.Param(tensor.FromSlice(3, 3, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}))
	mask := [][]bool{
		{false, false, false}, // leaf: attends over nothing
		{true, false, true},
		{false, true, false},
	}
	sm := tp.SoftmaxRowsMask2D(a, mask)
	for j := 0; j < 3; j++ {
		if sm.Value.At(0, j) != 0 {
			t.Fatalf("fully masked row 0 has probability at col %d: %v", j, sm.Value.Row(0))
		}
	}
	var sum1 float64
	for j := 0; j < 3; j++ {
		sum1 += sm.Value.At(1, j)
	}
	if math.Abs(sum1-1) > 1e-12 {
		t.Fatalf("row 1 should still normalize: %v", sm.Value.Row(1))
	}
	if sm.Value.At(2, 1) != 1 {
		t.Fatalf("single-child row should put all mass on the child: %v", sm.Value.Row(2))
	}

	w := tp.Const(tensor.FromSlice(3, 3, []float64{
		5, 5, 5,
		1, 1, 3,
		1, 2, 1,
	}))
	tp.Backward(tp.SumAll(tp.Mul(sm, w)))
	g := a.Grad
	for j := 0; j < 3; j++ {
		if g.At(0, j) != 0 {
			t.Fatalf("fully masked row leaked gradient: %v", g.Row(0))
		}
	}
	if g.At(1, 1) != 0 {
		t.Fatalf("masked entry (1,1) leaked gradient: %v", g.Row(1))
	}
	if g.At(1, 0) == 0 || g.At(1, 2) == 0 {
		t.Fatalf("unmasked entries of row 1 should receive gradient: %v", g.Row(1))
	}
	// A single-child row's softmax is constant (always 1), so its input
	// gradient is exactly zero everywhere.
	for j := 0; j < 3; j++ {
		if g.At(2, j) != 0 {
			t.Fatalf("constant single-child row should have zero gradient: %v", g.Row(2))
		}
	}
}
