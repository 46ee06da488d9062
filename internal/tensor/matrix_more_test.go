package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", name)
		}
	}()
	f()
}

func TestShapePanics(t *testing.T) {
	expectPanic(t, "ConcatCols row mismatch", func() {
		ConcatCols(New(2, 1), New(3, 1))
	})
	expectPanic(t, "ConcatRows col mismatch", func() {
		ConcatRows(New(1, 2), New(1, 3))
	})
	expectPanic(t, "AddRow shape", func() {
		AddRow(New(2, 3), New(1, 2))
	})
	expectPanic(t, "SliceRows bounds", func() {
		New(2, 2).SliceRows(1, 5)
	})
	expectPanic(t, "Add shape", func() {
		Add(New(1, 2), New(2, 1))
	})
	expectPanic(t, "negative dims", func() {
		New(-1, 2)
	})
	expectPanic(t, "MatMulInto out shape", func() {
		MatMulInto(New(1, 1), New(2, 3), New(3, 2))
	})
}

func TestConcatEmptyInputs(t *testing.T) {
	if m := ConcatCols(); m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty ConcatCols = %v", m)
	}
	if m := ConcatRows(); m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty ConcatRows = %v", m)
	}
}

func TestConcatSliceRoundTrip(t *testing.T) {
	// Splitting a matrix into column blocks and re-concatenating must be
	// the identity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		a := Randn(rows, 3, 1, rng)
		b := Randn(rows, 2, 1, rng)
		joined := ConcatCols(a, b)
		backA := New(rows, 3)
		backB := New(rows, 2)
		for i := 0; i < rows; i++ {
			copy(backA.Row(i), joined.Row(i)[:3])
			copy(backB.Row(i), joined.Row(i)[3:])
		}
		return AllClose(a, backA, 0) && AllClose(b, backB, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowAliasesBackingArray(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(1)[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row should alias the matrix storage")
	}
}

func TestFillAndZero(t *testing.T) {
	m := New(2, 2)
	m.Fill(7)
	if m.Sum() != 28 {
		t.Fatalf("Fill: %v", m)
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("Zero: %v", m)
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Uniform(10, 10, -2, 3, rng)
	for _, v := range m.Data {
		if v < -2 || v > 3 {
			t.Fatalf("uniform value %v outside [-2,3]", v)
		}
	}
}
