package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// naiveMatMul is the textbook triple loop: the reference the blocked
// kernels must match bit for bit (they reorder no per-element additions,
// so equality is exact, not approximate).
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			m.Data[i] = 0 // exercise the zero-skip fast path
		}
	}
	return m
}

func mustEqual(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) want (%d,%d)", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) { // NaN == NaN here
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// oddView returns a copy of m whose Data starts at an odd element offset
// of a larger buffer, so no row start is vector-aligned.
func oddView(rng *rand.Rand, m *Matrix) *Matrix {
	off := 1 + 2*rng.Intn(4)
	buf := make([]float64, off+len(m.Data)+3)
	copy(buf[off:], m.Data)
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: buf[off : off+len(m.Data)]}
}

// wideCols are output widths on both sides of one, two and three of the
// float64 kernel's 64-column AVX-512 blocks, and past them.
var wideCols = []int{63, 64, 65, 127, 128, 129, 191, 192, 193, 200}

// TestBlockedMatMulMatchesNaive pins the register-blocked kernels to the
// reference on shapes that hit every column block and tail of both the Go
// loops (8, 4, 1) and the AVX2 kernels (16 and a masked 1..15), row
// counts on both sides of transBMinRows, an empty
// inner dimension, and operands at unaligned offsets. The last trials run
// each of wideCols aligned and at odd offsets, through the AVX-512 block
// where the CPU has it.
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200+2*len(wideCols); trial++ {
			m := 1 + rng.Intn(12)
			k := rng.Intn(71)
			n := 1 + rng.Intn(40)
			if trial >= 200 {
				n = wideCols[(trial-200)/2]
			}
			a := randMat(rng, m, k)
			b := randMat(rng, k, n)
			if trial%2 == 1 {
				a, b = oddView(rng, a), oddView(rng, b)
			}
			want := naiveMatMul(a, b)

			mustEqual(t, MatMul(a, b), want, "MatMul")

			out := oddView(rng, randMat(rng, m, n)) // dirty output: Into must overwrite fully
			MatMulInto(out, a, b)
			mustEqual(t, out, want, "MatMulInto")

			// a·b = (aᵀ)ᵀ·b and a·b = a·(bᵀ)ᵀ exercise the transposed kernels.
			at := oddView(rng, a.Transpose())
			outA := oddView(rng, randMat(rng, m, n))
			MatMulTransAInto(outA, at, b)
			mustEqual(t, outA, want, "MatMulTransAInto")
			mustEqual(t, MatMulTransA(at, b), want, "MatMulTransA")

			bt := b.Transpose()
			wantTB := MatMulTransB(a, bt)
			mustEqual(t, wantTB, want, "MatMulTransB") // dot-product form, same order ⇒ exact
			outB := randMat(rng, m, n)
			MatMulTransBInto(outB, a, bt)
			mustEqual(t, outB, wantTB, "MatMulTransBInto")
		}
	})
}

// TestIntoKernelsMatchAllocating cross-checks every element-wise Into
// kernel against its allocating counterpart on random shapes, both into a
// fresh output and aliased onto an input (element-wise kernels permit
// aliasing).
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(7)
		c := 1 + rng.Intn(9)
		a := randMat(rng, r, c)
		b := randMat(rng, r, c)
		row := randMat(rng, 1, c)

		cases := []struct {
			name string
			want *Matrix
			into func(out *Matrix)
		}{
			{"AddInto", Add(a, b), func(out *Matrix) { AddInto(out, a, b) }},
			{"SubInto", Sub(a, b), func(out *Matrix) { SubInto(out, a, b) }},
			{"MulInto", Mul(a, b), func(out *Matrix) { MulInto(out, a, b) }},
			{"ScaleInto", Scale(a, 1.7), func(out *Matrix) { ScaleInto(out, a, 1.7) }},
			{"AddRowInto", AddRow(a, row), func(out *Matrix) { AddRowInto(out, a, row) }},
		}
		for _, tc := range cases {
			out := randMat(rng, r, c)
			tc.into(out)
			mustEqual(t, out, tc.want, tc.name)
		}

		// Aliased element-wise writes are explicitly supported.
		ac := a.Clone()
		AddInto(ac, ac, b)
		mustEqual(t, ac, Add(a, b), "AddInto aliased out==a")
		mc := a.Clone()
		MulInto(mc, mc, b)
		mustEqual(t, mc, Mul(a, b), "MulInto aliased out==a")
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 3, 5)
	out := randMat(rng, 5, 3)
	TransposeInto(out, a)
	mustEqual(t, out, a.Transpose(), "TransposeInto")
}

// TestIntoKernelsPanicOnAliasing pins the contract that reduction-style
// kernels (matmuls, transpose) refuse in-place operation: aliasing their
// output onto an input would read half-written values.
func TestIntoKernelsPanicOnAliasing(t *testing.T) {
	sq := New(4, 4)
	cases := []struct {
		name string
		call func()
	}{
		{"MatMulInto out==a", func() { MatMulInto(sq, sq, New(4, 4)) }},
		{"MatMulInto out==b", func() { MatMulInto(sq, New(4, 4), sq) }},
		{"MatMulTransAInto out==a", func() { MatMulTransAInto(sq, sq, New(4, 4)) }},
		{"MatMulTransBInto out==b", func() { MatMulTransBInto(sq, New(4, 4), sq) }},
		{"TransposeInto out==m", func() { TransposeInto(sq, sq) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", tc.name)
				}
			}()
			tc.call()
		})
	}
}

func TestIntoKernelsPanicOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shaped output should panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 4))
}

// TestStringPreviewTruncates pins the corner-preview String format: large
// matrices must render a bounded preview, not megabytes of digits.
func TestStringPreviewTruncates(t *testing.T) {
	big := New(100, 100)
	for i := range big.Data {
		big.Data[i] = float64(i)
	}
	s := big.String()
	if len(s) > 200 {
		t.Fatalf("String() of a 100x100 matrix is %d bytes; want a bounded preview: %q", len(s), s)
	}
	if !strings.Contains(s, "100x100") {
		t.Fatalf("preview should include the shape, got %q", s)
	}
	if !strings.Contains(s, "...") {
		t.Fatalf("truncated preview should carry an ellipsis, got %q", s)
	}

	small := FromSlice(1, 3, []float64{1, 2, 3})
	ss := small.String()
	if strings.Contains(ss, "...") {
		t.Fatalf("small matrices should print in full, got %q", ss)
	}
	for _, want := range []string{"1", "2", "3"} {
		if !strings.Contains(ss, want) {
			t.Fatalf("small preview missing %s: %q", want, ss)
		}
	}
}
