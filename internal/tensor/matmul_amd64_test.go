package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// cpuFlags returns the flags /proc/cpuinfo lists, skipping the test where
// there are none to read. Linux lists an extension only when the kernel
// also saves its registers.
func cpuFlags(t *testing.T) map[string]bool {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		set := map[string]bool{}
		for _, f := range strings.Fields(flags) {
			set[f] = true
		}
		return set
	}
	t.Skip("/proc/cpuinfo has no flags line")
	return nil
}

// TestAVX2SelectedWhereCPUHasIt guards the CPUID gate on Linux: when the
// kernel reports avx2, the package must have chosen the AVX2 kernels, so a
// detection bug cannot silently fall back to the Go loops and give the
// speed back.
func TestAVX2SelectedWhereCPUHasIt(t *testing.T) {
	if !cpuFlags(t)["avx2"] {
		t.Skip("CPU does not report avx2")
	}
	if !useAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 but the package did not select the AVX2 kernels")
	}
}

// TestAVX512SelectedWhereCPUHasIt is the same guard for the 64-column
// AVX-512F block of the float64 kernel.
func TestAVX512SelectedWhereCPUHasIt(t *testing.T) {
	flags := cpuFlags(t)
	if !flags["avx512f"] || !flags["avx2"] {
		t.Skip("CPU does not report avx512f and avx2")
	}
	if !useAVX512 {
		t.Fatal("/proc/cpuinfo lists avx512f but the package did not select the AVX-512 matmul block")
	}
}

// vecMatAVX2 is vecMatF64Wide without the AVX-512 block: the AVX2 kernel
// alone, so it stays tested on CPUs where vecMatF64Wide hands every full
// 64-column block to vecMatF64AVX512.
func vecMatAVX2(out, a []float64, lda int, b []float64, ldb, k int) {
	vecMatF64(out, a, lda, b, ldb, k, false)
}

// TestSIMDMatchesGeneric pins each SIMD path to the Go loop it replaces
// on non-finite inputs, which naiveMatMul (no zero skip) cannot judge: Inf
// and NaN in b against 0, −0 and NaN in a. A skipped ±0 must not turn
// 0·Inf into NaN; a NaN in a must not be skipped; a·bᵀ, whose Go loop
// does not skip, must decline a non-finite b and take a finite one. The
// AVX2 kernels are also called directly, by rows (lda = 1) and by a's
// columns (lda = m), and the last trials run the wide columns on both
// sides of the 64-column blocks.
func TestSIMDMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD kernels on this CPU")
	}
	t.Run("f64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		nan, inf := math.NaN(), math.Inf(1)
		spike := func(m *Matrix, vals ...float64) (*Matrix, bool) {
			hit := false
			for i := range m.Data {
				if rng.Intn(6) == 0 {
					m.Data[i] = vals[rng.Intn(len(vals))]
					hit = true
				}
			}
			return m, hit
		}
		for trial := 0; trial < 200+2*len(wideCols); trial++ {
			m := 1 + rng.Intn(12)
			k := rng.Intn(71)
			n := 1 + rng.Intn(40)
			if trial >= 200 {
				n = wideCols[(trial-200)/2]
			}
			a, _ := spike(randMat(rng, m, k), 0, math.Copysign(0, -1), nan)
			a = oddView(rng, a)
			b, nonFinite := randMat(rng, k, n), false
			if trial%2 == 1 {
				b, nonFinite = spike(b, inf, -inf, nan)
			}
			b = oddView(rng, b)

			got, want := randMat(rng, m, n), randMat(rng, m, n)
			if !matMulRowsSIMD(got, a, b, false) {
				t.Fatal("matMulRowsSIMD declined a float matrix")
			}
			matMulRowsReg(want, a, b)
			mustEqual(t, got, want, "matMulRowsSIMD vs matMulRowsReg")

			// aᵀ·b, the kernel writing over a dirty out; it declines k = 0.
			at := oddView(rng, a.Transpose())
			gotA, wantA := randMat(rng, m, n), New(m, n)
			if matMulTransASIMD(gotA, at, b, false) != (k > 0) {
				t.Fatalf("matMulTransASIMD at k=%d did not take the kernel exactly when k > 0", k)
			}
			matMulTransAGo(wantA, at, b)
			if k > 0 {
				mustEqual(t, gotA, wantA, "matMulTransASIMD vs matMulTransAGo")
			}

			rows, cols := randMat(rng, m, n), New(m, n)
			for i := 0; i < m; i++ {
				vecMatAVX2(rows.Row(i), a.Row(i), 1, b.Data, n, k)
				if k > 0 {
					vecMatAVX2(cols.Row(i), at.Data[i:], m, b.Data, n, k)
				}
			}
			mustEqual(t, rows, want, "AVX2 kernel by rows vs matMulRowsReg")
			mustEqual(t, cols, want, "AVX2 kernel by a's columns vs matMulRowsReg")

			bt := oddView(rng, b.Transpose())
			if took, want := matMulTransBRowsSIMD(New(m, n), a, bt), m >= transBMinRows && !nonFinite; took != want {
				t.Fatalf("matMulTransBRowsSIMD(m=%d, non-finite b %v) took the AVX2 path = %v", m, nonFinite, took)
			}
			gotB, wantB := randMat(rng, m, n), randMat(rng, m, n)
			MatMulTransBInto(gotB, a, bt)
			matMulTransBRowsGo(wantB, a, bt)
			mustEqual(t, gotB, wantB, "MatMulTransBInto vs matMulTransBRowsGo")
		}
	})
}

// fuzzFloat turns 8 fuzz bytes into a float64 whose low four bits choose
// its class: ±0 (2 in 16), ±Inf, a NaN carrying the fraction bits as its
// payload, a subnormal, or (11 in 16) a normal number in [2⁻⁸, 2⁸), so
// sums mix the specials with values that neither overflow nor vanish.
func fuzzFloat(u uint64) float64 {
	sign, frac := u&(1<<63), u>>11&(1<<52-1)
	switch u & 15 {
	case 0, 1:
		return math.Float64frombits(sign)
	case 2:
		return math.Float64frombits(sign | 0x7ff<<52)
	case 3:
		return math.Float64frombits(sign | 0x7ff<<52 | frac | 1)
	case 4:
		return math.Float64frombits(sign | frac)
	}
	return math.Float64frombits(sign | (1015+(u>>4&15))<<52 | frac)
}

// FuzzMatMul holds every float64 kernel this CPU runs to matMulRowsReg,
// the Go loop, bit for bit (NaN payloads aside, which the Go loop's
// operand order may pick differently), by rows and by a's columns, and
// the accumulating mode of each, from a g of fuzzed values, to that
// product added into g by AddInPlace. MatMulAddInto and
// MatMulTransAAddInto (which declines k = 0) are held to the same sum. The input's first three
// bytes give m ≤ 4, k ≤ 70 and n ≤ 200; the rest, cycled 8 bytes at a
// time, give the elements of a, then b, then g (fuzzFloat). Where the
// AVX-512 block runs it must equal the AVX2 kernel outright, NaN payloads
// included, in both modes. The seeds in testdata/fuzz/FuzzMatMul sit on
// the 64-column block boundaries.
func FuzzMatMul(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useAVX2 {
			t.Skip("no SIMD kernels on this CPU")
		}
		if len(data) < 3 {
			return
		}
		m, k, n := int(data[0])%5, int(data[1])%71, int(data[2])%201
		words, w := data[3:], 0
		next := func() float64 {
			var u uint64
			for i := 0; i < 8 && len(words) > 0; i++ {
				u |= uint64(words[w%len(words)]) << (8 * i)
				w++
			}
			return fuzzFloat(u)
		}
		a, b, g := New(m, k), New(k, n), New(m, n)
		for _, mat := range []*Matrix{a, b, g} {
			for i := range mat.Data {
				mat.Data[i] = next()
			}
		}
		want := New(m, n)
		matMulRowsReg(want, a, b)
		wantAdd := g.Clone()
		AddInPlace(wantAdd, want)

		// run fills every output element through kern, once with a's rows
		// and once with a's columns at stride m. Without add the rows start
		// dirty, so a column the kernel leaves unwritten shows; with add
		// both start as g.
		at := a.Transpose()
		run := func(kern func(out, a []float64, lda int, b []float64, ldb, k int, add bool), add bool) (rows, cols *Matrix) {
			rows, cols = New(m, n), New(m, n)
			rows.Fill(math.Float64frombits(0x7ff4dead0000beef))
			if add {
				copy(rows.Data, g.Data)
				copy(cols.Data, g.Data)
			}
			for i := 0; i < m; i++ {
				kern(rows.Row(i), a.Row(i), 1, b.Data, n, k, add)
				kern(cols.Row(i), at.Data[min(i, len(at.Data)):], m, b.Data, n, k, add) // k = 0 reads nothing
			}
			return rows, cols
		}
		for _, add := range []bool{false, true} {
			exp := want
			if add {
				exp = wantAdd
			}
			rows, cols := run(vecMatF64, add)
			mustEqual(t, rows, exp, fmt.Sprintf("vecMatF64 (add %v) by rows", add))
			mustEqual(t, cols, exp, fmt.Sprintf("vecMatF64 (add %v) by a's columns", add))
			if !useAVX512 {
				continue
			}
			zRows, zCols := run(vecMatF64Wide, add)
			for i := range exp.Data {
				if math.Float64bits(zRows.Data[i]) != math.Float64bits(rows.Data[i]) ||
					math.Float64bits(zCols.Data[i]) != math.Float64bits(cols.Data[i]) {
					t.Fatalf("m=%d k=%d n=%d add=%v element %d: AVX-512 %#x / %#x, AVX2 %#x / %#x (rows / columns)", m, k, n, add, i,
						math.Float64bits(zRows.Data[i]), math.Float64bits(zCols.Data[i]),
						math.Float64bits(rows.Data[i]), math.Float64bits(cols.Data[i]))
				}
			}
		}
		plain, transA := g.Clone(), g.Clone()
		if !MatMulAddInto(plain, a, b) {
			t.Fatal("MatMulAddInto declined a float64 product")
		}
		mustEqual(t, plain, wantAdd, "MatMulAddInto")
		if MatMulTransAAddInto(transA, at, b) != (k > 0) {
			t.Fatalf("MatMulTransAAddInto at k=%d did not take the kernel exactly when k > 0", k)
		}
		if k > 0 {
			mustEqual(t, transA, wantAdd, "MatMulTransAAddInto")
		}
	})
}

// The scalar reference below spells out the x86 rules the kernels follow
// for NaN operands, so it pins payloads too: an add or multiply with one
// NaN operand returns that NaN quieted, and with two the first operand's.
// Everything else is one IEEE-754 operation, which Go's own + and * are.
func quietNaN(x float64) float64 { return math.Float64frombits(math.Float64bits(x) | 1<<51) }

func refAdd(x, y float64) float64 {
	switch {
	case x != x:
		return quietNaN(x)
	case y != y:
		return quietNaN(y)
	}
	return x + y
}

func refMul(x, y float64) float64 {
	switch {
	case x != x:
		return quietNaN(x)
	case y != y:
		return quietNaN(y)
	}
	return x * y
}

// addIntoRef is g + a×b element by element, as the accumulating kernels'
// contract states it: each sum starts at +0 and runs in ascending k,
// skipping a's ±0, each product a's element times b's, each add the sum
// first; the sum is then added to g, g first.
func addIntoRef(g, a, b *Matrix) *Matrix {
	out := New(g.Rows, g.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				if av := a.At(i, p); av != 0 {
					s = refAdd(s, refMul(av, b.At(p, j)))
				}
			}
			out.Set(i, j, refAdd(g.At(i, j), s))
		}
	}
	return out
}

// mustBitEqual is mustEqual with NaN payloads compared too.
func mustBitEqual(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	for i := range want.Data {
		if g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); g != w {
			t.Fatalf("%s: element %d = %#x, want %#x", what, i, g, w)
		}
	}
}

// TestAddIntoMatchesScalar holds MatMulAddInto and MatMulTransAAddInto,
// through the AVX2 kernel alone and with the AVX-512 block where the CPU
// has it, to addIntoRef bit for bit, NaN payloads included: widths 0–37
// and 60–200 (the masked AVX2 tails, and full 64-column blocks with a
// tail after them), k from 0 to 20 (aᵀ·b declines k = 0), unaligned
// views. g is preloaded with ±0, ±Inf and NaNs of their own payloads, a
// with ±0 (skipped) and b with a few infinities and NaNs of other
// payloads, so some sums are NaN where g is NaN too and only the operand
// order decides the result.
func TestAddIntoMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD kernels on this CPU")
	}
	defer func(on bool) { useAVX512 = on }(useAVX512)
	paths := map[string]bool{"AVX2": false}
	if useAVX512 {
		paths["AVX-512"] = true
	}
	rng := rand.New(rand.NewSource(46))
	negZero := math.Copysign(0, -1)
	pick := func(m *Matrix, oneIn int, vals ...float64) *Matrix {
		for i := range m.Data {
			if rng.Intn(oneIn) == 0 {
				m.Data[i] = vals[rng.Intn(len(vals))]
			}
		}
		return oddView(rng, m)
	}
	gNaN := math.Float64frombits(0x7ff800000000a001)
	bNaN := math.Float64frombits(0xfff800000000b002)
	var widths []int
	for n := 0; n <= 200; n++ {
		if n <= 37 || n >= 60 {
			widths = append(widths, n)
		}
	}
	for name, wide := range paths {
		useAVX512 = wide
		for _, n := range widths {
			for k := 0; k <= 20; k++ {
				m := 1 + (n+k)%3
				a := pick(randMat(rng, m, k), 3, 0, negZero)
				b := pick(randMat(rng, k, n), 40, math.Inf(1), math.Inf(-1), bNaN)
				g := pick(randMat(rng, m, n), 3, 0, negZero, math.Inf(1), math.Inf(-1), gNaN)
				want := addIntoRef(g, a, b)

				got := oddView(rng, g)
				if !MatMulAddInto(got, a, b) {
					t.Fatal("MatMulAddInto declined a float64 product")
				}
				mustBitEqual(t, got, want, fmt.Sprintf("%s MatMulAddInto m=%d k=%d n=%d", name, m, k, n))

				got = oddView(rng, g)
				if MatMulTransAAddInto(got, oddView(rng, a.Transpose()), b) != (k > 0) {
					t.Fatalf("MatMulTransAAddInto at k=%d did not take the kernel exactly when k > 0", k)
				}
				if k > 0 {
					mustBitEqual(t, got, want, fmt.Sprintf("%s MatMulTransAAddInto m=%d k=%d n=%d", name, m, k, n))
				}
			}
		}
	}
}

// TestAccumulateMatchesScalar holds Accumulate, four lanes at a time and
// the Go tail, to the scalar dst[i] + src[i] at every length up to 40 and
// at odd offsets: bit for bit, and where both operands are NaN with the
// vector lanes keeping dst's payload (the Go tail's is the compiler's
// pick, so it is held only to being NaN). It also checks AddInPlace, its
// matrix form.
func TestAccumulateMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dNaN, sNaN := math.Float64frombits(0x7ff800000000d001), math.Float64frombits(0x7ff800000000e002)
	for n := 0; n <= 40; n++ {
		src := randMat(rng, 1, n)
		dst := randMat(rng, 1, n)
		for i := range dst.Data {
			switch rng.Intn(6) {
			case 0:
				dst.Data[i], src.Data[i] = dNaN, sNaN
			case 1:
				dst.Data[i], src.Data[i] = math.Copysign(0, -1), 0
			case 2:
				dst.Data[i], src.Data[i] = math.Inf(1), math.Inf(-1)
			}
		}
		src, dst = oddView(rng, src), oddView(rng, dst)
		want := New(1, n)
		for i := range want.Data {
			want.Data[i] = refAdd(dst.Data[i], src.Data[i])
		}
		got := oddView(rng, dst)
		Accumulate(got.Data, src.Data)
		mustEqual(t, got, want, fmt.Sprintf("Accumulate, n=%d", n))
		if lanes := n &^ 3; useAVX2 {
			mustBitEqual(t, FromSlice(1, lanes, got.Data[:lanes]), FromSlice(1, lanes, want.Data[:lanes]), fmt.Sprintf("Accumulate's vector lanes, n=%d", n))
		}
		got = oddView(rng, dst)
		AddInPlace(got, src)
		mustEqual(t, got, want, fmt.Sprintf("AddInPlace, n=%d", n))
	}
}
