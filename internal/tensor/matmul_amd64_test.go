package tensor

import (
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

// vecMatAVX2 is vecMat without the AVX-512 block: the AVX2 kernel of T's
// width alone, so it stays tested on CPUs where vecMat hands every full
// 64-column block to vecMatF64AVX512.
func vecMatAVX2[T Float](out, a []T, lda int, b []T, ldb, k int) {
	switch o := any(out).(type) {
	case []float64:
		vecMatF64(o, any(a).([]float64), lda, any(b).([]float64), ldb, k)
	case []float32:
		vecMatF32(o, any(a).([]float32), lda, any(b).([]float32), ldb, k)
	}
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
	bothTypes(t, testSIMDMatchesGeneric[float64], testSIMDMatchesGeneric[float32])
}

func testSIMDMatchesGeneric[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nan, inf := T(math.NaN()), T(math.Inf(1))
	spike := func(m *Mat[T], vals ...T) (*Mat[T], bool) {
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
		a, _ := spike(randMatOf[T](rng, m, k), 0, T(math.Copysign(0, -1)), nan)
		a = oddView(rng, a)
		b, nonFinite := randMatOf[T](rng, k, n), false
		if trial%2 == 1 {
			b, nonFinite = spike(b, inf, -inf, nan)
		}
		b = oddView(rng, b)

		got, want := randMatOf[T](rng, m, n), randMatOf[T](rng, m, n)
		if !matMulRowsSIMD(got, a, b) {
			t.Fatal("matMulRowsSIMD declined a float matrix")
		}
		matMulRowsReg(want, a, b)
		mustEqual(t, got, want, "matMulRowsSIMD vs matMulRowsReg")

		// aᵀ·b over a random column range [jlo, jhi), as a worker owns it;
		// in the wide trials one that holds a 64-column block.
		at := oddView(rng, a.Transpose())
		jlo := rng.Intn(n)
		jhi := jlo + 1 + rng.Intn(n-jlo)
		if trial >= 200 {
			jlo, jhi = jlo%3, n
		}
		gotA, wantA := NewMat[T](m, n), NewMat[T](m, n)
		if !matMulTransAColsSIMD(gotA, at, b, jlo, jhi) {
			t.Fatal("matMulTransAColsSIMD declined a float matrix")
		}
		matMulTransAColsGo(wantA, at, b, jlo, jhi)
		mustEqual(t, gotA, wantA, "matMulTransAColsSIMD vs matMulTransAColsGo")

		rows, cols := randMatOf[T](rng, m, n), NewMat[T](m, n)
		for i := 0; i < m; i++ {
			vecMatAVX2(rows.Row(i), a.Row(i), 1, b.Data, n, k)
			if k > 0 {
				vecMatAVX2(cols.Row(i), at.Data[i:], m, b.Data, n, k)
			}
		}
		mustEqual(t, rows, want, "AVX2 kernel by rows vs matMulRowsReg")
		mustEqual(t, cols, want, "AVX2 kernel by a's columns vs matMulRowsReg")

		bt := oddView(rng, b.Transpose())
		if took, want := matMulTransBRowsSIMD(NewMat[T](m, n), a, bt), m >= transBMinRows && !nonFinite; took != want {
			t.Fatalf("matMulTransBRowsSIMD(m=%d, non-finite b %v) took the AVX2 path = %v", m, nonFinite, took)
		}
		gotB, wantB := randMatOf[T](rng, m, n), randMatOf[T](rng, m, n)
		matMulTransBRows(gotB, a, bt)
		matMulTransBRowsGo(wantB, a, bt)
		mustEqual(t, gotB, wantB, "matMulTransBRows vs matMulTransBRowsGo")
	}
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
// operand order may pick differently), by rows and by a's columns. The
// input's first three bytes give m ≤ 4, k ≤ 70 and n ≤ 200; the rest,
// cycled 8 bytes at a time, give the elements of a and then b
// (fuzzFloat). Where the AVX-512 block runs it must equal the AVX2 kernel
// outright, NaN payloads included. The seeds in testdata/fuzz/FuzzMatMul
// sit on the 64-column block boundaries.
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
		a, b := NewMat[float64](m, k), NewMat[float64](k, n)
		for i := range a.Data {
			a.Data[i] = next()
		}
		for i := range b.Data {
			b.Data[i] = next()
		}
		want := NewMat[float64](m, n)
		matMulRowsReg(want, a, b)

		// run fills every output element through kern, once with a's rows
		// and once with a's columns at stride m. The rows start dirty, so a
		// column the kernel leaves unwritten shows.
		at := a.Transpose()
		run := func(kern func(out, a []float64, lda int, b []float64, ldb, k int)) (rows, cols *Mat[float64]) {
			rows, cols = NewMat[float64](m, n), NewMat[float64](m, n)
			rows.Fill(math.Float64frombits(0x7ff4dead0000beef))
			for i := 0; i < m; i++ {
				kern(rows.Row(i), a.Row(i), 1, b.Data, n, k)
				if k > 0 {
					kern(cols.Row(i), at.Data[i:], m, b.Data, n, k)
				}
			}
			return rows, cols
		}
		rows, cols := run(vecMatF64)
		mustEqual(t, rows, want, "vecMatF64 by rows vs matMulRowsReg")
		mustEqual(t, cols, want, "vecMatF64 by a's columns vs matMulRowsReg")
		if !useAVX512 {
			return
		}
		zRows, zCols := run(vecMatF64Wide)
		for i := range want.Data {
			if math.Float64bits(zRows.Data[i]) != math.Float64bits(rows.Data[i]) ||
				math.Float64bits(zCols.Data[i]) != math.Float64bits(cols.Data[i]) {
				t.Fatalf("m=%d k=%d n=%d element %d: AVX-512 %#x / %#x, AVX2 %#x / %#x (rows / columns)", m, k, n, i,
					math.Float64bits(zRows.Data[i]), math.Float64bits(zCols.Data[i]),
					math.Float64bits(rows.Data[i]), math.Float64bits(cols.Data[i]))
			}
		}
	})
}
