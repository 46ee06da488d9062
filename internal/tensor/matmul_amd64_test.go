package tensor

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestAVX2SelectedWhereCPUHasIt guards the CPUID gate on Linux: when the
// kernel reports avx2 (it lists it only if it also saves the YMM state),
// the package must have chosen the AVX2 kernels, so a detection bug cannot
// silently fall back to the Go loops and give the speed back.
func TestAVX2SelectedWhereCPUHasIt(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, f := range strings.Fields(flags) {
			if f == "avx2" {
				if !useAVX2 {
					t.Fatal("/proc/cpuinfo lists avx2 but the package did not select the AVX2 kernels")
				}
				return
			}
		}
		t.Skip("CPU does not report avx2")
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestSIMDMatchesGeneric pins each AVX2 path to the Go loop it replaces
// on non-finite inputs, which naiveMatMul (no zero skip) cannot judge: Inf
// and NaN in b against 0, −0 and NaN in a. A skipped ±0 must not turn
// 0·Inf into NaN; a NaN in a must not be skipped; a·bᵀ, whose Go loop
// does not skip, must decline a non-finite b and take a finite one.
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
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		k := rng.Intn(71)
		n := 1 + rng.Intn(40)
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

		// aᵀ·b over a random column range [jlo, jhi), as a worker owns it.
		at := oddView(rng, a.Transpose())
		jlo := rng.Intn(n)
		jhi := jlo + 1 + rng.Intn(n-jlo)
		gotA, wantA := NewMat[T](m, n), NewMat[T](m, n)
		if !matMulTransAColsSIMD(gotA, at, b, jlo, jhi) {
			t.Fatal("matMulTransAColsSIMD declined a float matrix")
		}
		matMulTransAColsGo(wantA, at, b, jlo, jhi)
		mustEqual(t, gotA, wantA, "matMulTransAColsSIMD vs matMulTransAColsGo")

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
