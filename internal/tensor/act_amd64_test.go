package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// vecActCPU reports whether this CPU can run the activation kernels, which
// is what useVecAct requires before its probe of the math library.
func vecActCPU() bool { return useAVX2 && cpuHasFMA() }

// vecActSpecials are the inputs where math.Exp or math.Tanh changes
// branch, plus the values IEEE arithmetic treats apart. The tests add
// each one's negation and both neighbours.
var vecActSpecials = []float64{
	0, math.Inf(1), math.MaxFloat64, 1,
	math.Float64frombits(0x7ff8000000000000), // the quiet NaN
	math.Float64frombits(0x7ff8000000000001), // quiet, with a payload
	math.Float64frombits(0x7ff0000000000001), // signalling, with a payload
	math.Float64frombits(0x7ff4dead0000beef), // signalling
	math.Float64frombits(0x7fffffffffffffff), // every payload bit set
	5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
	1e-300, 1e-20, 1e-8, 1e-4,
	709.782712893384, 709.78, 709.79, 710, 1e5, 1e10, 3e9, 1e300,
	708.4, 745.1332191019411, 745.1332191019412, 746, 744.44, 740, 720, 707,
	0.625, 44.014845965556525, 22.0074, 354.891356446, 355, 0.3125,
	math.Ln2, math.Ln2 / 2, 0.5 * math.Ln2 / 16,
}

// vecActInputs returns x, −x and both neighbours of each of xs.
func vecActInputs(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			out = append(out, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	return out
}

// checkVecAct runs both kernels over xs (padded to a multiple of 4 lanes)
// and fails on the first element that is not bit-equal to the math
// library. NaNs compare by their bits too, payload and sign included.
func checkVecAct(t *testing.T, xs []float64) {
	t.Helper()
	src := append([]float64(nil), xs...)
	for len(src)%4 != 0 {
		src = append(src, 0)
	}
	sig, th := make([]float64, len(src)), make([]float64, len(src))
	sigmoidAVX2(sig, src)
	tanhAVX2(th, src)
	for i, x := range xs {
		if got, want := sig[i], 1/(1+math.Exp(-x)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sigmoidAVX2(%v = %#x) = %v (%#x), math gives %v (%#x)",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := th[i], math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tanhAVX2(%v = %#x) = %v (%#x), math gives %v (%#x)",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestVecActMatchesMath holds the AVX2 activation kernels to the math
// library, bit for bit, computed here at run time. A toolchain whose math
// package computes Exp or Tanh differently fails it. The fix is then to
// take the kernels out of the gate (the scalar loop is always exact),
// never to compare with a tolerance.
func TestVecActMatchesMath(t *testing.T) {
	if !vecActCPU() {
		t.Skip("no AVX2 + FMA on this CPU")
	}
	t.Run("specials", func(t *testing.T) { checkVecAct(t, vecActInputs(vecActSpecials...)) })
	t.Run("dense", func(t *testing.T) {
		// [−40, 40] at 2⁻¹² with both neighbours of every point.
		var xs []float64
		for i := -40 << 12; i <= 40<<12; i++ {
			xs = append(xs, vecActInputs(float64(i) / (1 << 12))[:3]...)
		}
		checkVecAct(t, xs)
	})
	t.Run("wide", func(t *testing.T) {
		var xs []float64
		for x := -800.0; x <= 800; x += 0.0037 {
			xs = append(xs, x)
		}
		checkVecAct(t, xs)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		xs := make([]float64, 1<<20)
		for i := range xs {
			if i%2 == 0 {
				xs[i] = math.Float64frombits(rng.Uint64())
			} else {
				xs[i] = rng.NormFloat64() * 8
			}
		}
		checkVecAct(t, xs)
	})
	t.Run("slices", func(t *testing.T) {
		if !useVecAct {
			t.Fatal("the CPU runs the kernels but the gate did not select them")
		}
		// Every length 0..11 at odd offsets, in place and out of place,
		// through the dispatching slice kernels: the multiple-of-4 prefix
		// takes the kernel and the rest the scalar loop.
		rng := rand.New(rand.NewSource(5))
		for n := 0; n <= 11; n++ {
			for _, off := range []int{1, 3} {
				for _, inPlace := range []bool{false, true} {
					buf := make([]float64, off+n+2)
					for i := range buf {
						buf[i] = rng.NormFloat64() * 3
					}
					src := append([]float64(nil), buf[off:off+n]...)
					for name, f := range map[string]struct {
						slice func(dst, src []float64)
						want  func(float64) float64
					}{
						"sigmoid": {sigmoidSlice, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
						"tanh":    {tanhSlice, math.Tanh},
					} {
						dst := make([]float64, off+n+2)
						copy(dst, buf)
						out := dst[off : off+n]
						in := src
						if inPlace {
							copy(out, src)
							in = out
						}
						f.slice(out, in)
						for i, x := range src {
							if math.Float64bits(out[i]) != math.Float64bits(f.want(x)) {
								t.Fatalf("%s n=%d off=%d inPlace=%v: element %d = %v, want %v", name, n, off, inPlace, i, out[i], f.want(x))
							}
						}
						if dst[off-1] != buf[off-1] || dst[off+n] != buf[off+n] {
							t.Fatalf("%s n=%d off=%d: wrote outside dst", name, n, off)
						}
					}
				}
			}
		}
	})
}

// TestVecActSelectedWhereCPUHasIt is TestAVX2SelectedWhereCPUHasIt for the
// activation kernels: when /proc/cpuinfo lists both avx2 and fma, the gate
// must have selected them. It also fails when the gate's probe found the
// math library disagreeing with the kernels.
func TestVecActSelectedWhereCPUHasIt(t *testing.T) {
	if flags := cpuFlags(t); !flags["avx2"] || !flags["fma"] {
		t.Skip("CPU does not report both avx2 and fma")
	}
	if !useVecAct {
		t.Fatal("/proc/cpuinfo lists avx2 and fma but the package did not select the AVX2 activation kernels")
	}
}

// FuzzActivations holds both kernels to the math library on arbitrary
// float64 bit patterns, each run with its negation and its two neighbours.
// The seeds in testdata/fuzz/FuzzActivations are the branch points of
// math.Exp and math.Tanh, ±0, ±Inf, NaNs with payloads and the smallest
// subnormal and normal.
func FuzzActivations(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64) {
		if !vecActCPU() {
			t.Skip("no AVX2 + FMA on this CPU")
		}
		checkVecAct(t, vecActInputs(math.Float64frombits(bits)))
	})
}
