package tensor

import "math"

// Fast float32 transcendentals for the reduced-precision inference path.
// The float64 kernels return exactly what the math library returns
// (1/(1+math.Exp(−x)), math.Tanh(x)): the AVX2 kernels of act_amd64.s,
// bit-equal to those calls, where the CPU has them, and the calls
// themselves elsewhere. Going through float64 from f32 would pay two
// conversions around a double-precision result whose accuracy the narrow
// result then throws away. These variants compute entirely in float32: a
// Cephes-style expf (range reduction by log2(e), degree-5 polynomial,
// exponent reassembly through the float32 bit pattern, ~3e-7 relative
// error) for softmax, and a piecewise-linear sigmoid table serving both
// gate activations (σ directly, tanh through 2σ(2x)−1) at ≲1e-5 absolute
// error — three orders of magnitude inside the quantization error the
// accuracy gate budgets for.
//
// Determinism: each function is a pure branch-and-arithmetic sequence
// over its argument, so results are identical wherever they are called
// from — the kernels built on them keep the bit-identical-across-worker-
// counts contract.

const (
	exp32Hi = 88.0              // keeps n = round(x·log2e) ≤ 127 (finite 2^n)
	exp32Lo = -87.3365447504019 // smallest x before the result underflows
	log2e32 = 1.44269504088896341

	// two-part ln 2 for the range reduction r = x − n·ln2
	expC1 = 0.693359375
	expC2 = -2.12194440e-4

	// e^r on [−ln2/2, ln2/2]: e^r ≈ 1 + r + r²·P(r)
	expP0 = 1.9875691500e-4
	expP1 = 1.3981999507e-3
	expP2 = 8.3334519073e-3
	expP3 = 4.1665795894e-2
	expP4 = 1.6666665459e-1
	expP5 = 5.0000001201e-1
)

// Exp32 returns e^x computed entirely in float32. Out-of-range arguments
// saturate: large x clamps to e^88 ≈ 1.7e38, x below −87.3 returns 0.
func Exp32(x float32) float32 {
	if x > exp32Hi {
		x = exp32Hi
	}
	if x < exp32Lo {
		return 0
	}
	// n = floor(x·log2e + 0.5), branch-free: fx+256 is always positive,
	// so the truncating int conversion is a floor.
	fx := log2e32*x + 0.5
	n := int32(fx+256) - 256
	z := float32(n)
	r := x - z*expC1
	r -= z * expC2
	y := ((((expP0*r+expP1)*r+expP2)*r+expP3)*r+expP4)*r + expP5
	y = y*(r*r) + r + 1
	return y * pow2i32(n)
}

// pow2i32 returns 2^n for n in [−126, 127] via the float32 bit pattern.
func pow2i32(n int32) float32 {
	return math.Float32frombits(uint32(n+127) << 23)
}

// The sigmoid table: σ sampled on sigTabN+1 evenly spaced points over
// [−sigTabMax, sigTabMax], interpolated linearly between neighbors. One
// 8 KiB table serves both gate activations — tanh(x) = 2σ(2x)−1 — and it
// stays hot in L1 through an LSTM unroll. A lookup is two loads and a
// handful of multiplies: no exponential, and unlike the algebraic forms
// of σ and tanh, no float division, which is what makes the quantized
// gate pass measurably cheaper than the float64 one. Max interpolation
// error is ~4e-6 for σ and ~8e-6 for tanh (σ”·h²/8 with h≈0.018);
// beyond the clamp σ is within float32 rounding of 0 or 1.
const (
	sigTabBits = 11
	sigTabN    = 1 << sigTabBits
	sigTabMax  = 18.0
)

var sigTab = func() [sigTabN + 1]float32 {
	var t [sigTabN + 1]float32
	for i := range t {
		x := -sigTabMax + float64(i)*(2*sigTabMax)/sigTabN
		t[i] = float32(1 / (1 + math.Exp(-x)))
	}
	// Pin the endpoints to the asymptotes (σ(±18) is within 2e-8 of
	// them) so clamped lookups saturate exactly: closed gates multiply
	// by 0, and tanh's 2σ−1 lands on ±1 in the tails.
	t[0], t[sigTabN] = 0, 1
	return t
}()

const sigTabScale = sigTabN / (2 * sigTabMax)

// Sigmoid32 returns 1/(1+e^{−x}) in float32 via the interpolated table.
// NaN propagates.
func Sigmoid32(x float32) float32 {
	fx := (x + sigTabMax) * sigTabScale
	if !(fx > 0) {
		if fx != fx {
			return fx // NaN: it must not reach the table index
		}
		return sigTab[0]
	}
	if fx >= sigTabN {
		return sigTab[sigTabN]
	}
	i := int32(fx)
	y0 := sigTab[i]
	return y0 + (fx-float32(i))*(sigTab[i+1]-y0)
}

// Tanh32 returns tanh(x) in float32 via the identity tanh(x) = 2σ(2x)−1
// on the same table.
func Tanh32(x float32) float32 {
	return 2*Sigmoid32(2*x) - 1
}
