package tensor

import "math"

// This file selects the AVX2 activation kernels of act_amd64.s (DESIGN
// §5r). Their contract is stricter than "close": every element is bit-equal
// to 1/(1+math.Exp(-x)) and math.Tanh(x), NaN payloads included, because
// the kernels redo math.Exp's FMA path lane by lane. That path is the one
// math.Exp takes on a CPU with AVX and FMA, so the kernels run only there:
// the gate is AVX2 (useAVX2) plus FMA, and a probe of a few inputs must
// then agree with the math library bit for bit (it does not under
// GODEBUG=cpu.fma=off, which sends math.Exp down its other path).

// useVecAct is fixed once at init, like useAVX2.
var useVecAct = useAVX2 && cpuHasFMA() && vecActAgrees()

// cpuHasFMA reports CPUID.1:ECX bit 12. useAVX2 has already checked that
// the OS saves the YMM state.
func cpuHasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// vecActAgrees runs both kernels on 80 inputs, one per 0.5 across
// [−20, 20), and compares them with the math library bit for bit.
func vecActAgrees() bool {
	var src, sig, th [80]float64
	for i := range src {
		src[i] = float64(i)/2 - 20 + 0.1234567
	}
	sigmoidAVX2(sig[:], src[:])
	tanhAVX2(th[:], src[:])
	for i, x := range src {
		if sig[i] != 1/(1+math.Exp(-x)) || th[i] != math.Tanh(x) {
			return false
		}
	}
	return true
}

// sigmoidAVX2 sets dst[i] = 1/(1+math.Exp(-src[i])) for every i <
// len(src), which must be a multiple of 4 and at most len(dst). dst may
// be src.
//
//go:noescape
func sigmoidAVX2(dst, src []float64)

// tanhAVX2 is sigmoidAVX2 for math.Tanh.
//
//go:noescape
func tanhAVX2(dst, src []float64)

// sigmoidVec runs the kernel over the longest multiple-of-4 prefix of src
// and returns its length: 0 when the kernels are not selected.
func sigmoidVec(dst, src []float64) int {
	if !useVecAct {
		return 0
	}
	n := len(src) &^ 3
	sigmoidAVX2(dst[:n], src[:n])
	return n
}

// tanhVec is sigmoidVec for tanh.
func tanhVec(dst, src []float64) int {
	if !useVecAct {
		return 0
	}
	n := len(src) &^ 3
	tanhAVX2(dst[:n], src[:n])
	return n
}
