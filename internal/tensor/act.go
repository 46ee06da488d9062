package tensor

import (
	"fmt"
	"math"
)

// Act selects an activation for the fused and specialized elementwise
// kernels below. Keeping the enum at the tensor layer lets the hot
// forward path dispatch once per matrix instead of calling a function
// value per element — the autodiff tape maps its own activation enum
// onto this one.
type Act uint8

// Supported activations. Formulas match the autodiff ops bit for bit:
// sigmoid is 1/(1+e^−x), ReLU is max(0,x) with x>0 as the open branch.
const (
	ActNone Act = iota
	ActSigmoid
	ActTanh
	ActReLU
)

// The slice kernels below run a []float64's multiple-of-4 prefix through
// the AVX2 + FMA kernels where the CPU has them (act_amd64.go, DESIGN §5r)
// and the rest through the scalar loop. The kernels' contract is
// exactness: every element bit-equal to the loop's 1/(1+math.Exp(-x)) or
// math.Tanh(x), NaN payloads included (TestVecActMatchesMath). The loop
// is the math library call, and is the only path for a named float64
// type and off amd64. The assertion runs once per slice; dst may alias
// src.

func sigmoidSlice[T Float](dst, src []T) {
	if d, ok := any(dst).([]float64); ok {
		n := sigmoidVec(d, any(src).([]float64))
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] = T(1 / (1 + math.Exp(-float64(v))))
	}
}

func tanhSlice[T Float](dst, src []T) {
	if d, ok := any(dst).([]float64); ok {
		n := tanhVec(d, any(src).([]float64))
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] = T(math.Tanh(float64(v)))
	}
}

func reluSlice[T Float](dst, src []T) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// SoftmaxRowInto writes the masked softmax of in to out. mask (nil = all
// true) selects which entries may receive probability: masked-out entries
// get exactly 0, and a fully masked row becomes all zeros. The sum
// accumulates in ascending column order. out may alias in.
func SoftmaxRowInto[T Float](out, in []T, mask []bool) {
	maxv := T(math.Inf(-1))
	for j, x := range in {
		if (mask == nil || mask[j]) && x > maxv {
			maxv = x
		}
	}
	if math.IsInf(float64(maxv), -1) {
		for j := range out {
			out[j] = 0
		}
		return
	}
	for j, x := range in {
		if mask == nil || mask[j] {
			out[j] = T(math.Exp(float64(x - maxv)))
		} else {
			out[j] = 0
		}
	}
	var sum T
	for _, e := range out {
		sum += e // masked entries add an exact zero
	}
	for j := range out {
		out[j] /= sum
	}
}

// SigmoidInto computes out = σ(m) elementwise. out may alias m.
func SigmoidInto[T Float](out, m *Mat[T]) {
	mustOutShape("sigmoid", out, m)
	sigmoidSlice(out.Data, m.Data)
}

// TanhInto computes out = tanh(m) elementwise. out may alias m.
func TanhInto[T Float](out, m *Mat[T]) {
	mustOutShape("tanh", out, m)
	tanhSlice(out.Data, m.Data)
}

// ReLUInto computes out = max(0, m) elementwise. out may alias m.
func ReLUInto[T Float](out, m *Mat[T]) {
	mustOutShape("relu", out, m)
	reluSlice(out.Data, m.Data)
}

// AddRowActInto fuses bias broadcast and activation: out[i][j] =
// act(m[i][j] + r[j]). It is the specialized-dispatch variant of
// AddRowApplyInto — the activation is selected once per call and applied
// to the biased values in place, so the inner loops run without a
// per-element indirect call. out may alias m.
func AddRowActInto[T Float](out, m, r *Mat[T], act Act) {
	AddRowInto(out, m, r)
	switch act {
	case ActNone:
	case ActSigmoid:
		sigmoidSlice(out.Data, out.Data)
	case ActTanh:
		tanhSlice(out.Data, out.Data)
	case ActReLU:
		reluSlice(out.Data, out.Data)
	default:
		panic(fmt.Sprintf("tensor: unknown Act(%d)", act))
	}
}

// LSTMCellInto applies one fused LSTM cell update. z is the batch×4h gate
// pre-activation in gate order i|f|g|o, b the 1×4h packed gate bias and
// cPrev the batch×h cell state; c receives the new cell state, tc its tanh
// and h the hidden state:
//
//	i,f,o = σ(z+b)   g = tanh(z+b)
//	c     = f∘cPrev + i∘g,   tc = tanh(c),   h = o∘tc
//
// One pass replaces the op chain's four column slices, four bias+
// activation kernels and five elementwise ops. z is consumed: it is left
// holding the gate activations, which with cPrev and tc are all a backward
// pass reads. tc may be h when nothing keeps it. Every intermediate rounds
// exactly where the chain rounds it — the explicit conversions on the two
// products forbid a fused multiply-add — so the result is bit-identical to
// that chain, and elements are independent, so it is bit-identical across
// worker counts. No output may alias z or cPrev, nor h or tc alias c.
func LSTMCellInto[T Float](h, tc, c, cPrev, z, b *Mat[T]) {
	n := cPrev.Cols
	if z.Rows != cPrev.Rows || z.Cols != 4*n {
		panic(fmt.Sprintf("tensor: lstmCell z shape %dx%d, want %dx%d", z.Rows, z.Cols, cPrev.Rows, 4*n))
	}
	for _, out := range [...]*Mat[T]{h, tc, c} {
		mustOutShape("lstmCell", out, cPrev)
		if sameData(out, z) || sameData(out, cPrev) {
			panic("tensor: lstmCell outputs must not alias z or cPrev")
		}
	}
	AddRowInto(z, z, b)
	for r := 0; r < z.Rows; r++ {
		zr := z.Row(r)
		sigmoidSlice(zr[:2*n], zr[:2*n])
		tanhSlice(zr[2*n:3*n], zr[2*n:3*n])
		sigmoidSlice(zr[3*n:], zr[3*n:])
		zi, zf, zg, zo := zr[:n], zr[n:2*n], zr[2*n:3*n], zr[3*n:]
		cr, tcr, hr := c.Row(r), tc.Row(r), h.Row(r)
		for j, cp := range cPrev.Row(r) {
			cr[j] = T(zf[j]*cp) + T(zi[j]*zg[j])
		}
		tanhSlice(tcr, cr)
		for j, o := range zo {
			hr[j] = o * tcr[j]
		}
	}
}
