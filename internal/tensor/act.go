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

// The slice kernels below run a slice's multiple-of-4 prefix through the
// AVX2 + FMA kernels where the CPU has them (act_amd64.go, DESIGN §5r) and
// the rest through the scalar loop. The kernels' contract is exactness:
// every element bit-equal to the loop's 1/(1+math.Exp(-x)) or
// math.Tanh(x), NaN payloads included (TestVecActMatchesMath). The loop is
// the math library call, and is the only path off amd64. dst may alias
// src.

func sigmoidSlice(dst, src []float64) {
	n := sigmoidVec(dst, src)
	dst, src = dst[n:], src[n:]
	for i, v := range src {
		dst[i] = 1 / (1 + math.Exp(-v))
	}
}

func tanhSlice(dst, src []float64) {
	n := tanhVec(dst, src)
	dst, src = dst[n:], src[n:]
	for i, v := range src {
		dst[i] = math.Tanh(v)
	}
}

func reluSlice(dst, src []float64) {
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
func SoftmaxRowInto(out, in []float64, mask []bool) {
	maxv := math.Inf(-1)
	for j, x := range in {
		if (mask == nil || mask[j]) && x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		for j := range out {
			out[j] = 0
		}
		return
	}
	for j, x := range in {
		if mask == nil || mask[j] {
			out[j] = math.Exp(x - maxv)
		} else {
			out[j] = 0
		}
	}
	var sum float64
	for _, e := range out {
		sum += e // masked entries add an exact zero
	}
	for j := range out {
		out[j] /= sum
	}
}

// SigmoidInto computes out = σ(m) elementwise. out may alias m.
func SigmoidInto(out, m *Matrix) {
	mustOutShape("sigmoid", out, m)
	sigmoidSlice(out.Data, m.Data)
}

// TanhInto computes out = tanh(m) elementwise. out may alias m.
func TanhInto(out, m *Matrix) {
	mustOutShape("tanh", out, m)
	tanhSlice(out.Data, m.Data)
}

// ReLUInto computes out = max(0, m) elementwise. out may alias m.
func ReLUInto(out, m *Matrix) {
	mustOutShape("relu", out, m)
	reluSlice(out.Data, m.Data)
}

// AddRowActInto fuses bias broadcast and activation: out[i][j] =
// act(m[i][j] + r[j]). The activation is selected once per call and
// applied to the biased values in place, so the inner loops run without a
// per-element indirect call. out may alias m.
func AddRowActInto(out, m, r *Matrix, act Act) {
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
func LSTMCellInto(h, tc, c, cPrev, z, b *Matrix) {
	n := cPrev.Cols
	if z.Rows != cPrev.Rows || z.Cols != 4*n {
		panic(fmt.Sprintf("tensor: lstmCell z shape %dx%d, want %dx%d", z.Rows, z.Cols, cPrev.Rows, 4*n))
	}
	for _, out := range [...]*Matrix{h, tc, c} {
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
			// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
			cr[j] = float64(zf[j]*cp) + float64(zi[j]*zg[j])
		}
		tanhSlice(tcr, cr)
		for j, o := range zo {
			hr[j] = o * tcr[j]
		}
	}
}
