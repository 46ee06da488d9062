package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkActivations runs the float64 sigmoid and tanh slice kernels on
// the row widths the LSTM cell hands them at Hidden 48: h = 48 (tanh of
// the cell state, the o gate), 2h = 96 (the i|f gates) and 4h = 192 (a
// whole gate row, as AddRowActInto applies it in training). Inputs are
// normal with standard deviation 2, a spread of pre-activations that puts
// lanes on both sides of tanh's 0.625 branch point. Each op takes the
// next of 64 different rows, so a branch predictor cannot learn one row.
func BenchmarkActivations(b *testing.B) {
	const rows = 64
	for _, n := range []int{48, 96, 192} {
		rng := rand.New(rand.NewSource(1))
		src, dst := make([]float64, rows*n), make([]float64, n)
		for i := range src {
			src[i] = 2 * rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("sigmoid/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := i % rows
				sigmoidSlice(dst, src[r*n:(r+1)*n])
			}
		})
		b.Run(fmt.Sprintf("tanh/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := i % rows
				tanhSlice(dst, src[r*n:(r+1)*n])
			}
		})
	}
}
