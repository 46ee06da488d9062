//go:build !amd64

package tensor

// Off amd64 the portable Go loops are the only matmul and add kernels.

// useAVX2 is the AVX2 gate of matmul_amd64.go; no AVX2 kernel exists here.
const useAVX2 = false

func matMulRowsSIMD(out, a, b *Matrix, add bool) bool { return false }

func matMulTransASIMD(out, a, b *Matrix, add bool) bool { return false }

func matMulTransBRowsSIMD(out, a, b *Matrix) bool { return false }

func addVec(dst, src []float64) int { return 0 }
