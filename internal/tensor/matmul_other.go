//go:build !amd64

package tensor

// Off amd64 the portable Go loops are the only matmul kernels.

func matMulRowsSIMD[T Float](out, a, b *Mat[T]) bool { return false }

func matMulTransAColsSIMD[T Float](out, a, b *Mat[T], jlo, jhi int) bool { return false }

func matMulTransBRowsSIMD[T Float](out, a, b *Mat[T]) bool { return false }
