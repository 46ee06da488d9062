//go:build !amd64

package tensor

// Off amd64 the portable Go loops are the only matmul and add kernels.

func simdFloat[T Float]() bool { return false }

func matMulRowsSIMD[T Float](out, a, b *Mat[T], add bool) bool { return false }

func matMulTransAColsSIMD[T Float](out, a, b *Mat[T], jlo, jhi int, add bool) bool { return false }

func matMulTransBRowsSIMD[T Float](out, a, b *Mat[T]) bool { return false }

func addVec[T Float](dst, src []T) int { return 0 }
