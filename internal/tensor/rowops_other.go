//go:build !amd64

package tensor

// Off amd64 the Go loops of rowops.go are the only row kernels.

func dotRowsVec(dst, x, m []float64, rows []int32) bool { return false }

func axpyRowsVec(acc, x, m []float64, rows []int32, g []float64) bool { return false }
