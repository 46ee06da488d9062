//go:build !amd64

package tensor

// Off amd64 the Go loop of negsample.go is the only skip-gram kernel.

func negSampleVec(x, m []float64, rows, runs []int32, lr float64, buf []float64) bool { return false }
