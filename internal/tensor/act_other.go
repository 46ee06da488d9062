//go:build !amd64

package tensor

// Off amd64 the scalar loops of act.go are the only activation kernels.

func sigmoidVec(dst, src []float64) int { return 0 }

func tanhVec(dst, src []float64) int { return 0 }
