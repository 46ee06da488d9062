package tensor

// This file selects the AVX2 row kernels of rowops_amd64.s (DESIGN §5y).
// They run where the matmul kernels do (useAVX2): they use no FMA, only a
// separately rounded VMULPD and VADDPD. Both kernels take m's row indices
// and its row stride, ld elements, and cover the first n columns only, n
// a positive multiple of 4; the Go callers below finish the last len(x)%4
// columns in the same order, and have checked every row index already.

// dot4AVX2 sets dst[j] = Σ_{d<n} x[d]·m[rows[j]·ld+d] for j < 4, one lane
// per row, each lane summed in ascending d from +0. Rows may repeat.
//
//go:noescape
func dot4AVX2(dst *[4]float64, x, m *float64, rows *[4]int32, n, ld int)

// axpyRowsAVX2 is axpyRowsGo over the first n columns for the k ≥ 1 rows
// at rows and the k coefficients at coef.
//
//go:noescape
func axpyRowsAVX2(acc, x, m *float64, rows *int32, coef *float64, k, n, ld int)

// dotRowsVec runs DotRowsInto four rows at a time through dot4AVX2,
// repeating the last row to fill the final group. It reports false, having
// done nothing, when the CPU lacks AVX2 or x is shorter than 4.
func dotRowsVec(dst, x, m []float64, rows []int32) bool {
	ld := len(x)
	n := ld &^ 3
	if !useAVX2 || n == 0 {
		return false
	}
	var s [4]float64
	var idx [4]int32
	for i := 0; i < len(rows); i += 4 {
		for j := range idx {
			idx[j] = rows[min(i+j, len(rows)-1)]
		}
		dot4AVX2(&s, &x[0], &m[0], &idx, n, ld)
		for d := n; d < ld; d++ {
			for j, r := range idx {
				s[j] += x[d] * m[int(r)*ld+d]
			}
		}
		copy(dst[i:], s[:min(4, len(rows)-i)])
	}
	return true
}

// axpyRowsVec runs AxpyRows through axpyRowsAVX2. Same false return as
// dotRowsVec.
func axpyRowsVec(acc, x, m []float64, rows []int32, g []float64) bool {
	ld := len(x)
	n := ld &^ 3
	if !useAVX2 || n == 0 {
		return false
	}
	if len(rows) > 0 {
		axpyRowsAVX2(&acc[0], &x[0], &m[0], &rows[0], &g[0], len(rows), n, ld)
	}
	for i, r := range rows {
		v := m[int(r)*ld:][:ld]
		for d := n; d < ld; d++ {
			acc[d] += g[i] * v[d]
			v[d] += g[i] * x[d]
		}
	}
	return true
}
