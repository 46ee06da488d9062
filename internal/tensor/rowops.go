package tensor

import "fmt"

// Row kernels for skip-gram training (DESIGN §5y): the dots of one vector
// with several rows of a row-major matrix, and the row updates of one
// negative-sampling step. Both are float64 only and keep the sequential Go
// loop's arithmetic exactly: every sum runs in ascending d from +0 and every
// product is rounded before it is added (no fused multiply-add), so the
// AVX2 kernels of rowops_amd64.s agree with dotRowsGo and axpyRowsGo bit for
// bit, which stay as their fallback and test oracle.

// DotRowsInto sets dst[i] = Σ_d x[d]·m[rows[i]·len(x)+d] for every i <
// len(rows): x against row rows[i] of m, a matrix of len(x) columns. Rows
// may repeat. dst must hold len(rows) values and must not overlap x or m.
func DotRowsInto(dst, x, m []float64, rows []int32) {
	dst = dst[:len(rows)]
	if len(x) == 0 {
		clear(dst)
		return
	}
	checkRows(m, len(x), rows)
	if !dotRowsVec(dst, x, m, rows) {
		dotRowsGo(dst, x, m, rows)
	}
}

// AxpyRows applies, for i = 0, 1, ... in turn, acc += g[i]·v and then
// v += g[i]·x, where v is row rows[i] of m, a matrix of len(x) columns: so
// acc takes each row's value from before its update. Rows may repeat. acc
// must be len(x) long and overlap neither x nor m, and g must hold
// len(rows) coefficients.
func AxpyRows(acc, x, m []float64, rows []int32, g []float64) {
	acc, g = acc[:len(x)], g[:len(rows)]
	if len(x) == 0 {
		return
	}
	checkRows(m, len(x), rows)
	if !axpyRowsVec(acc, x, m, rows, g) {
		axpyRowsGo(acc, x, m, rows, g)
	}
}

// checkRows panics unless every one of rows is a row of m at n columns,
// which the kernels then read without bounds checks.
func checkRows(m []float64, n int, rows []int32) {
	for _, r := range rows {
		if r < 0 || (int(r)+1)*n > len(m) {
			panic(fmt.Sprintf("tensor: row %d outside a %d-row matrix", r, len(m)/n))
		}
	}
}

func dotRowsGo(dst, x, m []float64, rows []int32) {
	n := len(x)
	for i, r := range rows {
		v := m[int(r)*n:][:n]
		var s float64
		for d, xd := range x {
			s += xd * v[d]
		}
		dst[i] = s
	}
}

func axpyRowsGo(acc, x, m []float64, rows []int32, g []float64) {
	n := len(x)
	for i, r := range rows {
		v := m[int(r)*n:][:n]
		for d := range acc {
			acc[d] += g[i] * v[d]
			v[d] += g[i] * x[d]
		}
	}
}
