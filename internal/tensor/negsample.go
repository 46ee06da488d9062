package tensor

import (
	"fmt"
	"math"
)

// NegSampleStep applies one skip-gram negative-sampling step (DESIGN §5y)
// to input row x and the rows of m, a row-major matrix of len(x) columns.
// rows[0] is the context word's row, with label 1; every later row is a
// negative sample's, with label 0. runs cuts rows into consecutive runs
// of the given lengths, none of which holds a row twice. Per run, every
// row's coefficient g = lr·(label − σ(x·v)) is taken from the rows as they
// stand, each dot summed in ascending column order from +0 and σ(s) being
// 1/(1+math.Exp(−s)); then, row by row in order, acc += g·v and v += g·x.
// After the last run x += acc, acc having started at +0. Every product is
// rounded before it is added (no fused multiply-add), so the result is
// that of applying the samples one at a time, bit for bit.
//
// buf is scratch of at least len(x)+len(rows)+3 values. x and buf must
// overlap neither m nor each other.
func NegSampleStep(x, m []float64, rows, runs []int32, lr float64, buf []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	total := 0
	for _, k := range runs {
		if k <= 0 {
			panic(fmt.Sprintf("tensor: run of %d rows", k))
		}
		total += int(k)
	}
	if total != len(rows) || len(buf) < n+len(rows)+3 {
		panic(fmt.Sprintf("tensor: runs cover %d of %d rows, scratch %d of %d values", total, len(rows), len(buf), n+len(rows)+3))
	}
	for _, r := range rows {
		if r < 0 || (int(r)+1)*n > len(m) {
			panic(fmt.Sprintf("tensor: row %d outside a %d-row matrix", r, len(m)/n))
		}
	}
	if len(runs) > 0 && !negSampleVec(x, m, rows, runs, lr, buf) {
		negSampleGo(x, m, rows, runs, lr, buf[:n], buf[n:])
	}
}

// negSampleGo is NegSampleStep's loop: the fallback where the kernel is
// not selected, and the kernel's test oracle. float64(x*y) rounds each
// product, which keeps the no-fused-multiply-add promise on ports that
// would fuse (DESIGN §5j).
func negSampleGo(x, m []float64, rows, runs []int32, lr float64, acc, g []float64) {
	n := len(x)
	clear(acc)
	start := 0
	for _, k := range runs {
		run := rows[start : start+int(k)]
		for i, r := range run {
			v := m[int(r)*n:][:n]
			var s float64
			for d, xd := range x {
				s += float64(xd * v[d])
			}
			label := 0.0
			if start+i == 0 {
				label = 1
			}
			g[i] = lr * (label - 1/(1+math.Exp(-s)))
		}
		for i, r := range run {
			v := m[int(r)*n:][:n]
			for d := range acc {
				acc[d] += float64(g[i] * v[d])
				v[d] += float64(g[i] * x[d])
			}
		}
		start += len(run)
	}
	for d := range x {
		x[d] += acc[d]
	}
}
