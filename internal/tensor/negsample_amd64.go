package tensor

// negSampleAVX2 is NegSampleStep for n = 4, 8, 12 or 16 columns, with the
// rows already checked: x and m as base pointers, the nruns ≥ 1 run
// lengths at runs, and buf holding room for the longest run's coefficients
// rounded up to a multiple of 4. It keeps the accumulator in four
// registers, which is what bounds n. It sits beside sigmoidAVX2 in
// act_amd64.s and takes its sigmoids through the same EXP sequence, so it
// runs only where useVecAct holds.
//
//go:noescape
func negSampleAVX2(x, m *float64, rows, runs *int32, nruns, n int, lr float64, buf *float64)

// negSampleVec runs NegSampleStep through negSampleAVX2 and reports true,
// or reports false, having done nothing, where the kernel is not selected.
// The encoder's width, 16, is among the kernel's.
func negSampleVec(x, m []float64, rows, runs []int32, lr float64, buf []float64) bool {
	if !useVecAct || len(x)&3 != 0 || len(x) > 16 {
		return false
	}
	negSampleAVX2(&x[0], &m[0], &rows[0], &runs[0], len(runs), len(x), lr, &buf[0])
	return true
}
