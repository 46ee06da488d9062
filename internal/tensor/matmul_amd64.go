package tensor

// This file selects the AVX2 matmul kernels of matmul_amd64.s (DESIGN
// §5n), and on CPUs with AVX-512F the float64 kernel's 64-column blocks
// (§5s). The contract is the one every other kernel keeps: each output
// element is accumulated in ascending k, from +0, as a separate multiply
// then add, with a-zeros skipped by a scalar test. The assembly keeps it
// by running SIMD lanes across output columns only — never across k — and
// by using VMULPx/VADDPx, never a fused multiply-add, so its results are
// bit-identical to the portable Go loops (matMulRowsReg,
// matMulTransAGo, matMulTransBRowsGo), which stay as the test oracle.
// The float64 kernel can also add each finished sum into the output it
// stores to (MatMulAddInto, MatMulTransAAddInto), and addF64 runs
// Accumulate's adds four lanes at a time.

// useAVX2 and useAVX512 are fixed once at init from the CPU and the OS;
// there is no option, variable or build tag that selects a kernel.
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = useAVX2 && cpuHasAVX512F()
)

// cpuid executes CPUID with EAX=eaxArg, ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register XCR0.
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches (OSXSAVE set and XCR0 enabling
// both the XMM and the YMM state).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuHasAVX512F reports, on a CPU that passed cpuHasAVX2, whether it also
// implements AVX-512F and the OS saves all of its state: XCR0 must enable
// the XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM components (bits 1, 2, 5,
// 6 and 7).
func cpuHasAVX512F() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// vecMatF64 sets out[j] = Σ_{p<k} a[p·lda]·b[p·ldb+j] for every j <
// len(out): the strided vector a times the k×len(out) window of b with row
// stride ldb. Each sum runs in ascending p from +0 and skips p where
// a[p·lda] is ±0. With add it sets out[j] = out[j] + Σ instead, the sum
// built the same way and added at the store, out[j] the first operand: the
// bits of tmp[j] = Σ followed by out[j] += tmp[j]. It does no bounds
// checks: the caller slices a and b so that every element read lies
// inside them.
//
//go:noescape
func vecMatF64(out, a []float64, lda int, b []float64, ldb, k int, add bool)

// vecMatF64AVX512 is vecMatF64 over out[:len(out)&^63] only, 64 columns at
// a time in ZMM registers; it leaves the rest of out untouched. Only
// useAVX512 allows calling it.
//
//go:noescape
func vecMatF64AVX512(out, a []float64, lda int, b []float64, ldb, k int, add bool)

// vecMatF64Wide is vecMatF64 with every full 64-column block run by
// vecMatF64AVX512 where the CPU has it (DESIGN §5s). The columns past the
// last block, fewer than 64, go to vecMatF64 with b advanced to them (an
// empty rest costs vecMatF64 one compare). With k = 0 nothing reads b,
// which may then be shorter than out, so vecMatF64 alone writes the zeros
// (or, with add, out + 0).
func vecMatF64Wide(out, a []float64, lda int, b []float64, ldb, k int, add bool) {
	if n64 := len(out) &^ 63; useAVX512 && n64 > 0 && k > 0 {
		vecMatF64AVX512(out, a, lda, b, ldb, k, add)
		out, b = out[n64:], b[n64:]
	}
	vecMatF64(out, a, lda, b, ldb, k, add)
}

// addF64 adds src into dst[:len(dst)&^3], four lanes at a time, each
// element dst[i] + src[i] with dst[i] the first operand.
//
//go:noescape
func addF64(dst, src []float64)

// matMulRowsSIMD runs the register path of matMulRows through the AVX2
// kernel, one output row per call, adding into out with add. It reports
// false, having done nothing, when the CPU has no AVX2.
func matMulRowsSIMD(out, a, b *Matrix, add bool) bool {
	if !useAVX2 {
		return false
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	bd := b.Data[:k*n]
	for i := 0; i < m; i++ {
		vecMatF64Wide(out.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], 1, bd, n, k, add)
	}
	return true
}

// matMulTransASIMD is matMulTransAInto through the AVX2 kernel: output
// row i is column i of a (stride a.Cols) times b, the same ascending-k sum
// per element, written over out or, with add, added into it. It reports
// false, having done nothing, when the CPU has no AVX2 or a has no rows.
func matMulTransASIMD(out, a, b *Matrix, add bool) bool {
	k, m, n := a.Rows, a.Cols, b.Cols
	if !useAVX2 || k == 0 {
		return false
	}
	ad, bd := a.Data[:k*m], b.Data[:k*n]
	for i := 0; i < m; i++ {
		vecMatF64Wide(out.Data[i*n:(i+1)*n], ad[i:], m, bd, n, k, add)
	}
	return true
}

// addVec adds src into dst through addF64 and returns how many leading
// elements it added: len(src) rounded down to a multiple of 4 where the
// CPU has AVX2, else 0.
func addVec(dst, src []float64) int {
	if !useAVX2 {
		return 0
	}
	n := len(src) &^ 3
	if n > 0 {
		addF64(dst[:n], src[:n])
	}
	return n
}

// matMulTransBRowsSIMD copies b, transposed, through a stack block of
// transBMaxK×transBCols elements (32 KiB at float64). Below transBMinRows
// rows of a the copy costs more than the kernel saves (BenchmarkMatMul).
const (
	transBMaxK    = 256
	transBCols    = 16
	transBMinRows = 8
)

// matMulTransBRowsSIMD is MatMulTransBInto through the AVX2 kernel: each
// block of transBCols rows of b is transposed onto the stack, so output
// row i is a's row i times that block, summed in ascending k from +0.
//
// The Go loop multiplies a's zeros instead of skipping them. The two
// agree whenever b is finite: a sum that starts at +0 never becomes −0
// under round-to-nearest, so adding a product ±0·b = ±0 leaves it
// unchanged. Only an infinite or NaN b, where 0·b is NaN, tells them
// apart, so a non-finite b declines to the Go loop, which then overwrites
// every element this may have written. Fewer than transBMinRows rows of a
// and k past transBMaxK decline before writing anything.
func matMulTransBRowsSIMD(out, a, b *Matrix) bool {
	m, k, nb := a.Rows, a.Cols, b.Rows
	if !useAVX2 || m < transBMinRows || k > transBMaxK {
		return false
	}
	bd := b.Data[:nb*k]
	var block [transBMaxK * transBCols]float64
	for j0 := 0; j0 < nb; j0 += transBCols {
		w := min(transBCols, nb-j0)
		bt := block[:k*w]
		for p := 0; p < k; p++ {
			src := bd[j0*k+p:]
			for jj, dst := 0, bt[p*w:(p+1)*w]; jj < len(dst); jj++ {
				v := src[jj*k]
				if v-v != 0 { // ±Inf or NaN
					return false
				}
				dst[jj] = v
			}
		}
		for i := 0; i < m; i++ {
			vecMatF64Wide(out.Data[i*nb+j0:i*nb+j0+w], a.Data[i*k:(i+1)*k], 1, bt, w, k, false)
		}
	}
	return true
}
