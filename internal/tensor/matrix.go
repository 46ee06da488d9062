// Package tensor provides dense matrices and the linear-algebra primitives
// used by the autodiff engine and the neural-network layers.
//
// The package is deliberately 2-D: every value flowing through the deep
// cost model is a matrix (a vector is a 1×n or n×1 matrix). Data is stored
// row-major in a single contiguous slice, which keeps the hot matmul loops
// cache friendly.
//
// # One stack at float64
//
// Every type and kernel is written once, in float64: one Matrix, one set
// of Into kernels, one parallel driver. Models train, are stored and serve
// in float64. The determinism contract: every output element is
// accumulated in ascending k with zero operands of a skipped, by the same
// per-element loop regardless of kernel path or worker count.
//
// The AVX2 (and AVX-512) matmul kernels of matmul_amd64.go and the AVX2
// activations of act_amd64.go compute exactly what the Go loops compute;
// a CPU test at init picks them, once for the process.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
)

// Matrix is a dense, row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// allocCount counts every matrix allocated through New. The autodiff
// arena recycles matrices instead of re-allocating them, and the allocation-
// regression tests pin the warm inference path to a zero delta of this
// counter — an exact measure that, unlike testing.AllocsPerRun, cannot be
// perturbed by unrelated runtime allocations.
var allocCount atomic.Uint64

// Allocs returns the number of matrices allocated by New since process
// start. The counter only ever increases; callers compare deltas.
func Allocs() uint64 { return allocCount.Load() }

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	allocCount.Add(1)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix. The slice
// is used directly, not copied.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Randn returns a rows×cols float64 matrix with entries drawn from N(0, std²).
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// Uniform returns a rows×cols float64 matrix with entries drawn from U(lo, hi).
// The scaled draw is rounded before lo is added, so no port fuses a
// multiply-add and the initial weights are the same everywhere.
func Uniform(rows, cols int, lo, hi float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's backing array.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// stringPreview caps how many elements String renders: a panic message or
// debug log mentioning a 512×512 matrix should be one line, not megabytes.
const stringPreview = 8

func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	show := len(m.Data)
	if show > stringPreview {
		show = stringPreview
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", m.Data[i])
	}
	if len(m.Data) > show {
		b.WriteString(" ...")
	}
	b.WriteByte(']')
	return b.String()
}

// MatMul returns a×b. Panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a×b, reusing out's storage. out must be
// a.Rows×b.Cols and must not alias a or b.
//
// Every output element is a dot product accumulated in ascending k with
// zero operands of a skipped, whichever internal kernel computes it — so
// results are bit-identical across the register/streaming paths. Like
// every kernel here it runs on its caller's goroutine: parallelism lives
// one level up, in the phase that calls it (DESIGN §5f).
func MatMulInto(out, a, b *Matrix) { matMulInto(out, a, b, false) }

// MatMulAddInto computes g += a×b through the kernel's accumulate mode
// and reports true: each sum is built in a register and added into g as it
// is stored (DESIGN §5n), the bits of MatMulInto into a scratch matrix
// followed by AddInPlace. Where that kernel does not run (no AVX2) it
// does nothing and reports false, and the caller runs the scratch product
// and the add. g must be a.Rows×b.Cols and must
// not alias a or b.
func MatMulAddInto(g, a, b *Matrix) bool {
	if !useAVX2 {
		return false
	}
	matMulInto(g, a, b, true)
	return true
}

// matMulInto is MatMulInto, or with add MatMulAddInto.
func matMulInto(out, a, b *Matrix, add bool) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	mustNotAlias("matmul", out, a, b)
	matMulRows(out, a, b, add)
}

// regPathMaxB bounds the elements of b for the register-accumulator
// matmul path, which re-reads all of b once per output row: past roughly
// L2 size (256 KiB of float64) the re-reads stall and the streaming ikj
// kernel wins.
const regPathMaxB = 1 << 15

// matMulRows is the out = a×b kernel. It picks between two loop orders
// that produce bit-identical results (per element: ascending-k accumulation,
// a-zeros skipped):
//
//   - register path (jik): a block of output columns accumulates in
//     registers while a's row streams once; out is written exactly once,
//     never re-read. Wins while b stays cache-resident, which covers every
//     weight matrix in the cost model. It runs the AVX2 kernel where the
//     CPU has one (DESIGN §5n), matMulRowsReg otherwise.
//   - streaming path (ikj): the inner loop streams contiguous rows of b
//     and out, trading out re-reads for sequential access to a large b.
//
// With add (MatMulAddInto, which has checked the kernel runs) the AVX2
// kernel adds into out at any size of b: it alone has that mode. In both
// Go paths each product is rounded (float64(x*y)) before it is added, so
// no port fuses a multiply-add (DESIGN §5j).
func matMulRows(out, a, b *Matrix, add bool) {
	n := b.Cols
	if add || len(b.Data) <= regPathMaxB {
		if !matMulRowsSIMD(out, a, b, add) {
			matMulRowsReg(out, a, b)
		}
		return
	}
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b4 := brow[j : j+4 : j+4]
				o4 := orow[j : j+4 : j+4]
				o4[0] += float64(av * b4[0])
				o4[1] += float64(av * b4[1])
				o4[2] += float64(av * b4[2])
				o4[3] += float64(av * b4[3])
			}
			for ; j < n; j++ {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// matMulRowsReg is the register path in portable Go: eight (then four,
// then one) output columns per block. It is the kernel off amd64 or
// without AVX2, and the oracle the AVX2 kernel is tested against.
func matMulRowsReg(out, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		j := 0
		// 8-wide column blocks first: the wider block halves the
		// slice/branch overhead per multiply. Each output element still
		// accumulates in ascending k with a-zeros skipped, so the block
		// width never shows up in the result.
		for ; j+8 <= n; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			idx := j
			for _, av := range arow {
				if av != 0 {
					b8 := b.Data[idx : idx+8 : idx+8]
					s0 += float64(av * b8[0])
					s1 += float64(av * b8[1])
					s2 += float64(av * b8[2])
					s3 += float64(av * b8[3])
					s4 += float64(av * b8[4])
					s5 += float64(av * b8[5])
					s6 += float64(av * b8[6])
					s7 += float64(av * b8[7])
				}
				idx += n
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			idx := j
			for _, av := range arow {
				if av != 0 {
					b4 := b.Data[idx : idx+4 : idx+4]
					s0 += float64(av * b4[0])
					s1 += float64(av * b4[1])
					s2 += float64(av * b4[2])
					s3 += float64(av * b4[3])
				}
				idx += n
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			var s float64
			idx := j
			for _, av := range arow {
				if av != 0 {
					s += float64(av * b.Data[idx])
				}
				idx += n
			}
			orow[j] = s
		}
	}
}

// MatMulTransB returns a×bᵀ without materializing bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes out = a×bᵀ, reusing out's storage. out must be
// a.Rows×b.Rows and must not alias a or b.
func MatMulTransBInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransB out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	mustNotAlias("matmulTransB", out, a, b)
	// The AVX2 kernel where the CPU has one and it accepts the operands
	// (DESIGN §5n), the Go loop otherwise.
	if !matMulTransBRowsSIMD(out, a, b) {
		matMulTransBRowsGo(out, a, b)
	}
}

// matMulTransBRowsGo is out = a×bᵀ in portable Go. Each output row is a
// set of dot products against rows of b; running four of them at once
// keeps four accumulators in registers while a's row streams through
// cache once per block. Every accumulator still sums in ascending k, so
// results are bit-identical to the scalar loop. It is the kernel off amd64
// or without AVX2, and the oracle the AVX2 path is tested against. Each
// product is rounded (float64(x*y)) before it is added, so no port fuses a
// multiply-add (DESIGN §5j).
func matMulTransBRowsGo(out, a, b *Matrix) {
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Rows : (i+1)*b.Rows]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*bc : (j+1)*bc]
			b1 := b.Data[(j+1)*bc : (j+2)*bc]
			b2 := b.Data[(j+2)*bc : (j+3)*bc]
			b3 := b.Data[(j+3)*bc : (j+4)*bc]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += float64(av * b0[k])
				s1 += float64(av * b1[k])
				s2 += float64(av * b2[k])
				s3 += float64(av * b3[k])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*bc : (j+1)*bc]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			orow[j] = s
		}
	}
}

// MatMulTransA returns aᵀ×b without materializing aᵀ.
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes out = aᵀ×b, reusing out's storage. out must be
// a.Cols×b.Cols and must not alias a or b.
func MatMulTransAInto(out, a, b *Matrix) { matMulTransAInto(out, a, b, false) }

// MatMulTransAAddInto is MatMulAddInto for g += aᵀ×b, with g a.Cols×b.Cols:
// the bits of MatMulTransAInto into a scratch matrix followed by
// AddInPlace, or false, having done nothing, where the kernel does not
// run or a has no rows.
func MatMulTransAAddInto(g, a, b *Matrix) bool {
	if a.Rows == 0 || !useAVX2 {
		return false
	}
	matMulTransAInto(g, a, b, true)
	return true
}

// matMulTransAInto is MatMulTransAInto, or with add MatMulTransAAddInto.
func matMulTransAInto(out, a, b *Matrix, add bool) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransA out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	mustNotAlias("matmulTransA", out, a, b)
	// The AVX2 kernel, where the CPU has one and k > 0, writes every
	// element itself (DESIGN §5n); the Go loop adds into a zeroed out.
	// (With add, MatMulTransAAddInto has checked that the kernel runs.)
	if !matMulTransASIMD(out, a, b, add) {
		out.Zero()
		matMulTransAGo(out, a, b)
	}
}

// matMulTransAGo accumulates out = aᵀ×b in portable Go: k-outer, with the
// contiguous j loop unrolled 4 wide (see MatMulInto). out must be
// pre-zeroed. It is the kernel off amd64 or without AVX2, and
// the oracle the AVX2 kernel is tested against. Each product is rounded
// (float64(x*y)) before it is added, so no port fuses a multiply-add
// (DESIGN §5j).
func matMulTransAGo(out, a, b *Matrix) {
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b4 := brow[j : j+4 : j+4]
				o4 := orow[j : j+4 : j+4]
				o4[0] += float64(av * b4[0])
				o4[1] += float64(av * b4[1])
				o4[2] += float64(av * b4[2])
				o4[3] += float64(av * b4[3])
			}
			for ; j < n; j++ {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	mustSameShape("add", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns a−b elementwise.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape("sub", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Mul returns the Hadamard (elementwise) product a∘b.
func Mul(a, b *Matrix) *Matrix {
	mustSameShape("mul", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// Scale returns s·m.
func Scale(m *Matrix, s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	mustSameShape("addInPlace", a, b)
	Accumulate(a.Data, b.Data)
}

// Accumulate adds src into dst elementwise, dst[i] += src[i] for every
// i < len(src); dst must be at least as long. It runs four lanes at a
// time where the CPU has AVX2, each lane the same one IEEE add, with the
// last len(src)%4 elements in Go.
func Accumulate(dst, src []float64) {
	dst = dst[:len(src)]
	for i := addVec(dst, src); i < len(src); i++ {
		dst[i] += src[i]
	}
}

// AxpyInPlace accumulates s·b into a, rounding each product before it is
// added, so no port fuses a multiply-add (DESIGN §5j).
func AxpyInPlace(a *Matrix, s float64, b *Matrix) {
	mustSameShape("axpy", a, b)
	for i, v := range b.Data {
		a.Data[i] += float64(s * v)
	}
}

// AddRow returns m with the 1×cols row vector r added to every row.
func AddRow(m, r *Matrix) *Matrix {
	if r.Rows != 1 || r.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRow wants 1x%d, got %dx%d", m.Cols, r.Rows, r.Cols))
	}
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		row := out.Row(i)
		for j, v := range r.Data {
			row[j] += v
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// ConcatCols concatenates matrices horizontally: all inputs must have the
// same number of rows.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: concatCols row mismatch %d != %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		orow := out.Row(i)
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// ConcatRows concatenates matrices vertically: all inputs must have the
// same number of columns.
func ConcatRows(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("tensor: concatRows col mismatch %d != %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// SliceRows returns rows [lo,hi) of m as a copy.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: sliceRows [%d,%d) out of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// AllClose reports whether a and b agree elementwise within tol.
func AllClose(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func mustSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
