// Package autodiff implements tape-based reverse-mode automatic
// differentiation over dense matrices.
//
// A Tape records every operation in creation order; because an operation can
// only consume values that already exist, the tape order is a topological
// order of the computation graph, and Backward simply walks it in reverse.
// All neural-network layers in internal/nn are built from the primitives
// here, so a single numerically-checked gradient core backs the entire deep
// cost model. Values are float64, and the training tape and the inference
// tape (NewInferenceTape) are the same code over the same slabs.
//
// # Flat tape
//
// The tape is flat in the infergo style: each recorded operation is one
// fixed-size, pointer-free record (an opcode plus integer operand slots),
// and operands are addressed by index into the tape's Var slab rather than
// through per-node pointers or backward closures. Recording an op is an
// append of one record; Backward is a reverse walk dispatching on the
// opcode. Nothing on the hot path allocates per node, and the garbage
// collector never scans a pointer graph proportional to the tape length.
//
// # Arena
//
// Every matrix an operation produces — output values, gradient
// accumulators, and NewMatrix loans — is carved out of per-tape slabs by a
// bump-pointer arena, and Reset is a cursor rewind: no free lists, no
// shape-keyed maps, no per-matrix bookkeeping. A tape that is reused across
// forward passes of the same model (the pattern in Fit's epoch loop and the
// Predict worker pool) replays the same allocation sequence against the
// same slabs and therefore reaches zero steady-state matrix allocations. A
// block too small for a request that nothing of the pass uses yet is
// replaced in place, so a pass that asks for more than the last one grows
// the arena by that request, not by a second set of blocks.
// Pooling never changes results: an arena matrix is either fully
// overwritten or explicitly zeroed before use, and the order of
// floating-point operations is untouched.
//
// Leaves are exempt: Param wraps caller-owned weights whose gradients must
// accumulate across Backward calls until the optimizer clears them, so leaf
// values and gradients are never pooled. Const wraps caller-owned inputs,
// so its value is not pooled either (use NewMatrix for a pooled input
// buffer).
package autodiff

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"raal/internal/tensor"
)

// Var is a node in the computation graph: a matrix value plus (once
// Backward has run) the gradient of the loss with respect to it.
//
// Vars created by tape operations live in the tape's arena: the Var itself,
// its Value, and its Grad are all reclaimed by Tape.Reset, so they must not
// be used after the tape is reset. Vars returned by Param are independent
// of any tape and live as long as the caller keeps them.
type Var struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	needsGrad bool
	idx       int32 // slot in the owning tape's Var slab; leafIdx for leaves
}

// leafIdx marks a Var that lives outside any tape slab (Param leaves).
const leafIdx int32 = -1

// opcode identifies the operation a tape record replays in Backward.
type opcode uint8

const (
	opMatMul opcode = iota
	opAdd
	opSub
	opMul
	opScale
	opAddRow
	opAddRowAct
	opSigmoid
	opTanh
	opReLU
	opLeakyReLU
	opTranspose
	opSoftmaxRows // shared by the 1-D and 2-D masked variants
	opConcatCols
	opConcatRows
	opRowAt
	opSliceCols
	opMeanRowsMasked
	opSumAll
	opMeanAll
	opMSE
	opDropout
	opGatherRows // also KeepRows: a gather whose every input is one Var
	opAddRowsAt
	opIm2ColRows
	opLSTMCell   // c′ of Tape.LSTMCell
	opLSTMHidden // h of Tape.LSTMCell
)

// rec is one recorded operation: a fixed-size record with no pointers.
// Operand fields hold slab indices (>= 0) or encoded leaf references
// (< 0, see Tape.ref); the remaining fields are opcode-specific:
//
//	act    fused activation selector (opAddRowAct)
//	x0, x1 aux-slab offset/length, row index, column bounds, or (LSTM
//	       cell) the bias operand and the aux-matrix slot of tanh(c′)
//	s      scalar: scale factor, leak alpha, element count n, 1/(1−p)
//
// opGatherRows has no single operand: its x1 inputs live in the aux-args
// slab at [x0, x0+x1), followed by the row read from each.
type rec struct {
	op     opcode
	act    uint8
	out    int32
	a, b   int32
	x0, x1 int32
	s      float64
}

// slabBlock is the number of Vars (and matrix headers) per arena block.
// Blocks are never reallocated, so pointers into them stay valid across
// appends.
const slabBlock = 512

// slabValues is the number of values in a standard value slab (128 KiB).
const slabValues = 16 << 10

// arena is a bump-pointer allocator over fixed slabs of values and
// matrix headers. Allocation walks a cursor forward; rewind moves it back
// to the start without releasing the slabs, so an identical allocation
// sequence replayed after rewind returns the same memory — including
// pointer-identical matrix headers, which the recycling tests pin.
type arena struct {
	data    [][]float64 // value slabs
	bi, off int         // cursor: current slab, next free element

	hdrs [][]tensor.Matrix // matrix-header slabs
	nHdr int               // headers in use
}

func (a *arena) rewind() {
	a.bi, a.off, a.nHdr = 0, 0, 0
}

// slab returns n contiguous values with unspecified contents. Requests
// larger than a standard slab get a dedicated block of exactly their size.
func (a *arena) slab(n int) []float64 {
	for {
		if a.bi == len(a.data) {
			a.data = append(a.data, newBlock(n))
		}
		blk := a.data[a.bi]
		if a.off+n <= len(blk) {
			s := blk[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		if a.off == 0 {
			// Nothing of this pass lives in the block, and it is too small:
			// replace it where it stands. Skipping it instead would leave
			// every later block behind too, so the rest of the pass would
			// allocate a second set of blocks.
			a.data[a.bi] = newBlock(n)
			continue
		}
		a.bi++
		a.off = 0
	}
}

// newBlock returns a value slab for a request of n values: a standard
// slab, or one of exactly n values when n is larger.
func newBlock(n int) []float64 {
	b := make([]float64, max(slabValues, n))
	slabCount.Add(1)
	if poison.Load() {
		fillNaN(b)
	}
	return b
}

// slabCount counts the value slabs every arena in the process allocated.
var slabCount atomic.Uint64

// SlabAllocs returns the number of arena value slabs allocated since
// process start, the measure of a warm tape: a pass that fits the slabs
// its tape already holds adds none. The counter only ever increases;
// callers compare deltas.
func SlabAllocs() uint64 { return slabCount.Load() }

// poison, while set, fills every arena slab and backward scratch buffer
// with NaN at each Reset and on allocation (PoisonOnReset).
var poison atomic.Bool

// PoisonOnReset makes every Reset in the process fill the tape's arena
// slabs and backward scratch buffers with NaN, and every new slab start
// as NaN, until it is called with false. It is a test hook: arena contents
// are unspecified, so no result may change with it on, and a value read
// before it was written turns the result NaN.
func PoisonOnReset(on bool) { poison.Store(on) }

func fillNaN(b []float64) {
	nan := math.NaN()
	for i := range b {
		b[i] = nan
	}
}

// mat returns a rows×cols matrix with unspecified contents; the caller
// must fully overwrite (or Zero) it.
func (a *arena) mat(rows, cols int) *tensor.Matrix {
	bi, off := a.nHdr/slabBlock, a.nHdr%slabBlock
	if bi == len(a.hdrs) {
		a.hdrs = append(a.hdrs, make([]tensor.Matrix, slabBlock))
	}
	a.nHdr++
	m := &a.hdrs[bi][off]
	m.Rows, m.Cols = rows, cols
	m.Data = a.slab(rows * cols)
	return m
}

// Tape records operations for reverse-mode differentiation. The zero value
// is ready to use. A Tape is not safe for concurrent use; run one tape per
// goroutine. Operands passed to a tape's ops must be Vars of that same
// tape or leaves (Param) — Vars from other tapes are not addressable
// through this tape's records.
type Tape struct {
	recs []rec // recorded grad-tracked ops (the backward walk)

	vars  [][]Var // Var slab: fixed-size blocks with stable addresses
	nVars int     // Vars in use across blocks

	leaves []*Var // leaf operands referenced this pass, encoded as −(i+1)

	arena arena // value/gradient/header storage, rewound by Reset

	// Aux slabs for record payloads that don't fit the fixed fields.
	auxArgs []int32          // operand and row lists (concat, gather, keep)
	auxMask [][]bool         // row/element masks (mean, dropout)
	auxMat  []*tensor.Matrix // matrices a record keeps: MSE targets, LSTM tanh(c′)

	// scratch is the walk's single backward temporary and leafScratch the
	// leaf worker's: every backward step that needs an intermediate product
	// uses its side's buffer exclusively and consumes it before that side's
	// next step runs, so one grow-only buffer serves each side.
	scratch, leafScratch scratch

	// The leaf worker of a Backward (backward.go): its job queue of record
	// indices, reused across passes, and the transposed leaf weights of the
	// pass, indexed like leaves.
	leafJobs  chan int32
	leafRun   func() // drainLeafJobs, bound once so starting it allocates nothing
	leafBusy  bool
	leafWG    sync.WaitGroup
	leafPanic any
	leafT     []leafTranspose

	ints []int  // NewInts loans, rewound by Reset
	ptrs []*Var // NewVars loans, cleared and rewound by Reset

	noGrad bool // inference mode: skip all recording
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns a tape that evaluates operations forward-only:
// no records are appended and Backward does nothing. Values are
// bit-identical to a recording tape's; only the gradient bookkeeping is
// skipped, which removes it from the serving hot path entirely.
func NewInferenceTape() *Tape { return &Tape{noGrad: true} }

// ForwardOnly reports whether the tape skips recording (NewInferenceTape).
func (t *Tape) ForwardOnly() bool { return t.noGrad }

// Reset drops all recorded operations and rewinds the arena cursor, so the
// tape can rebuild an equally-shaped graph without allocating. Leaf
// (Param) values and gradients are untouched, and the tape keeps no
// reference to them or to anything else of the last pass but its own
// buffers: a reset tape can be parked for any other model.
func (t *Tape) Reset() {
	for i := 0; i < t.nVars; i++ {
		t.vars[i/slabBlock][i%slabBlock] = Var{}
	}
	t.nVars = 0
	t.recs = t.recs[:0]
	for i := range t.leaves {
		t.leaves[i] = nil
	}
	t.leaves = t.leaves[:0]
	t.auxArgs = t.auxArgs[:0]
	for i := range t.auxMask {
		t.auxMask[i] = nil
	}
	t.auxMask = t.auxMask[:0]
	for i := range t.auxMat {
		t.auxMat[i] = nil
	}
	t.auxMat = t.auxMat[:0]
	clear(t.leafT)
	t.leafT = t.leafT[:0]
	t.ints = t.ints[:0]
	clear(t.ptrs)
	t.ptrs = t.ptrs[:0]
	t.arena.rewind()
	if poison.Load() {
		for _, b := range t.arena.data {
			fillNaN(b)
		}
		fillNaN(t.scratch.buf)
		fillNaN(t.leafScratch.buf)
	}
}

// Len returns the number of recorded operations (useful in tests).
func (t *Tape) Len() int { return len(t.recs) }

// NewMatrix returns a zeroed rows×cols matrix on loan from the tape's
// arena; it is valid until the next Reset, which reclaims it. Use it for
// per-pass input buffers (wrap with Const) so a reused tape allocates
// nothing steady-state.
func (t *Tape) NewMatrix(rows, cols int) *tensor.Matrix {
	m := t.arena.mat(rows, cols)
	m.Zero()
	return m
}

// NewInts returns n zeroed ints on loan from the tape, valid until the next
// Reset: the lengths and row lists of a ragged batch, so that a reused tape
// allocates none steady-state.
func (t *Tape) NewInts(n int) []int { return loan(&t.ints, n) }

// NewVars returns n nil Var pointers on loan from the tape, valid until the
// next Reset: a pass's per-row and per-step operand lists, so that a reused
// tape allocates none steady-state. Reset clears them, so a parked tape
// pins no Var of its last pass.
func (t *Tape) NewVars(n int) []*Var { return loan(&t.ptrs, n) }

// loan carves n zeroed elements off the end of *pool, growing it when they
// do not fit. The loan is capacity-capped, so appending to it cannot reach
// the next one.
func loan[E any](pool *[]E, n int) []E {
	used := len(*pool)
	if used+n > cap(*pool) {
		// Earlier loans keep the old array; the next pass fits in this one.
		*pool = make([]E, used, 2*(used+n))
	}
	*pool = (*pool)[:used+n]
	s := (*pool)[used : used+n : used+n]
	clear(s)
	return s
}

// get returns an arena matrix with unspecified contents; the caller must
// fully overwrite it.
func (t *Tape) get(rows, cols int) *tensor.Matrix { return t.arena.mat(rows, cols) }

// zeroed returns an arena matrix with every element zero.
func (t *Tape) zeroed(rows, cols int) *tensor.Matrix {
	m := t.arena.mat(rows, cols)
	m.Zero()
	return m
}

// newVar carves the next Var out of the slab. Blocks have fixed size and
// are never copied, so the returned pointer is stable.
func (t *Tape) newVar(val *tensor.Matrix) *Var {
	bi, off := t.nVars/slabBlock, t.nVars%slabBlock
	if bi == len(t.vars) {
		t.vars = append(t.vars, make([]Var, slabBlock))
	}
	v := &t.vars[bi][off]
	*v = Var{Value: val, idx: int32(t.nVars)}
	t.nVars++
	return v
}

// ref encodes operand v for storage in a record: tape Vars are their slab
// index, leaves are registered once in the leaf table and encoded as
// −(i+1).
func (t *Tape) ref(v *Var) int32 {
	if v.idx != leafIdx {
		return v.idx
	}
	i := slices.Index(t.leaves, v)
	if i < 0 {
		i = len(t.leaves)
		t.leaves = append(t.leaves, v)
	}
	return int32(-1 - i)
}

// at resolves a record operand reference back to its Var.
func (t *Tape) at(i int32) *Var {
	if i >= 0 {
		return &t.vars[i/slabBlock][i%slabBlock]
	}
	return t.leaves[-1-i]
}

// gradOf returns v's gradient accumulator, allocating it zeroed on first
// use. Leaf gradients are plain allocations that survive Reset (they
// accumulate until the optimizer zeroes them); tape-owned gradients come
// from the arena.
func (t *Tape) gradOf(v *Var) *tensor.Matrix {
	if v.Grad == nil {
		if v.idx != leafIdx {
			v.Grad = t.zeroed(v.Value.Rows, v.Value.Cols)
		} else {
			v.Grad = tensor.New(v.Value.Rows, v.Value.Cols)
		}
	}
	return v.Grad
}

// scratch is a grow-only backward temporary.
type scratch struct {
	buf []float64
	hdr tensor.Matrix
}

// mat returns the scratch sized rows×cols, contents unspecified. Valid only
// until the next mat call.
func (s *scratch) mat(rows, cols int) *tensor.Matrix {
	n := rows * cols
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.hdr = tensor.Matrix{Rows: rows, Cols: cols, Data: s.buf[:n]}
	return &s.hdr
}

// leafTranspose is one leaf's transposed weights in a Backward: m, once
// done, is Wᵀ in the arena, or nil for a W that is not finite.
type leafTranspose struct {
	m    *tensor.Matrix
	done bool
}

// Param registers m as a trainable leaf: its gradient is accumulated into
// m's Var across Backward calls until ZeroGrad. Param Vars are independent
// of the tape — they and their gradients survive Reset.
func (t *Tape) Param(m *tensor.Matrix) *Var {
	return &Var{Value: m, needsGrad: true, idx: leafIdx}
}

// Const wraps m as a constant input: no gradient is tracked and m itself is
// never recycled (the Var holding it is).
func (t *Tape) Const(m *tensor.Matrix) *Var {
	return t.newVar(m)
}

// track reports whether an op over the given inputs must be recorded.
// Split by arity so the hot path never allocates a variadic slice.
func (t *Tape) track1(a *Var) bool { return !t.noGrad && a.needsGrad }
func (t *Tape) track2(a, b *Var) bool {
	return !t.noGrad && (a.needsGrad || b.needsGrad)
}

func (t *Tape) trackN(vs []*Var) bool {
	if t.noGrad {
		return false
	}
	for _, v := range vs {
		if v.needsGrad {
			return true
		}
	}
	return false
}

// push marks out as grad-tracked and appends its record.
func (t *Tape) push(out *Var, r rec) *Var {
	out.needsGrad = true
	r.out = out.idx
	t.recs = append(t.recs, r)
	return out
}

// pushArgs stores an operand list in the aux-args slab, returning its
// offset and length for the record's x0/x1 fields.
func (t *Tape) pushArgs(vs []*Var) (off, ln int32) {
	off = int32(len(t.auxArgs))
	for _, v := range vs {
		t.auxArgs = append(t.auxArgs, t.ref(v))
	}
	return off, int32(len(vs))
}

// pushRows appends a row list to the aux-args slab.
func (t *Tape) pushRows(rows []int) {
	for _, r := range rows {
		t.auxArgs = append(t.auxArgs, int32(r))
	}
}

func (t *Tape) pushMask(m []bool) int32 {
	t.auxMask = append(t.auxMask, m)
	return int32(len(t.auxMask) - 1)
}

func (t *Tape) pushMat(m *tensor.Matrix) int32 {
	t.auxMat = append(t.auxMat, m)
	return int32(len(t.auxMat) - 1)
}

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Var) *Var {
	val := t.get(a.Value.Rows, b.Value.Cols)
	tensor.MatMulInto(val, a.Value, b.Value)
	out := t.newVar(val)
	if !t.track2(a, b) {
		return out
	}
	return t.push(out, rec{op: opMatMul, a: t.ref(a), b: t.ref(b)})
}

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Var) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.AddInto(val, a.Value, b.Value)
	out := t.newVar(val)
	if !t.track2(a, b) {
		return out
	}
	return t.push(out, rec{op: opAdd, a: t.ref(a), b: t.ref(b)})
}

// Sub returns a−b (same shape).
func (t *Tape) Sub(a, b *Var) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.SubInto(val, a.Value, b.Value)
	out := t.newVar(val)
	if !t.track2(a, b) {
		return out
	}
	return t.push(out, rec{op: opSub, a: t.ref(a), b: t.ref(b)})
}

// Mul returns the elementwise product a∘b.
func (t *Tape) Mul(a, b *Var) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(val, a.Value, b.Value)
	out := t.newVar(val)
	if !t.track2(a, b) {
		return out
	}
	return t.push(out, rec{op: opMul, a: t.ref(a), b: t.ref(b)})
}

// Scale returns s·a.
func (t *Tape) Scale(a *Var, s float64) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.ScaleInto(val, a.Value, s)
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opScale, a: t.ref(a), s: s})
}

// AddRow broadcasts the 1×n row vector r across every row of m.
func (t *Tape) AddRow(m, r *Var) *Var {
	val := t.get(m.Value.Rows, m.Value.Cols)
	tensor.AddRowInto(val, m.Value, r.Value)
	out := t.newVar(val)
	if !t.track2(m, r) {
		return out
	}
	return t.push(out, rec{op: opAddRow, a: t.ref(m), b: t.ref(r)})
}

// ActFn selects the activation fused into AddRowApply. The derivative of
// every supported activation is computable from its output, so the fused
// op never stores pre-activation values.
type ActFn int

// Supported fused activations.
const (
	ActIdentity ActFn = iota
	ActSigmoid
	ActTanh
	ActReLU
)

// kernel maps the activation onto the tensor-layer enum driving the fused
// forward kernel.
func (f ActFn) kernel() tensor.Act {
	switch f {
	case ActIdentity:
		return tensor.ActNone
	case ActSigmoid:
		return tensor.ActSigmoid
	case ActTanh:
		return tensor.ActTanh
	case ActReLU:
		return tensor.ActReLU
	default:
		panic(fmt.Sprintf("autodiff: unknown ActFn(%d)", int(f)))
	}
}

// AddRowApply broadcasts the 1×n bias row r across every row of m and
// applies activation f, fusing what is otherwise an AddRow op plus an
// activation op into a single kernel pass — the shape of every dense layer
// and LSTM gate. It is exactly equivalent, bit for bit in both values and
// gradients, to applying the activation to AddRow(m, r).
func (t *Tape) AddRowApply(m, r *Var, f ActFn) *Var {
	val := t.get(m.Value.Rows, m.Value.Cols)
	tensor.AddRowActInto(val, m.Value, r.Value, f.kernel())
	out := t.newVar(val)
	if !t.track2(m, r) {
		return out
	}
	return t.push(out, rec{op: opAddRowAct, act: uint8(f), a: t.ref(m), b: t.ref(r)})
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Var) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.SigmoidInto(val, a.Value)
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opSigmoid, a: t.ref(a)})
}

// Tanh applies the hyperbolic tangent elementwise.
func (t *Tape) Tanh(a *Var) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.TanhInto(val, a.Value)
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opTanh, a: t.ref(a)})
}

// ReLU applies max(0,x) elementwise.
func (t *Tape) ReLU(a *Var) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	tensor.ReLUInto(val, a.Value)
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opReLU, a: t.ref(a)})
}

// LeakyReLU applies max(alpha·x, x) elementwise.
func (t *Tape) LeakyReLU(a *Var, alpha float64) *Var {
	val := t.get(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		if x > 0 {
			val.Data[i] = x
		} else {
			val.Data[i] = alpha * x
		}
	}
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opLeakyReLU, a: t.ref(a), s: alpha})
}

// Transpose returns aᵀ.
func (t *Tape) Transpose(a *Var) *Var {
	val := t.get(a.Value.Cols, a.Value.Rows)
	tensor.TransposeInto(val, a.Value)
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opTranspose, a: t.ref(a)})
}

// SoftmaxRows applies a row-wise softmax. mask may be nil; otherwise it must
// have one entry per column, and columns whose mask entry is false receive
// zero probability in every row (their logits are treated as −∞). Rows whose
// mask is entirely false become all-zero rows.
func (t *Tape) SoftmaxRows(a *Var, mask []bool) *Var {
	if mask != nil && len(mask) != a.Value.Cols {
		panic(fmt.Sprintf("autodiff: softmax mask length %d != cols %d", len(mask), a.Value.Cols))
	}
	val := t.get(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		tensor.SoftmaxRowInto(val.Row(i), a.Value.Row(i), mask)
	}
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	// The backward pass needs no mask: masked entries have probability
	// exactly 0, so their contributions vanish term by term.
	return t.push(out, rec{op: opSoftmaxRows, a: t.ref(a)})
}

// SoftmaxRowsMask2D applies a row-wise softmax with an independent column
// mask per row: entry (i,j) receives zero probability when mask[i][j] is
// false. Rows whose mask is entirely false become all-zero rows. A mask row
// longer than a's columns is read up to them, so a plan's padded children
// matrix masks its leading block as it is. This is the primitive behind
// node-aware attention, where node i attends only over its own children.
func (t *Tape) SoftmaxRowsMask2D(a *Var, mask [][]bool) *Var {
	if len(mask) != a.Value.Rows {
		panic(fmt.Sprintf("autodiff: 2D softmax mask rows %d != %d", len(mask), a.Value.Rows))
	}
	val := t.get(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		if len(mask[i]) < a.Value.Cols {
			panic(fmt.Sprintf("autodiff: 2D softmax mask row %d has %d cols, want at least %d", i, len(mask[i]), a.Value.Cols))
		}
		tensor.SoftmaxRowInto(val.Row(i), a.Value.Row(i), mask[i][:a.Value.Cols])
	}
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opSoftmaxRows, a: t.ref(a)})
}

// ConcatCols concatenates variables horizontally.
func (t *Tape) ConcatCols(vs ...*Var) *Var {
	rows, cols := 0, 0
	if len(vs) > 0 {
		rows = vs[0].Value.Rows
		for _, v := range vs {
			if v.Value.Rows != rows {
				panic(fmt.Sprintf("tensor: concatCols row mismatch %d != %d", v.Value.Rows, rows))
			}
			cols += v.Value.Cols
		}
	}
	val := t.get(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		orow := val.Row(i)
		for _, v := range vs {
			w := v.Value.Cols
			copy(orow[off:off+w], v.Value.Row(i))
			off += w
		}
	}
	out := t.newVar(val)
	if !t.trackN(vs) {
		return out
	}
	off, ln := t.pushArgs(vs)
	return t.push(out, rec{op: opConcatCols, x0: off, x1: ln})
}

// ConcatRows concatenates variables vertically.
func (t *Tape) ConcatRows(vs ...*Var) *Var {
	rows, cols := 0, 0
	if len(vs) > 0 {
		cols = vs[0].Value.Cols
		for _, v := range vs {
			if v.Value.Cols != cols {
				panic(fmt.Sprintf("tensor: concatRows col mismatch %d != %d", v.Value.Cols, cols))
			}
			rows += v.Value.Rows
		}
	}
	val := t.get(rows, cols)
	off := 0
	for _, v := range vs {
		copy(val.Data[off:off+len(v.Value.Data)], v.Value.Data)
		off += len(v.Value.Data)
	}
	out := t.newVar(val)
	if !t.trackN(vs) {
		return out
	}
	aoff, ln := t.pushArgs(vs)
	return t.push(out, rec{op: opConcatRows, x0: aoff, x1: ln})
}

// RowListError is the panic value of GatherRows and KeepRows given a row
// list that does not fit their operands. Layers build row lists from their
// own shapes, so a bad one is a bug, never a property of the data.
type RowListError struct {
	Op        string // "GatherRows" or "KeepRows"
	At        int    // the offending list position; −1 when the list's length is wrong
	Row, Rows int    // the row listed there (or the length) and its bound
}

func (e *RowListError) Error() string {
	return fmt.Sprintf("autodiff: %s row list entry %d: %d does not fit %d (entry −1: the list's length)", e.Op, e.At, e.Row, e.Rows)
}

// GatherRows stacks one row of every input into a len(vs)×cols variable:
// out.Row(k) = vs[k].Row(rows[k]). This is how a plan reads its hidden
// states out of a ragged recurrence, whose step-k state holds the plan at
// row rows[k]. One op replaces the per-step RowAt + ConcatRows chain (as
// many ops as steps, plus one, and as many intermediate Vars).
func (t *Tape) GatherRows(vs []*Var, rows []int) *Var {
	if len(rows) != len(vs) {
		panic(&RowListError{Op: "GatherRows", At: -1, Row: len(rows), Rows: len(vs)})
	}
	if len(vs) == 0 {
		return t.newVar(t.get(0, 0))
	}
	cols := vs[0].Value.Cols
	val := t.get(len(vs), cols)
	for k, v := range vs {
		if v.Value.Cols != cols {
			panic(fmt.Sprintf("autodiff: GatherRows col mismatch %d != %d", v.Value.Cols, cols))
		}
		if r := rows[k]; r < 0 || r >= v.Value.Rows {
			panic(&RowListError{Op: "GatherRows", At: k, Row: r, Rows: v.Value.Rows})
		}
		copy(val.Row(k), v.Value.Row(rows[k]))
	}
	out := t.newVar(val)
	if !t.trackN(vs) {
		return out
	}
	off, ln := t.pushArgs(vs)
	t.pushRows(rows)
	return t.push(out, rec{op: opGatherRows, x0: off, x1: ln})
}

// KeepRows returns the rows of a that rows lists, an ascending subset:
// out.Row(i) = a.Row(rows[i]). It shrinks a ragged recurrence's state to the
// sequences still running. It records as the gather of those rows from a,
// whose backward adds each output row's gradient into the row it came from.
func (t *Tape) KeepRows(a *Var, rows []int) *Var {
	val := t.get(len(rows), a.Value.Cols)
	for i, r := range rows {
		if r < 0 || r >= a.Value.Rows || (i > 0 && r <= rows[i-1]) {
			panic(&RowListError{Op: "KeepRows", At: i, Row: r, Rows: a.Value.Rows})
		}
		copy(val.Row(i), a.Value.Row(r))
	}
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	ref, off := t.ref(a), int32(len(t.auxArgs))
	for range rows {
		t.auxArgs = append(t.auxArgs, ref)
	}
	t.pushRows(rows)
	return t.push(out, rec{op: opGatherRows, x0: off, x1: int32(len(rows))})
}

// AddRowsAt returns rows [i, i+small.Rows) of big plus small, elementwise —
// an Add against a contiguous row window of big without materializing the
// window as its own Var. This is the stacked-input recurrence step: the
// input projection for all timesteps is one big matmul, and each step adds
// its row window to the recurrent term.
func (t *Tape) AddRowsAt(big *Var, i int, small *Var) *Var {
	rows, cols := small.Value.Rows, small.Value.Cols
	if big.Value.Cols != cols {
		panic(fmt.Sprintf("autodiff: AddRowsAt col mismatch %d != %d", big.Value.Cols, cols))
	}
	if i < 0 || i+rows > big.Value.Rows {
		panic(fmt.Sprintf("autodiff: AddRowsAt rows [%d,%d) out of %d", i, i+rows, big.Value.Rows))
	}
	val := t.get(rows, cols)
	win := big.Value.Data[i*cols : (i+rows)*cols]
	for k, v := range win {
		val.Data[k] = v + small.Value.Data[k]
	}
	out := t.newVar(val)
	if !t.track2(big, small) {
		return out
	}
	return t.push(out, rec{op: opAddRowsAt, a: t.ref(big), b: t.ref(small), x0: int32(i)})
}

// LSTMCell runs one fused LSTM cell step: z is the batch×4h gate
// pre-activation (consumed: left holding the gate activations), b the
// packed 1×4h gate bias and c the batch×h cell state, only read; it
// returns the new hidden and cell states, bit-identical to the
// SliceCols/AddRowApply/Mul/Add/Tanh chain (see tensor.LSTMCellInto). A
// recording tape also keeps tanh(c′) and pushes two records, c′ = f∘c + i∘g
// and h = o∘tanh(c′), each skipped in Backward exactly when the chain's ops
// behind it would be and each replaying the chain's per-element gradient
// expressions in its order, so gradients are bit-identical too.
func (t *Tape) LSTMCell(z, b, c *Var) (h, cNext *Var) {
	rows, cols := c.Value.Rows, c.Value.Cols
	hv, cv := t.get(rows, cols), t.get(rows, cols)
	if t.noGrad || !(z.needsGrad || b.needsGrad || c.needsGrad) {
		tensor.LSTMCellInto(hv, hv, cv, c.Value, z.Value, b.Value)
		return t.newVar(hv), t.newVar(cv)
	}
	tc := t.get(rows, cols)
	tensor.LSTMCellInto(hv, tc, cv, c.Value, z.Value, b.Value)
	zi, bi := t.ref(z), t.ref(b)
	cNext = t.push(t.newVar(cv), rec{op: opLSTMCell, a: zi, b: t.ref(c), x0: bi})
	h = t.push(t.newVar(hv), rec{op: opLSTMHidden, a: zi, b: cNext.idx, x0: bi, x1: t.pushMat(tc)})
	return h, cNext
}

// Im2ColRows materializes the width-row neighborhood of every row of x
// ("same" padding: out-of-range rows read as zero) as one rows×(width·cols)
// matrix: out.Row(p) = [x.Row(p−half) … x.Row(p+half)]. width must be odd.
// One op replaces the per-position RowAt/zero/ConcatCols chain that
// convolution lowering used to record.
func (t *Tape) Im2ColRows(x *Var, width int) *Var {
	if width < 1 || width%2 == 0 {
		panic(fmt.Sprintf("autodiff: Im2ColRows width %d must be odd and positive", width))
	}
	rows, cols := x.Value.Rows, x.Value.Cols
	half := width / 2
	val := t.get(rows, width*cols)
	for p := 0; p < rows; p++ {
		orow := val.Row(p)
		for k := 0; k < width; k++ {
			dst := orow[k*cols : (k+1)*cols]
			if src := p + k - half; src >= 0 && src < rows {
				copy(dst, x.Value.Row(src))
			} else {
				for j := range dst {
					dst[j] = 0
				}
			}
		}
	}
	out := t.newVar(val)
	if !t.track1(x) {
		return out
	}
	return t.push(out, rec{op: opIm2ColRows, a: t.ref(x), x0: int32(width)})
}

// RowAt extracts row i of a as a 1×cols variable.
func (t *Tape) RowAt(a *Var, i int) *Var {
	if i < 0 || i >= a.Value.Rows {
		panic(fmt.Sprintf("autodiff: RowAt(%d) out of %d rows", i, a.Value.Rows))
	}
	val := t.get(1, a.Value.Cols)
	copy(val.Data, a.Value.Row(i))
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opRowAt, a: t.ref(a), x0: int32(i)})
}

// SliceCols extracts columns [lo,hi) of a as a copy.
func (t *Tape) SliceCols(a *Var, lo, hi int) *Var {
	if lo < 0 || hi > a.Value.Cols || lo > hi {
		panic(fmt.Sprintf("autodiff: SliceCols [%d,%d) out of %d cols", lo, hi, a.Value.Cols))
	}
	w := hi - lo
	val := t.get(a.Value.Rows, w)
	for i := 0; i < a.Value.Rows; i++ {
		copy(val.Row(i), a.Value.Row(i)[lo:hi])
	}
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opSliceCols, a: t.ref(a), x0: int32(lo), x1: int32(hi)})
}

// MeanRowsMasked averages the rows of a whose mask entry is true, returning
// a 1×cols variable. If no row is selected the result is all zeros.
func (t *Tape) MeanRowsMasked(a *Var, mask []bool) *Var {
	if len(mask) != a.Value.Rows {
		panic(fmt.Sprintf("autodiff: mean mask length %d != rows %d", len(mask), a.Value.Rows))
	}
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	val := t.zeroed(1, a.Value.Cols)
	if n > 0 {
		for i, m := range mask {
			if !m {
				continue
			}
			row := a.Value.Row(i)
			for j, x := range row {
				val.Data[j] += x / float64(n)
			}
		}
	}
	out := t.newVar(val)
	if !t.track1(a) || n == 0 {
		return out
	}
	return t.push(out, rec{op: opMeanRowsMasked, a: t.ref(a), x0: t.pushMask(mask), s: float64(n)})
}

// SumAll reduces a to a 1×1 variable holding the sum of its elements.
func (t *Tape) SumAll(a *Var) *Var {
	val := t.get(1, 1)
	val.Data[0] = a.Value.Sum()
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opSumAll, a: t.ref(a)})
}

// MeanAll reduces a to a 1×1 variable holding the mean of its elements.
func (t *Tape) MeanAll(a *Var) *Var {
	val := t.get(1, 1)
	val.Data[0] = a.Value.Mean()
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opMeanAll, a: t.ref(a), s: float64(len(a.Value.Data))})
}

// MSE returns the mean squared error between pred and the constant target,
// as a 1×1 variable.
func (t *Tape) MSE(pred *Var, target *tensor.Matrix) *Var {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autodiff: MSE shape mismatch %dx%d vs %dx%d",
			pred.Value.Rows, pred.Value.Cols, target.Rows, target.Cols))
	}
	n := len(target.Data)
	var loss float64
	for i, p := range pred.Value.Data {
		d := p - target.Data[i]
		// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
		loss += float64(d * d)
	}
	loss /= float64(n)
	val := t.get(1, 1)
	val.Data[0] = loss
	out := t.newVar(val)
	if !t.track1(pred) {
		return out
	}
	return t.push(out, rec{op: opMSE, a: t.ref(pred), x0: t.pushMat(target), s: float64(n)})
}

// Dropout zeroes each element with probability p at training time and
// rescales survivors by 1/(1−p). keep must be a pre-sampled boolean mask of
// the same size as a (one entry per element); this keeps the op
// deterministic and testable. Passing a nil mask makes Dropout the identity.
func (t *Tape) Dropout(a *Var, p float64, keep []bool) *Var {
	if keep == nil {
		return a
	}
	if len(keep) != len(a.Value.Data) {
		panic(fmt.Sprintf("autodiff: dropout mask length %d != %d", len(keep), len(a.Value.Data)))
	}
	scale := 1 / (1 - p)
	val := t.get(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		if keep[i] {
			val.Data[i] = x * scale
		} else {
			val.Data[i] = 0
		}
	}
	out := t.newVar(val)
	if !t.track1(a) {
		return out
	}
	return t.push(out, rec{op: opDropout, a: t.ref(a), x0: t.pushMask(keep), s: scale})
}
