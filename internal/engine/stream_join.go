package engine

import (
	"fmt"

	"raal/internal/physical"
	"raal/internal/sql"
)

// Joins materialize only the build (right) side — the broadcast/new side
// in our plans, typically the smaller input — and stream the probe side
// chunk by chunk. The join output exists only as transient batches. For
// each probe row in stream order, matches come out in build order.

// joinBase holds the machinery shared by the hash and nested-loop joins:
// the materialized build side, the pair scratch lists, and the gather of
// (probe row, build row) pairs into pooled output slabs.
type joinBase struct {
	baseIter
	rc          *runCtx
	left, right iterator
	nLeft       int       // left-side column count (layout prefix)
	build       []colData // right side, fully materialized
	buildN      int
	started     bool
	live        uint64 // live output columns
	buildLive   uint64 // live right-side columns

	cb *Batch // current probe batch
	pi int    // next logical row in cb

	lrows, brows []int32 // pending output pairs (probe physical, build row)
	outInts      [][]int64
	outStrs      [][]string
	out          Batch
}

// makeJoinLayout concatenates the sides' layouts, rejecting a qualified
// name that appears on both sides.
func makeJoinLayout(left, right *layout) (*layout, error) {
	cols := make([]streamCol, 0, len(left.cols)+len(right.cols))
	cols = append(cols, left.cols...)
	for _, c := range right.cols {
		if _, dup := left.find(c.name); dup {
			return nil, fmt.Errorf("duplicate column %q across join sides", c.name)
		}
		cols = append(cols, c)
	}
	return newLayout(cols), nil
}

func (j *joinBase) init(left, right iterator, n *physical.Node, rc *runCtx, up *ancestors) error {
	l, err := makeJoinLayout(left.lay(), right.lay())
	if err != nil {
		return err
	}
	j.l = l
	j.rc = rc
	j.left, j.right = left, right
	j.nLeft = len(left.lay().cols)
	j.live = liveMask(l, up)
	j.buildLive = liveMask(right.lay(), &ancestors{n: n, up: up})
	j.lrows = rc.eng.pool.getSel(rc.cap)[:0]
	j.brows = rc.eng.pool.getSel(rc.cap)[:0]
	j.outInts = make([][]int64, len(l.cols))
	j.outStrs = make([][]string, len(l.cols))
	for p, c := range l.cols {
		if !isLive(j.live, p) {
			continue
		}
		if c.isStr {
			j.outStrs[p] = rc.eng.pool.getStrs(rc.cap)
		} else {
			j.outInts[p] = rc.eng.pool.getInts(rc.cap)
		}
	}
	j.out.ints = make([][]int64, len(l.cols))
	j.out.strs = make([][]string, len(l.cols))
	return nil
}

// buildRight drains the right child into contiguous columns, slabs of the
// engine's pool that Close returns.
func (j *joinBase) buildRight() error {
	rl := j.right.lay()
	j.build = make([]colData, len(rl.cols))
	for {
		b, err := j.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		appendBatch(j.build, rl, b, j.buildLive, &j.rc.eng.pool)
		j.buildN += b.n
	}
}

// flush gathers the pending pairs into the output slabs. cb is the probe
// batch the left rows index into; it must still be live. Dead columns,
// and live ones a producer below left nil, stay nil.
func (j *joinBase) flush(cb *Batch) *Batch {
	n := len(j.lrows)
	for p, c := range j.l.cols {
		if !isLive(j.live, p) {
			continue
		}
		rows, src := j.brows, colData{}
		if p < j.nLeft {
			rows, src = j.lrows, colData{cb.ints[p], cb.strs[p]}
		} else {
			src = j.build[p-j.nLeft]
		}
		if c.isStr && src.strs != nil {
			dst := j.outStrs[p]
			for i, r := range rows {
				dst[i] = src.strs[r]
			}
			j.out.strs[p] = dst[:n]
		} else if !c.isStr && src.ints != nil {
			dst := j.outInts[p]
			for i, r := range rows {
				dst[i] = src.ints[r]
			}
			j.out.ints[p] = dst[:n]
		}
	}
	j.out.n = n
	j.out.sel = nil
	j.lrows = j.lrows[:0]
	j.brows = j.brows[:0]
	return &j.out
}

func (j *joinBase) Close() {
	pool := &j.rc.eng.pool
	pool.putSel(j.lrows)
	pool.putSel(j.brows)
	for p, c := range j.l.cols {
		if c.isStr {
			pool.putStrs(j.outStrs[p])
		} else {
			pool.putInts(j.outInts[p])
		}
	}
	putCols(pool, j.build)
	j.build = nil
	j.left.Close()
	j.right.Close()
}

// ---------------------------------------------------------------------------
// Hash join

// hashJoinIter implements SMJ/BHJ/SHJ semantics (all three produce the
// same single-node relation; their cost difference lives in the
// simulator): build a hash index over the right side, stream the left.
// Each probe batch is priced by its keys' build-row counts before it is
// expanded (see price).
type hashJoinIter struct {
	joinBase
	op                physical.OpType
	leftPos, rightPos int
	strKey            bool
	emitted           int   // rows output so far
	maxRun            int32 // most build rows sharing one key

	// Int keys use a forward-chained index: head yields the first build
	// row holding a key (1-based; 0 = no match) and chain links equal-key
	// rows in build order, so matches stream out in build order. When the
	// key range is tight — serial PKs, the overwhelmingly common build
	// side — head is a plain array and probing never hashes at all; sparse
	// key spaces fall back to a map head. Beside each head, a count of the
	// key's build rows.
	denseHead []int32
	denseCnt  []int32
	denseLo   int64
	headMap   map[int64]int32
	cntMap    map[int64]int32
	chain     []int32

	strIndex map[string][]int32

	// probe resume state: the chain position (int keys) or match list
	// (string keys) of the row being expanded
	nextJ   int32
	matches []int32
	mi      int
	curL    int32
}

func newHashJoinIter(left, right iterator, n *physical.Node, rc *runCtx, up *ancestors) (iterator, error) {
	lname, rname := n.LeftKey.String(), n.RightKey.String()
	it := &hashJoinIter{op: n.Op}
	if lp, ok := left.lay().intPos(lname); ok {
		rp, ok := right.lay().intPos(rname)
		if !ok {
			return nil, fmt.Errorf("join key %q missing on right side", rname)
		}
		it.leftPos, it.rightPos = lp, rp
	} else if lp, ok := left.lay().strPos(lname); ok {
		rp, ok := right.lay().strPos(rname)
		if !ok {
			return nil, fmt.Errorf("join key %q missing on right side", rname)
		}
		it.leftPos, it.rightPos = lp, rp
		it.strKey = true
	} else {
		return nil, fmt.Errorf("join key %q missing on left side", lname)
	}
	if err := it.init(left, right, n, rc, up); err != nil {
		return nil, err
	}
	return it, nil
}

func (h *hashJoinIter) start() error {
	if err := h.buildRight(); err != nil {
		return err
	}
	if h.strKey {
		col := h.build[h.rightPos].strs
		h.strIndex = make(map[string][]int32, h.buildN)
		for j, v := range col {
			m := append(h.strIndex[v], int32(j))
			h.strIndex[v] = m
			h.maxRun = max(h.maxRun, int32(len(m)))
		}
	} else if col := h.build[h.rightPos].ints; len(col) > 0 {
		n := len(col)
		pool := &h.rc.eng.pool
		h.chain = zeroedSel(pool, n)
		lo, hi := col[0], col[0]
		for _, v := range col[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if span := hi - lo + 1; span <= int64(2*n)+1024 {
			h.denseLo = lo
			h.denseHead = zeroedSel(pool, int(span))
			h.denseCnt = zeroedSel(pool, int(span))
			tail := zeroedSel(pool, int(span))
			defer pool.putSel(tail)
			for j, v := range col {
				i := v - lo
				if tail[i] == 0 {
					h.denseHead[i] = int32(j + 1)
				} else {
					h.chain[tail[i]-1] = int32(j + 1)
				}
				tail[i] = int32(j + 1)
				h.denseCnt[i]++
				h.maxRun = max(h.maxRun, h.denseCnt[i])
			}
		} else {
			head := make(map[int64]int32, n)
			tail := make(map[int64]int32, n)
			cnt := make(map[int64]int32, n)
			for j, v := range col {
				if t := tail[v]; t != 0 {
					h.chain[t-1] = int32(j + 1)
				} else {
					head[v] = int32(j + 1)
				}
				tail[v] = int32(j + 1)
				cnt[v]++
				h.maxRun = max(h.maxRun, cnt[v])
			}
			h.headMap, h.cntMap = head, cnt
		}
	}
	h.started = true
	return nil
}

// zeroedSel returns n zeros in a slab of pool.
func zeroedSel(pool *slabPool, n int) []int32 {
	s := pool.getSel(n)
	clear(s)
	return s
}

// Close returns the index's arrays, and then the join's slabs, to the pool.
func (h *hashJoinIter) Close() {
	pool := &h.rc.eng.pool
	pool.putSel(h.chain)
	pool.putSel(h.denseHead)
	pool.putSel(h.denseCnt)
	h.chain, h.denseHead, h.denseCnt = nil, nil, nil
	h.joinBase.Close()
}

// price fails the run before gathering when the matches of probe batch cb
// would carry the join's output past the row limit. Its full output is at
// least that, so only runs that would fail anyway fail here. The sum is
// skipped while cb could not pass the limit matching the longest key run.
func (h *hashJoinIter) price(cb *Batch) error {
	if h.emitted+cb.n*int(h.maxRun) <= h.rc.max {
		return nil
	}
	rows := h.emitted
	for i := 0; i < cb.n; i++ {
		if r := cb.row(i); h.strKey {
			rows += len(h.strIndex[cb.strs[h.leftPos][r]])
		} else {
			_, n := h.lookup(cb.ints[h.leftPos][r])
			rows += int(n)
		}
	}
	if rows > h.rc.max {
		return fmt.Errorf("engine: %s would produce %d rows: %w", h.op, rows, ErrRowLimit)
	}
	return nil
}

// lookup returns the 1-based first build row matching key v (0 = none)
// and the number of build rows that match it.
func (h *hashJoinIter) lookup(v int64) (head, n int32) {
	if h.denseHead != nil {
		if i := v - h.denseLo; i >= 0 && i < int64(len(h.denseHead)) {
			return h.denseHead[i], h.denseCnt[i]
		}
		return 0, 0
	}
	return h.headMap[v], h.cntMap[v]
}

func (h *hashJoinIter) Next() (*Batch, error) {
	if !h.started {
		if err := h.start(); err != nil {
			return nil, err
		}
	}
	for {
		if h.cb == nil {
			cb, err := h.left.Next()
			if err != nil {
				return nil, err
			}
			if cb == nil {
				return nil, nil
			}
			if err := h.price(cb); err != nil {
				return nil, err
			}
			h.cb, h.pi = cb, 0
		}
		// Fill the pair lists from the current probe batch up to capacity.
		var intKey []int64
		var strKey []string
		if h.strKey {
			strKey = h.cb.strs[h.leftPos]
		} else {
			intKey = h.cb.ints[h.leftPos]
		}
		for len(h.lrows) < h.rc.cap {
			if h.matches != nil {
				take := len(h.matches) - h.mi
				if room := h.rc.cap - len(h.lrows); take > room {
					take = room
				}
				for k := 0; k < take; k++ {
					h.lrows = append(h.lrows, h.curL)
					h.brows = append(h.brows, h.matches[h.mi+k])
				}
				h.mi += take
				if h.mi == len(h.matches) {
					h.matches = nil
					h.pi++
				}
				continue
			}
			if h.nextJ != 0 {
				for h.nextJ != 0 && len(h.lrows) < h.rc.cap {
					j := h.nextJ - 1
					h.lrows = append(h.lrows, h.curL)
					h.brows = append(h.brows, j)
					h.nextJ = h.chain[j]
				}
				if h.nextJ == 0 {
					h.pi++
				}
				continue
			}
			if h.pi >= h.cb.n {
				break
			}
			r := int32(h.cb.row(h.pi))
			if h.strKey {
				m := h.strIndex[strKey[r]]
				if len(m) == 0 {
					h.pi++
					continue
				}
				h.matches, h.mi, h.curL = m, 0, r
			} else {
				head, _ := h.lookup(intKey[r])
				if head == 0 {
					h.pi++
					continue
				}
				h.nextJ, h.curL = head, r
			}
		}
		exhausted := h.matches == nil && h.nextJ == 0 && h.pi >= h.cb.n
		if len(h.lrows) > 0 {
			// Gather while the probe batch is still live, then release it
			// if it has been fully consumed.
			out := h.flush(h.cb)
			h.emitted += out.n
			if exhausted {
				h.cb = nil
			}
			return out, nil
		}
		if exhausted {
			h.cb = nil // nothing matched in this probe batch; pull the next
		}
	}
}

// ---------------------------------------------------------------------------
// Nested-loop join

// nestedLoopIter evaluates a theta comparison of int keys against every
// build row per probe row — BroadcastNestedLoopJoin semantics with the
// output streamed instead of materialized.
type nestedLoopIter struct {
	joinBase
	leftPos, rightPos int
	op                sql.CmpOp

	ri   int // next build row for the current probe row
	curL int32
	lv   int64
	open bool // currently expanding a probe row
}

func newNestedLoopIter(left, right iterator, n *physical.Node, rc *runCtx, up *ancestors) (iterator, error) {
	lp, ok := left.lay().intPos(n.LeftKey.String())
	if !ok {
		return nil, fmt.Errorf("nested loop key %q missing on left side", n.LeftKey)
	}
	rp, ok := right.lay().intPos(n.RightKey.String())
	if !ok {
		return nil, fmt.Errorf("nested loop key %q missing on right side", n.RightKey)
	}
	it := &nestedLoopIter{leftPos: lp, rightPos: rp, op: n.ThetaOp}
	if err := it.init(left, right, n, rc, up); err != nil {
		return nil, err
	}
	return it, nil
}

func (nl *nestedLoopIter) Next() (*Batch, error) {
	if !nl.started {
		if err := nl.buildRight(); err != nil {
			return nil, err
		}
		nl.started = true
	}
	rcol := nl.build[nl.rightPos].ints
	for {
		if nl.cb == nil {
			cb, err := nl.left.Next()
			if err != nil {
				return nil, err
			}
			if cb == nil {
				return nil, nil
			}
			nl.cb, nl.pi = cb, 0
		}
		keyCol := nl.cb.ints[nl.leftPos]
		for len(nl.lrows) < nl.rc.cap {
			if nl.open {
				for nl.ri < nl.buildN && len(nl.lrows) < nl.rc.cap {
					if cmpInt(nl.lv, rcol[nl.ri], nl.op) {
						nl.lrows = append(nl.lrows, nl.curL)
						nl.brows = append(nl.brows, int32(nl.ri))
					}
					nl.ri++
				}
				if nl.ri == nl.buildN {
					nl.open = false
					nl.pi++
				}
				continue
			}
			if nl.pi >= nl.cb.n {
				break
			}
			nl.curL = int32(nl.cb.row(nl.pi))
			nl.lv = keyCol[nl.curL]
			nl.ri = 0
			nl.open = true
		}
		exhausted := !nl.open && nl.pi >= nl.cb.n
		if len(nl.lrows) > 0 {
			out := nl.flush(nl.cb)
			if exhausted {
				nl.cb = nil
			}
			return out, nil
		}
		if exhausted {
			nl.cb = nil
		}
	}
}
