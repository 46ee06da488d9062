package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/telemetry"
)

// The executor. Operators are composable chunk iterators in the Volcano
// style, but vectorized: Next() yields a Batch of up to BatchSize rows
// instead of a single tuple. Filters, projections, and limits are
// zero-copy (selection vectors and slice-header reuse); scans emit windows
// over the catalog's column storage without copying; joins materialize
// only their build side; aggregates hold only group state. Nothing except
// explicit pipeline breakers (Sort, the aggregate hash tables, join build
// sides) ever holds a full intermediate relation, which is what lets the
// truth oracle execute 10^6–10^7-row inputs in near-constant memory. Join
// gathers, build sides and sorts copy only the columns an ancestor reads.
//
// What a run records, whatever the batch size: every node's ActRows is
// its full output cardinality (every operator, LIMIT included, drains its
// input); an exchange's Skew is the partition-hash fold over the rows that
// crossed it; and a run fails with ErrRowLimit exactly when some node's
// full output passes the limit. It trips when a node's running count
// passes the limit or, before gathering, when a join's next probe batch
// would carry it past. The engine_test package checks all three, and the
// relation, against a row-at-a-time reference interpreter that cannot
// call this package's internals, and golden digests pin them across
// commits.

// iterator is a streaming operator. Next returns the next chunk, or
// (nil, nil) at end of stream. The returned batch is valid only until the
// next Next or Close call on this iterator.
type iterator interface {
	Next() (*Batch, error)
	// Close releases pooled slabs.
	Close()

	// lay returns the static column layout of this operator's output.
	lay() *layout
	// emptyCols lists, once the stream has ended, the columns a zero-row
	// result carries: an aggregate that produced no groups carries only
	// its key columns, and everything else its full layout.
	emptyCols() []streamCol
}

// runCtx carries per-run execution state shared by all iterators of one
// plan execution.
type runCtx struct {
	eng *Engine
	cap int // batch row capacity
	max int // maxRows cardinality guard
}

// baseIter supplies the default lay/emptyCols so concrete operators only
// override what they specialize.
type baseIter struct {
	l layout
}

func (b *baseIter) lay() *layout           { return &b.l }
func (b *baseIter) emptyCols() []streamCol { return b.l.cols }

// drain accumulates a full Relation from an iterator — the only place in
// the executor that materializes unbounded output.
func drain(it iterator) (*Relation, error) {
	l := it.lay()
	cols := make([]colData, len(l.cols))
	n := 0
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		appendBatch(cols, l, b, ^uint64(0), nil) // the root reads every column
		n += b.n
	}
	rel := NewRelation()
	rel.N = n
	if n == 0 {
		// An empty result still carries its columns, as empty slices.
		for _, c := range it.emptyCols() {
			if c.isStr {
				rel.Strs[c.name] = []string{}
			} else {
				rel.Ints[c.name] = []int64{}
			}
		}
		return rel, nil
	}
	for i, c := range l.cols {
		if c.isStr {
			rel.Strs[c.name] = cols[i].strs
		} else {
			rel.Ints[c.name] = cols[i].ints
		}
	}
	return rel, nil
}

// colData accumulates one output column (exactly one of ints/strs used).
type colData struct {
	ints []int64
	strs []string
}

// appendBatch resolves b's selection vector and appends the rows of its
// live columns (see liveMask) to cols; a column its producer left nil
// stays nil. With a non-nil pool, a column's first rows go into a slab
// from it, which the caller then owns and returns (putCols).
func appendBatch(cols []colData, l *layout, b *Batch, live uint64, pool *slabPool) {
	for p := range l.cols {
		if !isLive(live, p) || b.n == 0 || b.ints[p] == nil && b.strs[p] == nil {
			continue
		}
		if l.cols[p].isStr {
			src, dst := b.strs[p], cols[p].strs
			if dst == nil && pool != nil {
				dst = pool.getStrs(b.n)[:0]
			}
			if b.sel == nil {
				dst = append(dst, src[:b.n]...)
			} else {
				for _, r := range b.sel[:b.n] {
					dst = append(dst, src[r])
				}
			}
			cols[p].strs = dst
		} else {
			src, dst := b.ints[p], cols[p].ints
			if dst == nil && pool != nil {
				dst = pool.getInts(b.n)[:0]
			}
			if b.sel == nil {
				dst = append(dst, src[:b.n]...)
			} else {
				for _, r := range b.sel[:b.n] {
					dst = append(dst, src[r])
				}
			}
			cols[p].ints = dst
		}
	}
}

// putCols returns every column of cols to pool and clears them.
func putCols(pool *slabPool, cols []colData) {
	for p := range cols {
		pool.putInts(cols[p].ints)
		pool.putStrs(cols[p].strs)
		cols[p] = colData{}
	}
}

// isLive reports whether bit p of a live mask is set. Columns past the
// 64th are always live, though a producer with fewer columns may have
// dropped one; that is why copies skip nil source columns.
func isLive(live uint64, p int) bool { return p >= 64 || live&(1<<uint(p)) != 0 }

// ancestors is the chain of a plan node's ancestors, nearest first. What
// they read of the node's output decides which of its columns are live.
type ancestors struct {
	n  *physical.Node
	up *ancestors
}

// read reports whether some ancestor reads the named column. The root
// reads everything; filters, hash exchanges, sorts and joins read their
// predicate and key columns and ask their own ancestors about the rest; a
// partial aggregate reads only its group and input columns, a final one
// everything. Names are matched without formatting the bound columns.
func (a *ancestors) read(name string) bool {
	for ; a != nil; a = a.up {
		n := a.n
		if n.Op == physical.HashAggregate || n.Op == physical.SortAggregate {
			return n.Final ||
				slices.ContainsFunc(n.GroupBy, func(c logical.BoundCol) bool { return isCol(name, &c) }) ||
				slices.ContainsFunc(n.Aggs, func(ag logical.BoundAgg) bool { return isCol(name, ag.Col) })
		}
		if isCol(name, n.LeftKey) || isCol(name, n.RightKey) || isCol(name, n.SortCol) ||
			isCol(name, exchangeKey(n)) ||
			slices.ContainsFunc(n.Preds, func(p sql.Predicate) bool { return predReads(p, name) }) {
			return true
		}
	}
	return true
}

// liveMask sets bit p for each column p of l that a reads.
func liveMask(l *layout, a *ancestors) uint64 {
	var m uint64
	for p := 0; p < len(l.cols) && p < 64; p++ {
		if a.read(l.cols[p].name) {
			m |= 1 << uint(p)
		}
	}
	return m
}

// isCol reports whether name is c.String().
func isCol(name string, c *logical.BoundCol) bool {
	return c != nil && isQualified(name, c.Alias, c.Name)
}

func isQualified(name, qual, col string) bool {
	q := len(qual)
	return len(name) == q+1+len(col) && name[q] == '.' && name[:q] == qual && name[q+1:] == col
}

// predReads reports whether predicate p reads the named column. IS [NOT]
// NULL reads nothing: the data has no NULLs.
func predReads(p sql.Predicate, name string) bool {
	is := func(c sql.ColumnRef) bool {
		return c.Qualifier == "" && name == c.Name || isQualified(name, c.Qualifier, c.Name)
	}
	switch q := p.(type) {
	case *sql.Comparison:
		return is(q.Left) || q.RightCol != nil && is(*q.RightCol)
	case *sql.Between:
		return is(q.Col)
	case *sql.In:
		return is(q.Col)
	case *sql.Like:
		return is(q.Col)
	case *sql.NullCheck:
		return false
	}
	return true
}

// buildIter compiles node n, whose ancestors are up, into its operator
// iterator wrapped in the accounting layer (ActRows, ErrRowLimit,
// telemetry).
func (e *Engine) buildIter(n *physical.Node, rc *runCtx, up *ancestors) (iterator, error) {
	here := ancestors{n: n, up: up}
	kids := make([]iterator, len(n.Children))
	for i, c := range n.Children {
		k, err := e.buildIter(c, rc, &here)
		if err != nil {
			return nil, err // already wrapped at the originating node
		}
		kids[i] = k
	}
	inner, err := e.buildOp(n, kids, rc, up)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", n.Op, err)
	}
	c := &countedIter{inner: inner, node: n, rc: rc}
	if ins := e.instr; ins != nil {
		op := n.Op.String()
		c.rowsC = ins.rows.With(op)
		c.batchesC = ins.batches.With(op)
		c.nsC = ins.ns.With(op)
	}
	return c, nil
}

func (e *Engine) buildOp(n *physical.Node, kids []iterator, rc *runCtx, up *ancestors) (iterator, error) {
	switch n.Op {
	case physical.FileScan:
		return e.newScanIter(n, rc)
	case physical.Filter:
		return newFilterIter(kids[0], n.Preds, rc)
	case physical.Project:
		return newProjectIter(kids[0], n.Columns)
	case physical.ExchangeHashPartition:
		return newExchangeIter(kids[0], n), nil
	case physical.ExchangeSinglePartition, physical.BroadcastExchange:
		return &passthroughIter{baseIter{*kids[0].lay()}, kids[0]}, nil
	case physical.Sort:
		return newSortIter(kids[0], n, rc, up)
	case physical.SortMergeJoin, physical.BroadcastHashJoin, physical.ShuffledHashJoin:
		return newHashJoinIter(kids[0], kids[1], n, rc, up)
	case physical.BroadcastNestedLoopJoin:
		return newNestedLoopIter(kids[0], kids[1], n, rc, up)
	case physical.HashAggregate, physical.SortAggregate:
		return newAggIter(kids[0], n, rc)
	case physical.LocalLimit:
		return &limitIter{baseIter: baseIter{*kids[0].lay()}, child: kids[0], remaining: n.LimitN}, nil
	default:
		return nil, fmt.Errorf("unsupported operator")
	}
}

// countedIter wraps every operator: it accumulates the node's ActRows,
// enforces the engine's row-cardinality guard incrementally, before an
// oversized output exists, and feeds the per-operator telemetry counters.
type countedIter struct {
	inner iterator
	node  *physical.Node
	rc    *runCtx
	rows  int
	eof   bool

	rowsC, batchesC, nsC *telemetry.Counter
}

func (c *countedIter) lay() *layout           { return c.inner.lay() }
func (c *countedIter) emptyCols() []streamCol { return c.inner.emptyCols() }

func (c *countedIter) Next() (*Batch, error) {
	if c.eof {
		return nil, nil
	}
	var start time.Time
	if c.nsC != nil {
		start = time.Now()
	}
	b, err := c.inner.Next()
	if c.nsC != nil {
		c.nsC.Add(uint64(time.Since(start)))
	}
	if err != nil {
		return nil, err
	}
	if b == nil {
		c.eof = true
		return nil, nil
	}
	c.rows += b.n
	c.node.ActRows = float64(c.rows)
	if c.rowsC != nil {
		c.rowsC.Add(uint64(b.n))
		c.batchesC.Inc()
	}
	if c.rows > c.rc.max {
		return nil, fmt.Errorf("engine: %s produced %d rows: %w", c.node.Op, c.rows, ErrRowLimit)
	}
	return b, nil
}

func (c *countedIter) Close() { c.inner.Close() }

// ---------------------------------------------------------------------------
// Scan

// scanIter emits zero-copy windows over the catalog's column storage and
// applies pushed-down predicates with a selection vector, so a scan never
// copies table data regardless of filter selectivity.
type scanIter struct {
	baseIter
	rc    *runCtx
	cols  []colData // full table columns, positional
	total int
	off   int
	preds []rowPred
	sel   []int32
	out   Batch
}

func (e *Engine) newScanIter(n *physical.Node, rc *runCtx) (iterator, error) {
	tab, err := e.db.Table(n.Table)
	if err != nil {
		return nil, err
	}
	cols := make([]streamCol, 0, len(n.Columns))
	data := make([]colData, 0, len(n.Columns))
	for _, c := range n.Columns {
		q := n.Alias + "." + c
		if col, ok := tab.Ints[c]; ok {
			cols = append(cols, streamCol{name: q})
			data = append(data, colData{ints: col})
			continue
		}
		if col, ok := tab.Strs[c]; ok {
			cols = append(cols, streamCol{name: q, isStr: true})
			data = append(data, colData{strs: col})
			continue
		}
		return nil, fmt.Errorf("table %s has no column %q", n.Table, c)
	}
	it := &scanIter{baseIter: baseIter{layout{cols}}, rc: rc, cols: data, total: tab.NumRows}
	it.out.ints = make([][]int64, len(cols))
	it.out.strs = make([][]string, len(cols))
	if len(n.Preds) > 0 {
		it.preds, err = compileStreamPreds(&it.l, n.Preds)
		if err != nil {
			return nil, err
		}
		it.sel = rc.eng.pool.getSel(rc.cap)
	}
	return it, nil
}

func (s *scanIter) Next() (*Batch, error) {
	for s.off < s.total {
		end := s.off + s.rc.cap
		if end > s.total {
			end = s.total
		}
		n := end - s.off
		for p := range s.cols {
			if s.cols[p].strs != nil {
				s.out.strs[p] = s.cols[p].strs[s.off:end]
				s.out.ints[p] = nil
			} else {
				s.out.ints[p] = s.cols[p].ints[s.off:end]
				s.out.strs[p] = nil
			}
		}
		s.off = end
		if s.preds == nil {
			s.out.n = n
			s.out.sel = nil
			return &s.out, nil
		}
		sel := s.sel[:0]
		for i := 0; i < n; i++ {
			keep := true
			for _, f := range s.preds {
				if !f(&s.out, i) {
					keep = false
					break
				}
			}
			if keep {
				sel = append(sel, int32(i))
			}
		}
		if len(sel) == 0 {
			continue // fully filtered window: pull the next one
		}
		s.sel = sel
		s.out.n = len(sel)
		s.out.sel = sel
		return &s.out, nil
	}
	return nil, nil
}

func (s *scanIter) Close() {
	if s.sel != nil {
		s.rc.eng.pool.putSel(s.sel)
		s.sel = nil
	}
}

// ---------------------------------------------------------------------------
// Filter

// filterIter narrows each child batch with a selection vector; column
// data is shared with the child, never copied.
type filterIter struct {
	baseIter
	rc    *runCtx
	child iterator
	preds []rowPred
	sel   []int32
	out   Batch
}

func newFilterIter(child iterator, preds []sql.Predicate, rc *runCtx) (iterator, error) {
	l := child.lay()
	fns, err := compileStreamPreds(l, preds)
	if err != nil {
		return nil, err
	}
	return &filterIter{baseIter: baseIter{*l}, rc: rc, child: child, preds: fns, sel: rc.eng.pool.getSel(rc.cap)}, nil
}

func (f *filterIter) Next() (*Batch, error) {
	for {
		cb, err := f.child.Next()
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return nil, nil
		}
		sel := f.sel[:0]
		for i := 0; i < cb.n; i++ {
			r := cb.row(i)
			keep := true
			for _, fn := range f.preds {
				if !fn(cb, r) {
					keep = false
					break
				}
			}
			if keep {
				sel = append(sel, int32(r))
			}
		}
		if len(sel) == 0 {
			continue
		}
		f.sel = sel
		f.out = Batch{n: len(sel), sel: sel, ints: cb.ints, strs: cb.strs}
		return &f.out, nil
	}
}

func (f *filterIter) Close() {
	if f.sel != nil {
		f.rc.eng.pool.putSel(f.sel)
		f.sel = nil
	}
	f.child.Close()
}

// ---------------------------------------------------------------------------
// Project

// projectIter reorders column positions by copying slice headers only.
type projectIter struct {
	baseIter
	child iterator
	src   []int // output position → child position
	out   Batch
}

func newProjectIter(child iterator, cols []string) (iterator, error) {
	cl := child.lay()
	outCols := make([]streamCol, len(cols))
	src := make([]int, len(cols))
	for i, c := range cols {
		p, ok := cl.find(named(c))
		if !ok {
			return nil, fmt.Errorf("engine: projection references missing column %q (have %s)",
				c, strings.Join(cl.names(), ","))
		}
		outCols[i] = cl.cols[p]
		src[i] = p
	}
	it := &projectIter{baseIter: baseIter{layout{outCols}}, child: child, src: src}
	it.out.ints = make([][]int64, len(cols))
	it.out.strs = make([][]string, len(cols))
	return it, nil
}

func (p *projectIter) Next() (*Batch, error) {
	cb, err := p.child.Next()
	if err != nil {
		return nil, err
	}
	if cb == nil {
		return nil, nil
	}
	for i, s := range p.src {
		p.out.ints[i] = cb.ints[s]
		p.out.strs[i] = cb.strs[s]
	}
	p.out.n = cb.n
	p.out.sel = cb.sel
	return &p.out, nil
}

func (p *projectIter) Close() { p.child.Close() }

// ---------------------------------------------------------------------------
// Exchanges

// passthroughIter models single-partition and broadcast exchanges, which
// move no data on a single node.
type passthroughIter struct {
	baseIter
	child iterator
}

func (p *passthroughIter) Next() (*Batch, error)  { return p.child.Next() }
func (p *passthroughIter) emptyCols() []streamCol { return p.child.emptyCols() }
func (p *passthroughIter) Close()                 { p.child.Close() }

// skewPartitions is the partition count used to measure key skew; it
// matches the simulator's default shuffle partitioning.
const skewPartitions = 24

// exchangeKey returns the partitioning column of a hash exchange (the
// first group key for aggregate shuffles).
func exchangeKey(n *physical.Node) *logical.BoundCol {
	if n.LeftKey != nil {
		return n.LeftKey
	}
	if len(n.GroupBy) > 0 {
		return &n.GroupBy[0]
	}
	return nil
}

// exchangeIter passes batches through while folding the partition hash of
// the exchange key into per-partition counts. At end of stream it records
// the node's Skew: the largest partition over the mean (1 = perfectly
// balanced). Ints hash by Fibonacci multiplication, strings by FNV-1a.
type exchangeIter struct {
	baseIter
	child  iterator
	node   *physical.Node
	keyPos int // -1 when the key is absent: skew stays 1
	isStr  bool
	counts [skewPartitions]int
	total  int
}

func newExchangeIter(child iterator, n *physical.Node) iterator {
	it := &exchangeIter{baseIter: baseIter{*child.lay()}, child: child, node: n, keyPos: -1}
	if key := exchangeKey(n); key != nil {
		if p, ok := child.lay().find(boundKey(key)); ok {
			it.keyPos = p
			it.isStr = child.lay().cols[p].isStr
		}
	}
	return it
}

func (x *exchangeIter) Next() (*Batch, error) {
	b, err := x.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		x.node.Skew = x.skew()
		return nil, nil
	}
	x.total += b.n
	if x.keyPos >= 0 {
		if x.isStr {
			col := b.strs[x.keyPos]
			for i := 0; i < b.n; i++ {
				v := col[b.row(i)]
				var h uint64 = 14695981039346656037
				for j := 0; j < len(v); j++ {
					h = (h ^ uint64(v[j])) * 1099511628211
				}
				x.counts[h%skewPartitions]++
			}
		} else {
			col := b.ints[x.keyPos]
			for i := 0; i < b.n; i++ {
				h := uint64(col[b.row(i)]) * 0x9E3779B97F4A7C15
				x.counts[h%skewPartitions]++
			}
		}
	}
	return b, nil
}

func (x *exchangeIter) skew() float64 {
	if x.keyPos < 0 || x.total == 0 {
		return 1
	}
	max := 0
	for _, c := range x.counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / (float64(x.total) / skewPartitions)
}

func (x *exchangeIter) emptyCols() []streamCol { return x.child.emptyCols() }
func (x *exchangeIter) Close()                 { x.child.Close() }

// ---------------------------------------------------------------------------
// Sort

// sortIter is a pipeline breaker: it drains its child's live columns and
// its key, stable-sorts once, then emits windows over the sorted columns.
type sortIter struct {
	baseIter
	child  iterator
	keyPos int
	desc   bool
	live   uint64
	rc     *runCtx
	built  bool
	cols   []colData
	total  int
	off    int
	out    Batch
}

func newSortIter(child iterator, n *physical.Node, rc *runCtx, up *ancestors) (iterator, error) {
	if n.SortCol == nil {
		return &passthroughIter{baseIter{*child.lay()}, child}, nil
	}
	l := child.lay()
	p, ok := l.find(boundKey(n.SortCol))
	if !ok {
		return nil, fmt.Errorf("sort column %q missing", n.SortCol.String())
	}
	it := &sortIter{baseIter: baseIter{*l}, child: child, keyPos: p, desc: n.SortDesc, rc: rc,
		live: liveMask(l, &ancestors{n: n, up: up})}
	it.out.ints = make([][]int64, len(l.cols))
	it.out.strs = make([][]string, len(l.cols))
	return it, nil
}

func (s *sortIter) build() error {
	pool := &s.rc.eng.pool
	acc := make([]colData, len(s.l.cols))
	defer putCols(pool, acc)
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		appendBatch(acc, &s.l, b, s.live, pool)
		s.total += b.n
		if s.total > s.rc.max {
			return fmt.Errorf("sort input exceeds %d rows: %w", s.rc.max, ErrRowLimit)
		}
	}
	var idx []int
	if s.l.cols[s.keyPos].isStr {
		idx = stableOrder(acc[s.keyPos].strs, s.desc)
	} else {
		idx = stableOrderInts(acc[s.keyPos].ints, s.desc)
	}
	s.cols = make([]colData, len(s.l.cols))
	for p := range acc {
		if src := acc[p].strs; src != nil {
			nc := pool.getStrs(s.total)
			for i, j := range idx {
				nc[i] = src[j]
			}
			s.cols[p].strs = nc
		} else if src := acc[p].ints; src != nil {
			nc := pool.getInts(s.total)
			for i, j := range idx {
				nc[i] = src[j]
			}
			s.cols[p].ints = nc
		}
	}
	s.built = true
	return nil
}

// stableOrder returns the row order of a stable sort on key: it sorts
// row indices on their keys and breaks ties on the index.
func stableOrder[K cmp.Ordered](key []K, desc bool) []int {
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		c := cmp.Compare(key[a], key[b])
		if desc {
			c = -c
		}
		return cmp.Or(c, a-b)
	})
	return idx
}

// stableOrderInts is stableOrder for int keys. When the key range and the
// row count fit in 64 bits together, each key's offset into the range
// (reversed for desc) and its row pack into one word, so a plain sort of
// the words orders keys and breaks ties on the row.
func stableOrderInts(key []int64, desc bool) []int {
	if len(key) == 0 {
		return nil
	}
	lo, hi := slices.Min(key), slices.Max(key)
	span, shift := uint64(hi)-uint64(lo), bits.Len(uint(len(key)))
	if bits.Len64(span)+shift > 64 {
		return stableOrder(key, desc)
	}
	words := make([]uint64, len(key))
	for i, k := range key {
		d := uint64(k) - uint64(lo)
		if desc {
			d = span - d
		}
		words[i] = d<<shift | uint64(i)
	}
	slices.Sort(words)
	idx := make([]int, len(words))
	for i, w := range words {
		idx[i] = int(w & (1<<shift - 1))
	}
	return idx
}

func (s *sortIter) Next() (*Batch, error) {
	if !s.built {
		if err := s.build(); err != nil {
			return nil, err
		}
	}
	if s.off >= s.total {
		return nil, nil
	}
	end := s.off + s.rc.cap
	if end > s.total {
		end = s.total
	}
	for p, c := range s.cols {
		if c.strs != nil {
			s.out.strs[p] = c.strs[s.off:end]
		} else if c.ints != nil {
			s.out.ints[p] = c.ints[s.off:end]
		}
	}
	s.out.n = end - s.off
	s.out.sel = nil
	s.off = end
	return &s.out, nil
}

func (s *sortIter) emptyCols() []streamCol { return s.child.emptyCols() }

func (s *sortIter) Close() {
	putCols(&s.rc.eng.pool, s.cols)
	s.cols = nil
	s.child.Close()
}

// ---------------------------------------------------------------------------
// Limit

// limitIter truncates the stream via the selection-vector length. Past its
// quota it keeps pulling and discarding child batches, so every node below
// a LIMIT still reports its full output cardinality as ActRows — the
// number the simulator prices every node on — whatever the batch size.
type limitIter struct {
	baseIter
	child     iterator
	remaining int
	out       Batch
}

func (l *limitIter) Next() (*Batch, error) {
	for {
		cb, err := l.child.Next()
		if cb == nil || err != nil {
			return nil, err
		}
		if l.remaining <= 0 {
			continue
		}
		if cb.n <= l.remaining {
			l.remaining -= cb.n
			return cb, nil
		}
		l.out = *cb
		l.out.n = l.remaining
		if l.out.sel != nil {
			l.out.sel = l.out.sel[:l.remaining]
		}
		l.remaining = 0
		return &l.out, nil
	}
}

func (l *limitIter) emptyCols() []streamCol { return l.child.emptyCols() }
func (l *limitIter) Close()                 { l.child.Close() }
