package engine

import (
	"sort"
	"sync"

	"raal/internal/logical"
	"raal/internal/sql"
)

// DefaultBatchSize is the row capacity of one streaming chunk. 4096 rows
// keeps a chunk of a handful of int64 columns inside L2 while amortizing
// per-batch overhead over enough rows that the iterator dispatch cost
// disappears against the per-row work.
const DefaultBatchSize = 4096

// streamCol is one column of a streaming edge: the alias-qualified name
// and its type. The set of columns flowing over an edge is static — it is
// derived from the plan, never from data — so every batch on that edge
// shares one layout.
type streamCol struct {
	name  string
	isStr bool
}

// layout is the ordered column set of one plan edge. Layouts are narrow
// and are looked up only while a run's iterators are built, so a lookup
// scans the columns and matches names without building any.
type layout struct {
	cols []streamCol
}

// find returns the position of the column k names; of two columns that
// share the name, the later.
func (l *layout) find(k colKey) (int, bool) {
	for p := len(l.cols) - 1; p >= 0; p-- {
		if k.is(l.cols[p].name) {
			return p, true
		}
	}
	return 0, false
}

func (l *layout) intPos(k colKey) (int, bool) {
	p, ok := l.find(k)
	return p, ok && !l.cols[p].isStr
}

func (l *layout) strPos(k colKey) (int, bool) {
	p, ok := l.find(k)
	return p, ok && l.cols[p].isStr
}

// colKey is a column name in parts: qual.name when qualified, else name.
// A key matches a column's name without the name being built.
type colKey struct {
	qual, name string
	qualified  bool
}

// named is the key of a whole column name.
func named(name string) colKey { return colKey{name: name} }

// boundKey is the key of c.String().
func boundKey(c *logical.BoundCol) colKey { return colKey{c.Alias, c.Name, true} }

// refKey is the key of r.String().
func refKey(r sql.ColumnRef) colKey { return colKey{r.Qualifier, r.Name, r.Qualifier != ""} }

// is reports whether name is the name k stands for.
func (k colKey) is(name string) bool {
	if k.qualified {
		return isQualified(name, k.qual, k.name)
	}
	return name == k.name
}

func (k colKey) String() string {
	if k.qualified {
		return k.qual + "." + k.name
	}
	return k.name
}

// names returns the column names, sorted, for error messages.
func (l *layout) names() []string {
	out := make([]string, 0, len(l.cols))
	for _, c := range l.cols {
		out = append(out, c.name)
	}
	sort.Strings(out)
	return out
}

// Batch is one chunk of rows flowing between streaming operators. Columns
// are positional (indexed by the edge's layout): ints[p] is non-nil for
// int columns, strs[p] for string columns. A non-nil sel is a selection
// vector: the batch logically contains rows sel[0..n), each an index into
// the physical column slices — filters and limits narrow a batch without
// copying any column data.
//
// A batch is only valid until the next Next() call on the iterator that
// produced it: operators own their output slabs and reuse them, which is
// what keeps the streaming path allocation-free in steady state.
type Batch struct {
	n    int
	sel  []int32
	ints [][]int64
	strs [][]string
}

// row maps a logical row index to a physical index in the column slices.
func (b *Batch) row(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// slabPool recycles fixed-capacity column chunks across operators and
// across runs. It is safe for concurrent use (workload collection runs
// many plans through one Engine in parallel).
type slabPool struct {
	ints slabs[int64]
	strs slabs[string]
	sels slabs[int32]

	states    slabs[aggState] // an aggregate's group states
	intGroups groupIndex[int64]
	strGroups groupIndex[string]
}

func (p *slabPool) getInts(n int) []int64  { return p.ints.get(n) }
func (p *slabPool) putInts(s []int64)      { p.ints.put(s) }
func (p *slabPool) getStrs(n int) []string { return p.strs.get(n) }
func (p *slabPool) getSel(n int) []int32   { return p.sels.get(n) }
func (p *slabPool) putSel(s []int32)       { p.sels.put(s) }

// putStrs clears s before pooling it so a recycled slab pins no string
// contents.
func (p *slabPool) putStrs(s []string) {
	clear(s[:cap(s)])
	p.strs.put(s)
}

// slabs is a pool of slices of one element type. A pooled slice rides in
// a box (a *[]T, which sync.Pool holds without allocating); get parks the
// box it emptied in boxes and put refills one from there, so a warm
// get and put allocate nothing.
type slabs[T any] struct {
	full, boxes sync.Pool // *[]T
}

// get returns a slice of length n, pooled when one is large enough.
func (p *slabs[T]) get(n int) []T {
	if v := p.full.Get(); v != nil {
		box := v.(*[]T)
		s := *box
		*box = nil
		p.boxes.Put(box)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// put pools s; a nil or zero-capacity s is dropped.
func (p *slabs[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.full.Put(box)
}

// groupIndex is a pool of an aggregate's group maps (key → group index),
// each put back cleared; a cleared map keeps the room it grew.
type groupIndex[K comparable] struct {
	maps sync.Pool // map[K]int32
}

func (g *groupIndex[K]) get() map[K]int32 {
	if m, ok := g.maps.Get().(map[K]int32); ok {
		return m
	}
	return map[K]int32{}
}

func (g *groupIndex[K]) put(m map[K]int32) {
	clear(m)
	g.maps.Put(m)
}
