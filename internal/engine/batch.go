package engine

import (
	"sort"
	"sync"
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

// layout is the ordered column set of one plan edge plus a name index.
type layout struct {
	cols []streamCol
	pos  map[string]int
}

func newLayout(cols []streamCol) *layout {
	l := &layout{cols: cols, pos: make(map[string]int, len(cols))}
	for i, c := range cols {
		l.pos[c.name] = i
	}
	return l
}

// find returns the position of the named column.
func (l *layout) find(name string) (int, bool) {
	p, ok := l.pos[name]
	return p, ok
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
	ints sync.Pool // *[]int64
	strs sync.Pool // *[]string
	sels sync.Pool // *[]int32
}

func (p *slabPool) getInts(n int) []int64 {
	if v := p.ints.Get(); v != nil {
		if s := *(v.(*[]int64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int64, n)
}

func (p *slabPool) putInts(s []int64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	p.ints.Put(&s)
}

func (p *slabPool) getStrs(n int) []string {
	if v := p.strs.Get(); v != nil {
		if s := *(v.(*[]string)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]string, n)
}

func (p *slabPool) putStrs(s []string) {
	if cap(s) == 0 {
		return
	}
	// Clear before pooling so recycled slabs don't pin string contents.
	s = s[:cap(s)]
	for i := range s {
		s[i] = ""
	}
	s = s[:0]
	p.strs.Put(&s)
}

func (p *slabPool) getSel(n int) []int32 {
	if v := p.sels.Get(); v != nil {
		if s := *(v.(*[]int32)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int32, n)
}

func (p *slabPool) putSel(s []int32) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	p.sels.Put(&s)
}
