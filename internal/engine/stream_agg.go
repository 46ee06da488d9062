package engine

import (
	"fmt"
	"math"
	"strconv"

	"raal/internal/physical"
	"raal/internal/sql"
)

// Two-phase aggregation, mirroring Spark's partial/final split. The
// partial phase emits, per group, state columns the final phase merges;
// per aggregate i:
//
//	count      → __p<i>_cnt
//	sum        → __p<i>_sum
//	avg        → __p<i>_sum and __p<i>_cnt
//	min / max  → __p<i>_min / __p<i>_max
//
// Final output columns are named agg<i> (int64); a bare group column
// (AggNone) adds none, its group key keeps its qualified name. AVG uses
// integer division, and over no rows COUNT, SUM and AVG are 0, MIN is
// MaxInt64 and MAX is MinInt64 (the data has no NULLs to return).
//
// Both phases are pipeline breakers that hold only per-group state (plus
// a copy of each group's key values) — never their input — so an
// aggregation over a 10^7-row join stream costs memory proportional to
// the number of groups, not the number of rows. Groups are emitted in
// first-seen order, so the output order is deterministic.

// aggState is one aggregate's running state within one group.
type aggState struct {
	cnt      int64
	sum      int64
	min, max int64
	seen     bool
}

// groupAccessor reads one group-by column from the child stream.
type groupAccessor struct {
	col streamCol
	pos int
}

// appendKey extends buf with the encoded group key of physical row r: per
// column, an int's decimal digits or a string's length and bytes, so no
// two distinct keys share an encoding.
func appendKey(buf []byte, accs []groupAccessor, b *Batch, r int) []byte {
	for _, a := range accs {
		if a.col.isStr {
			s := b.strs[a.pos][r]
			buf = strconv.AppendInt(append(buf, 's'), int64(len(s)), 10)
			buf = append(append(buf, ':'), s...)
		} else {
			buf = strconv.AppendInt(append(buf, 'i'), b.ints[a.pos][r], 10)
			buf = append(buf, 0)
		}
	}
	return buf
}

// aggIter implements both the partial (state-emitting) and final
// (merging) aggregation phases.
type aggIter struct {
	baseIter
	child iterator
	node  *physical.Node
	rc    *runCtx

	accs    []groupAccessor
	nGroup  int      // group-column count (layout prefix)
	inputs  []int    // partial: input col position per agg, -1 = count rows
	stateIn [][2]int // final: per agg, positions of its state cols (-1 unused)

	built  bool
	groups int
	cols   []colData // finished output columns
	off    int
	out    Batch
}

func newAggIter(child iterator, n *physical.Node, rc *runCtx) (iterator, error) {
	cl := child.lay()
	it := &aggIter{child: child, node: n, rc: rc}
	outCols := make([]streamCol, 0, len(n.GroupBy)+2*len(n.Aggs))
	for _, g := range n.GroupBy {
		name := g.String()
		p, ok := cl.find(name)
		if !ok {
			return nil, fmt.Errorf("group column %q missing", name)
		}
		it.accs = append(it.accs, groupAccessor{col: cl.cols[p], pos: p})
		outCols = append(outCols, cl.cols[p])
	}
	it.nGroup = len(outCols)

	if n.Final {
		it.stateIn = make([][2]int, len(n.Aggs))
		statePos := func(ai int, suffix string) (int, error) {
			name := fmt.Sprintf("__p%d_%s", ai, suffix)
			p, ok := cl.intPos(name)
			if !ok {
				return -1, fmt.Errorf("aggregate state column %q missing", name)
			}
			return p, nil
		}
		for ai, a := range n.Aggs {
			it.stateIn[ai] = [2]int{-1, -1}
			var err error
			switch a.Agg {
			case sql.AggCount:
				it.stateIn[ai][0], err = statePos(ai, "cnt")
			case sql.AggSum:
				it.stateIn[ai][0], err = statePos(ai, "sum")
			case sql.AggAvg:
				it.stateIn[ai][0], err = statePos(ai, "sum")
				if err == nil {
					it.stateIn[ai][1], err = statePos(ai, "cnt")
				}
			case sql.AggMin:
				it.stateIn[ai][0], err = statePos(ai, "min")
			case sql.AggMax:
				it.stateIn[ai][0], err = statePos(ai, "max")
			case sql.AggNone:
				continue
			}
			if err != nil {
				return nil, err
			}
			outCols = append(outCols, streamCol{name: fmt.Sprintf("agg%d", ai)})
		}
	} else {
		it.inputs = make([]int, len(n.Aggs))
		for ai, a := range n.Aggs {
			it.inputs[ai] = -1
			if a.Star || a.Col == nil || a.Agg == sql.AggNone {
				// COUNT(*) / bare group column: counts rows
			} else {
				name := a.Col.String()
				if p, ok := cl.intPos(name); ok {
					it.inputs[ai] = p
				} else if _, ok := cl.strPos(name); ok {
					if a.Agg != sql.AggCount {
						return nil, fmt.Errorf("aggregate %s over string column %q", a.Agg, name)
					}
					// COUNT over strings counts rows (no NULLs)
				} else {
					return nil, fmt.Errorf("aggregate column %q missing", name)
				}
			}
			pfx := fmt.Sprintf("__p%d", ai)
			switch a.Agg {
			case sql.AggCount:
				outCols = append(outCols, streamCol{name: pfx + "_cnt"})
			case sql.AggSum:
				outCols = append(outCols, streamCol{name: pfx + "_sum"})
			case sql.AggAvg:
				outCols = append(outCols, streamCol{name: pfx + "_sum"}, streamCol{name: pfx + "_cnt"})
			case sql.AggMin:
				outCols = append(outCols, streamCol{name: pfx + "_min"})
			case sql.AggMax:
				outCols = append(outCols, streamCol{name: pfx + "_max"})
			case sql.AggNone:
			}
		}
	}
	it.l = newLayout(outCols)
	it.out.ints = make([][]int64, len(outCols))
	it.out.strs = make([][]string, len(outCols))
	return it, nil
}

// update folds physical row r of b into one group's states.
func (a *aggIter) update(st []aggState, b *Batch, r int, final bool) {
	if final {
		for ai, ag := range a.node.Aggs {
			s := &st[ai]
			switch ag.Agg {
			case sql.AggCount:
				s.cnt += b.ints[a.stateIn[ai][0]][r]
			case sql.AggSum:
				s.sum += b.ints[a.stateIn[ai][0]][r]
			case sql.AggAvg:
				s.sum += b.ints[a.stateIn[ai][0]][r]
				s.cnt += b.ints[a.stateIn[ai][1]][r]
			case sql.AggMin:
				if v := b.ints[a.stateIn[ai][0]][r]; v < s.min {
					s.min = v
				}
			case sql.AggMax:
				if v := b.ints[a.stateIn[ai][0]][r]; v > s.max {
					s.max = v
				}
			}
		}
		return
	}
	for ai := range a.node.Aggs {
		s := &st[ai]
		s.cnt++
		if p := a.inputs[ai]; p >= 0 {
			v := b.ints[p][r]
			s.sum += v
			if !s.seen || v < s.min {
				s.min = v
			}
			if !s.seen || v > s.max {
				s.max = v
			}
			s.seen = true
		}
	}
}

func (a *aggIter) build() error {
	aggs := a.node.Aggs
	final := a.node.Final
	keyVals := make([]colData, a.nGroup) // copied key values, contiguous per group
	var grpStates [][]aggState           // per group in first-seen order

	newGroup := func() ([]aggState, error) {
		st := make([]aggState, len(aggs))
		if final {
			for ai := range st {
				st[ai].min = math.MaxInt64
				st[ai].max = math.MinInt64
			}
		}
		grpStates = append(grpStates, st)
		if len(grpStates) > a.rc.max {
			return nil, fmt.Errorf("aggregate output exceeds %d groups: %w", a.rc.max, ErrRowLimit)
		}
		return st, nil
	}

	// Three keying strategies, hottest first: no key at all (global
	// aggregates), a raw int64 map for the common single-int GROUP BY
	// (skips both key encoding and string hashing on every input row),
	// and the encoded-string map for composite or string keys. All three
	// discover groups in first-seen order.
	switch {
	case a.nGroup == 0:
		var st []aggState
		for {
			b, err := a.child.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			for i := 0; i < b.n; i++ {
				if st == nil {
					if st, err = newGroup(); err != nil {
						return err
					}
				}
				a.update(st, b, b.row(i), final)
			}
		}
	case a.nGroup == 1 && !a.accs[0].col.isStr:
		pos := a.accs[0].pos
		states := map[int64][]aggState{}
		for {
			b, err := a.child.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			for i := 0; i < b.n; i++ {
				r := b.row(i)
				k := b.ints[pos][r]
				st, ok := states[k]
				if !ok {
					if st, err = newGroup(); err != nil {
						return err
					}
					states[k] = st
					keyVals[0].ints = append(keyVals[0].ints, k)
				}
				a.update(st, b, r, final)
			}
		}
	default:
		states := map[string][]aggState{}
		var buf []byte
		for {
			b, err := a.child.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			for i := 0; i < b.n; i++ {
				r := b.row(i)
				buf = appendKey(buf[:0], a.accs, b, r)
				st, ok := states[string(buf)]
				if !ok {
					if st, err = newGroup(); err != nil {
						return err
					}
					states[string(buf)] = st
					for gi, acc := range a.accs {
						if acc.col.isStr {
							keyVals[gi].strs = append(keyVals[gi].strs, b.strs[acc.pos][r])
						} else {
							keyVals[gi].ints = append(keyVals[gi].ints, b.ints[acc.pos][r])
						}
					}
				}
				a.update(st, b, r, final)
			}
		}
	}

	// A global partial aggregate over zero rows still emits one all-zero
	// row (COUNT(*) of an empty input is 0, not absent).
	if !final && len(a.node.GroupBy) == 0 && len(grpStates) == 0 {
		st := make([]aggState, len(aggs))
		for ai := range st {
			st[ai].min = math.MaxInt64
			st[ai].max = math.MinInt64
		}
		grpStates = append(grpStates, st)
	}

	a.groups = len(grpStates)
	a.cols = make([]colData, len(a.l.cols))
	for gi := 0; gi < a.nGroup; gi++ {
		a.cols[gi] = keyVals[gi]
	}
	col := a.nGroup
	for ai, ag := range aggs {
		gi := ai
		mk := func(get func(aggState) int64) {
			vals := make([]int64, a.groups)
			for g := range grpStates {
				vals[g] = get(grpStates[g][gi])
			}
			a.cols[col].ints = vals
			col++
		}
		if final {
			switch ag.Agg {
			case sql.AggCount:
				mk(func(s aggState) int64 { return s.cnt })
			case sql.AggSum:
				mk(func(s aggState) int64 { return s.sum })
			case sql.AggAvg:
				mk(func(s aggState) int64 {
					if s.cnt > 0 {
						return s.sum / s.cnt
					}
					return 0
				})
			case sql.AggMin:
				mk(func(s aggState) int64 { return s.min })
			case sql.AggMax:
				mk(func(s aggState) int64 { return s.max })
			}
		} else {
			switch ag.Agg {
			case sql.AggCount:
				mk(func(s aggState) int64 { return s.cnt })
			case sql.AggSum:
				mk(func(s aggState) int64 { return s.sum })
			case sql.AggAvg:
				mk(func(s aggState) int64 { return s.sum })
				mk(func(s aggState) int64 { return s.cnt })
			case sql.AggMin:
				mk(func(s aggState) int64 { return s.min })
			case sql.AggMax:
				mk(func(s aggState) int64 { return s.max })
			}
		}
	}
	a.built = true
	return nil
}

func (a *aggIter) Next() (*Batch, error) {
	if !a.built {
		if err := a.build(); err != nil {
			return nil, err
		}
	}
	if a.off >= a.groups {
		return nil, nil
	}
	end := a.off + a.rc.cap
	if end > a.groups {
		end = a.groups
	}
	for p := range a.cols {
		if a.l.cols[p].isStr {
			a.out.strs[p] = a.cols[p].strs[a.off:end]
			a.out.ints[p] = nil
		} else {
			a.out.ints[p] = a.cols[p].ints[a.off:end]
			a.out.strs[p] = nil
		}
	}
	a.out.n = end - a.off
	a.out.sel = nil
	a.off = end
	return &a.out, nil
}

// emptyCols: an aggregate that produced no groups carries only its key
// columns.
func (a *aggIter) emptyCols() []streamCol {
	if a.groups == 0 {
		return a.l.cols[:a.nGroup]
	}
	return a.l.cols
}

func (a *aggIter) Close() { a.cols = nil; a.child.Close() }
