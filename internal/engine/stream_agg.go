package engine

import (
	"fmt"
	"math"
	"slices"
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
	for i := range n.GroupBy {
		key := boundKey(&n.GroupBy[i])
		p, ok := cl.find(key)
		if !ok {
			return nil, fmt.Errorf("group column %q missing", key)
		}
		it.accs = append(it.accs, groupAccessor{col: cl.cols[p], pos: p})
		outCols = append(outCols, cl.cols[p])
	}
	it.nGroup = len(outCols)

	if n.Final {
		it.stateIn = make([][2]int, len(n.Aggs))
		statePos := func(ai int, suffix string) (int, error) {
			key := named(stateName(ai, suffix))
			p, ok := cl.intPos(key)
			if !ok {
				return -1, fmt.Errorf("aggregate state column %q missing", key)
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
			outCols = append(outCols, streamCol{name: "agg" + strconv.Itoa(ai)})
		}
	} else {
		it.inputs = make([]int, len(n.Aggs))
		for ai, a := range n.Aggs {
			it.inputs[ai] = -1
			if a.Star || a.Col == nil || a.Agg == sql.AggNone {
				// COUNT(*) / bare group column: counts rows
			} else {
				key := boundKey(a.Col)
				if p, ok := cl.intPos(key); ok {
					it.inputs[ai] = p
				} else if _, ok := cl.strPos(key); ok {
					if a.Agg != sql.AggCount {
						return nil, fmt.Errorf("aggregate %s over string column %q", a.Agg, key)
					}
					// COUNT over strings counts rows (no NULLs)
				} else {
					return nil, fmt.Errorf("aggregate column %q missing", key)
				}
			}
			switch a.Agg {
			case sql.AggCount:
				outCols = append(outCols, streamCol{name: stateName(ai, "cnt")})
			case sql.AggSum:
				outCols = append(outCols, streamCol{name: stateName(ai, "sum")})
			case sql.AggAvg:
				outCols = append(outCols, streamCol{name: stateName(ai, "sum")}, streamCol{name: stateName(ai, "cnt")})
			case sql.AggMin:
				outCols = append(outCols, streamCol{name: stateName(ai, "min")})
			case sql.AggMax:
				outCols = append(outCols, streamCol{name: stateName(ai, "max")})
			case sql.AggNone:
			}
		}
	}
	it.l = layout{outCols}
	it.out.ints = make([][]int64, len(outCols))
	it.out.strs = make([][]string, len(outCols))
	return it, nil
}

// stateName names state column suffix (cnt, sum, min or max) of partial
// aggregate ai.
func stateName(ai int, suffix string) string {
	return "__p" + strconv.Itoa(ai) + "_" + suffix
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
	pool := &a.rc.eng.pool
	a.cols = make([]colData, len(a.l.cols))
	keyVals := a.cols[:a.nGroup] // copied key values, contiguous per group
	states := pool.states.get(0) // len(aggs) per group, groups in first-seen order
	defer func() { pool.states.put(states) }()

	newGroup := func() (int32, error) {
		g := a.groups
		if g >= a.rc.max {
			return 0, fmt.Errorf("aggregate output exceeds %d groups: %w", a.rc.max, ErrRowLimit)
		}
		a.groups++
		states = slices.Grow(states, len(aggs))
		for range aggs {
			if final {
				states = append(states, aggState{min: math.MaxInt64, max: math.MinInt64})
			} else {
				states = append(states, aggState{})
			}
		}
		return int32(g), nil
	}
	group := func(g int32) []aggState { return states[int(g)*len(aggs) : int(g+1)*len(aggs)] }
	addKey := func(gi int, b *Batch, acc groupAccessor, r int) {
		if acc.col.isStr {
			if keyVals[gi].strs == nil {
				keyVals[gi].strs = pool.getStrs(0)
			}
			keyVals[gi].strs = append(keyVals[gi].strs, b.strs[acc.pos][r])
		} else {
			if keyVals[gi].ints == nil {
				keyVals[gi].ints = pool.getInts(0)
			}
			keyVals[gi].ints = append(keyVals[gi].ints, b.ints[acc.pos][r])
		}
	}

	// Three keying strategies, hottest first: no key at all (global
	// aggregates), a raw int64 map for the common single-int GROUP BY
	// (skips both key encoding and string hashing on every input row),
	// and the encoded-string map for composite or string keys. All three
	// discover groups in first-seen order. The maps hold group indexes and
	// come from the engine's pool, cleared, so a warm run does not grow
	// them again.
	switch {
	case a.nGroup == 0:
		g := int32(-1)
		for {
			b, err := a.child.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			for i := 0; i < b.n; i++ {
				if g < 0 {
					if g, err = newGroup(); err != nil {
						return err
					}
				}
				a.update(group(g), b, b.row(i), final)
			}
		}
	case a.nGroup == 1 && !a.accs[0].col.isStr:
		acc := a.accs[0]
		index := pool.intGroups.get()
		defer pool.intGroups.put(index)
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
				k := b.ints[acc.pos][r]
				g, ok := index[k]
				if !ok {
					if g, err = newGroup(); err != nil {
						return err
					}
					index[k] = g
					addKey(0, b, acc, r)
				}
				a.update(group(g), b, r, final)
			}
		}
	default:
		index := pool.strGroups.get()
		defer pool.strGroups.put(index)
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
				g, ok := index[string(buf)]
				if !ok {
					if g, err = newGroup(); err != nil {
						return err
					}
					index[string(buf)] = g
					for gi, acc := range a.accs {
						addKey(gi, b, acc, r)
					}
				}
				a.update(group(g), b, r, final)
			}
		}
	}

	// A global partial aggregate over zero rows still emits one all-zero
	// row (COUNT(*) of an empty input is 0, not absent).
	if !final && len(a.node.GroupBy) == 0 && a.groups == 0 {
		for range aggs {
			states = append(states, aggState{min: math.MaxInt64, max: math.MinInt64})
		}
		a.groups = 1
	}

	col := a.nGroup
	for ai, ag := range aggs {
		mk := func(get func(aggState) int64) {
			vals := pool.getInts(a.groups)
			for g := range vals {
				vals[g] = get(states[g*len(aggs)+ai])
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

// Close returns the output columns to the engine's pool.
func (a *aggIter) Close() {
	putCols(&a.rc.eng.pool, a.cols)
	a.cols = nil
	a.child.Close()
}
