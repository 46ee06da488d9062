package engine_test

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"

	"raal/internal/catalog"
	"raal/internal/engine"
	"raal/internal/physical"
	"raal/internal/sql"
)

// The reference interpreter: a row-at-a-time statement of what a physical plan
// computes, which diffEngine holds the engine to. Being in the external test
// package, it cannot call the code it checks. It materializes every output.

// refRel is one operator's full output; a cell is an int64 or a string.
type refRel struct {
	cols []col
	rows [][]any
}

type col struct {
	name string
	str  bool
}

type malformed string // aborts a plan that cannot run; interpret returns it as an error

// at is the position of the named column, of type str if given.
func (r *refRel) at(name string, str ...bool) int {
	j := slices.IndexFunc(r.cols, func(c col) bool { return c.name == name })
	if j < 0 || len(str) > 0 && r.cols[j].str != str[0] {
		panic(malformed(fmt.Sprintf("no column %q of the type needed", name)))
	}
	return j
}

// interpret runs p and returns its relation and each node's ActRows and Skew.
func interpret(db *catalog.Database, p *physical.Plan, limit int) (rel *engine.Relation, act, skew map[*physical.Node]float64, err error) {
	act, skew = map[*physical.Node]float64{}, map[*physical.Node]float64{}
	defer func() {
		switch m := recover().(type) {
		case nil:
		case malformed:
			rel, err = nil, fmt.Errorf("interpreter: %s", m)
		default:
			panic(m)
		}
	}()
	var eval func(n *physical.Node) *refRel
	eval = func(n *physical.Node) *refRel {
		var kids []*refRel
		for _, c := range n.Children {
			kids = append(kids, eval(c))
		}
		out := apply(db, n, kids, limit)
		if n.Op == physical.ExchangeHashPartition {
			skew[n] = skewOf(out, n)
		}
		act[n] = float64(len(out.rows))
		return out
	}
	r := eval(p.Root) // a malformed node fails the run even past the row limit
	if slices.ContainsFunc(p.Nodes, func(n *physical.Node) bool { return act[n] > float64(limit) }) {
		return nil, act, skew, fmt.Errorf("interpreter: %w", engine.ErrRowLimit)
	}
	rel = &engine.Relation{N: len(r.rows), Ints: map[string][]int64{}, Strs: map[string][]string{}}
	for j, c := range r.cols {
		ints, strs := []int64{}, []string{}
		for _, row := range r.rows {
			i, _ := row[j].(int64)
			s, _ := row[j].(string)
			ints, strs = append(ints, i), append(strs, s)
		}
		if rel.Ints[c.name] = ints; c.str {
			delete(rel.Ints, c.name)
			rel.Strs[c.name] = strs
		}
	}
	return rel, act, skew, nil
}

func apply(db *catalog.Database, n *physical.Node, kids []*refRel, limit int) *refRel {
	switch n.Op {
	case physical.FileScan:
		tab := db.Tables[n.Table]
		r := &refRel{rows: make([][]any, tab.NumRows)}
		for _, c := range n.Columns {
			strs, str := tab.Strs[c]
			r.cols = append(r.cols, col{n.Alias + "." + c, str})
			get := func(i int) any { return tab.Ints[c][i] }
			if str {
				get = func(i int) any { return strs[i] }
			}
			for i := range r.rows {
				r.rows[i] = append(r.rows[i], get(i))
			}
		}
		kids = []*refRel{r}
		fallthrough // pushed-down predicates filter like a Filter node
	case physical.Filter:
		out := &refRel{cols: kids[0].cols}
		for _, row := range kids[0].rows {
			keep := true
			for _, p := range n.Preds {
				keep = test(kids[0], p, row) && keep // test every one: a malformed one fails
			}
			if keep {
				out.rows = append(out.rows, row)
			}
		}
		return out
	case physical.Project:
		out := &refRel{rows: make([][]any, len(kids[0].rows))}
		for _, name := range n.Columns {
			j := kids[0].at(name)
			out.cols = append(out.cols, kids[0].cols[j])
			for i, row := range kids[0].rows {
				out.rows[i] = append(out.rows[i], row[j])
			}
		}
		return out
	case physical.Sort:
		out, j, sign := &refRel{kids[0].cols, slices.Clone(kids[0].rows)}, kids[0].at(n.SortCol.String()), 1
		if n.SortDesc {
			sign = -1
		}
		slices.SortStableFunc(out.rows, func(a, b []any) int { return sign * compare(a[j], b[j]) })
		return out
	case physical.SortMergeJoin, physical.BroadcastHashJoin, physical.ShuffledHashJoin, physical.BroadcastNestedLoopJoin:
		return join(kids[0], kids[1], n, limit)
	case physical.HashAggregate, physical.SortAggregate:
		return aggregate(kids[0], n)
	case physical.LocalLimit:
		return &refRel{kids[0].cols, kids[0].rows[:min(len(kids[0].rows), n.LimitN)]}
	case physical.ExchangeHashPartition, physical.ExchangeSinglePartition, physical.BroadcastExchange:
	default:
		panic(malformed("unknown operator"))
	}
	return kids[0]
}

// compare orders two int64 or two string cells.
func compare(a, b any) int {
	if i, ok := a.(int64); ok {
		return cmp.Compare(i, b.(int64))
	}
	return strings.Compare(a.(string), b.(string))
}

var holds = map[sql.CmpOp]func(c int) bool{
	sql.OpEq: func(c int) bool { return c == 0 }, sql.OpNe: func(c int) bool { return c != 0 },
	sql.OpLt: func(c int) bool { return c < 0 }, sql.OpLe: func(c int) bool { return c <= 0 },
	sql.OpGt: func(c int) bool { return c > 0 }, sql.OpGe: func(c int) bool { return c >= 0 },
}

// test evaluates one predicate on a row. LIKE and string literals need a
// string column; BETWEEN, int literals and column pairs need int ones.
func test(r *refRel, p sql.Predicate, row []any) bool {
	switch p := p.(type) {
	case *sql.Comparison:
		a, b := row[r.at(p.Left.String(), p.Lit.IsStr && p.RightCol == nil)], any(p.Lit.I)
		if p.RightCol != nil {
			b = row[r.at(p.RightCol.String(), false)]
		} else if p.Lit.IsStr {
			b = p.Lit.S
		}
		return holds[p.Op](compare(a, b))
	case *sql.Between:
		v := row[r.at(p.Col.String(), false)].(int64)
		return p.Lo <= v && v <= p.Hi
	case *sql.In:
		v := row[r.at(p.Col.String())]
		return slices.ContainsFunc(p.Values, func(l sql.Literal) bool { return v == any(l.I) || v == any(l.S) })
	case *sql.Like:
		return like(row[r.at(p.Col.String(), true)].(string), p.Pattern)
	case *sql.NullCheck:
		return p.Not
	}
	panic(malformed(fmt.Sprintf("unknown predicate %T", p)))
}

// like matches SQL LIKE, where % is the only wildcard: after each pattern
// byte, m[i] says whether the pattern so far matches s[:i].
func like(s, p string) bool {
	m := append([]bool{true}, make([]bool, len(s))...)
	for _, c := range []byte(p) {
		next := make([]bool, len(s)+1)
		for i := range next {
			next[i] = c == '%' && (m[i] || i > 0 && next[i-1]) || c != '%' && i > 0 && m[i-1] && s[i-1] == c
		}
		m = next
	}
	return m[len(s)]
}

// skewOf hashes each row's key into 24 partitions: ints by Fibonacci hashing, strings by FNV-1a.
func skewOf(r *refRel, n *physical.Node) float64 {
	key := n.LeftKey
	if key == nil {
		key = &n.GroupBy[0]
	}
	j, parts := r.at(key.String()), [24]int{}
	if len(r.rows) == 0 {
		return 1
	}
	for _, row := range r.rows {
		h := fnv.New64a()
		if s, ok := row[j].(string); ok {
			h.Write([]byte(s))
			parts[h.Sum64()%24]++
		} else {
			parts[uint64(row[j].(int64))*0x9E3779B97F4A7C15%24]++
		}
	}
	return float64(slices.Max(parts[:])) / (float64(len(r.rows)) / 24)
}

// join pairs each left row with every right row whose key is equal (or
// relates by a nested loop's comparison), stopping past limit rows.
func join(l, r *refRel, n *physical.Node, limit int) *refRel {
	a, op := l.at(n.LeftKey.String()), sql.OpEq
	if n.Op == physical.BroadcastNestedLoopJoin {
		a, op = l.at(n.LeftKey.String(), false), n.ThetaOp
	}
	b := r.at(n.RightKey.String(), l.cols[a].str)
	out, match := &refRel{cols: slices.Concat(l.cols, r.cols)}, holds[op]
	for _, x := range l.rows {
		for _, y := range r.rows {
			if match(compare(x[a], y[b])) {
				if out.rows = append(out.rows, slices.Concat(x, y)); len(out.rows) > limit {
					return out
				}
			}
		}
	}
	return out
}

// aggregate groups rows by key in first-seen order and adds a column agg<i>
// per aggregate but bare group columns. On one node the partial phase sees
// every row, so it computes the final values; the final one passes them on.
func aggregate(r *refRel, n *physical.Node) *refRel {
	if n.Final {
		return r
	}
	out := &refRel{}
	var keys []int
	for _, g := range n.GroupBy {
		keys = append(keys, r.at(g.String()))
		out.cols = append(out.cols, r.cols[keys[len(keys)-1]])
	}
	index := map[string]int{}
	var members [][][]any // per group, its rows
	for _, row := range r.rows {
		key := make([]any, len(keys))
		for i, j := range keys {
			key[i] = row[j]
		}
		g, ok := index[fmt.Sprintf("%#v", key)]
		if !ok {
			g, index[fmt.Sprintf("%#v", key)] = len(members), len(members)
			members, out.rows = append(members, nil), append(out.rows, key)
		}
		members[g] = append(members[g], row)
	}
	if len(keys) == 0 && len(members) == 0 {
		members, out.rows = [][][]any{nil}, [][]any{nil} // a global aggregate always has its group
	}
	for i, a := range n.Aggs {
		if a.Agg == sql.AggNone {
			continue
		}
		j := -1 // the int input column; COUNT counts rows
		if a.Col != nil && a.Agg != sql.AggCount {
			j = r.at(a.Col.String(), false)
		}
		out.cols = append(out.cols, col{name: fmt.Sprintf("agg%d", i)})
		for g, rows := range members {
			cnt, sum, lo, hi := int64(len(rows)), int64(0), int64(math.MaxInt64), int64(math.MinInt64)
			for _, row := range rows {
				if j >= 0 {
					v := row[j].(int64)
					sum, lo, hi = sum+v, min(lo, v), max(hi, v)
				}
			}
			out.rows[g] = append(out.rows[g], map[sql.AggFunc]int64{sql.AggCount: cnt,
				sql.AggSum: sum, sql.AggAvg: sum / max(cnt, 1), sql.AggMin: lo, sql.AggMax: hi}[a.Agg])
		}
	}
	if len(members) == 0 {
		out.cols = out.cols[:len(keys)] // no group, no aggregate columns
	}
	return out
}
