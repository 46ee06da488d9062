// Package physical represents Spark SQL physical plans and enumerates
// candidate plans for a bound query, playing the role of Catalyst's
// physical planning phase. Each query yields several alternative plans
// (different join orders, join algorithms, and scan pushdown choices) from
// which a cost model must choose — exactly the setting of the paper's
// Sec. III experiments.
package physical

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"raal/internal/logical"
	"raal/internal/sql"
)

// OpType is a physical operator, matching the vocabulary of the paper's
// Table II plus the join/exchange variants it lists in Sec. IV-C.
type OpType int

// Physical operators.
const (
	FileScan OpType = iota
	Filter
	Project
	Sort
	SortMergeJoin
	BroadcastHashJoin
	ShuffledHashJoin
	BroadcastNestedLoopJoin
	HashAggregate
	SortAggregate
	ExchangeHashPartition
	ExchangeSinglePartition
	BroadcastExchange
	LocalLimit
	numOpTypes
)

// NumOpTypes is the size of the operator vocabulary (for one-hot encoding).
const NumOpTypes = int(numOpTypes)

func (o OpType) String() string {
	switch o {
	case FileScan:
		return "FileScan"
	case Filter:
		return "Filter"
	case Project:
		return "Project"
	case Sort:
		return "Sort"
	case SortMergeJoin:
		return "SortMergeJoin"
	case BroadcastHashJoin:
		return "BroadcastHashJoin"
	case ShuffledHashJoin:
		return "ShuffledHashJoin"
	case BroadcastNestedLoopJoin:
		return "BroadcastNestedLoopJoin"
	case HashAggregate:
		return "HashAggregate"
	case SortAggregate:
		return "SortAggregate"
	case ExchangeHashPartition:
		return "ExchangeHashPartition"
	case ExchangeSinglePartition:
		return "ExchangeSinglePartition"
	case BroadcastExchange:
		return "BroadcastExchange"
	case LocalLimit:
		return "LocalLimit"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Node is one operator in a physical plan tree.
type Node struct {
	ID       int // index in the plan's bottom-up execution order
	Op       OpType
	Children []*Node

	// FileScan
	Table, Alias string
	Columns      []string // projected columns (unqualified names)

	// Filter (and FileScan when filters are pushed down)
	Preds []sql.Predicate

	// Joins: the key on the already-built (left) side and the newly
	// joined (right) side. For broadcast joins the right side is built.
	LeftKey, RightKey *logical.BoundCol
	// ThetaOp is the comparison of a non-equi (nested loop) join.
	ThetaOp sql.CmpOp

	// Aggregates
	GroupBy []logical.BoundCol
	Aggs    []logical.BoundAgg
	Final   bool // final (post-shuffle) aggregation

	// Sort
	SortCol  *logical.BoundCol
	SortDesc bool

	// LocalLimit
	LimitN int

	// Cardinalities: planner estimate and, after engine execution, truth.
	EstRows float64
	ActRows float64
	// Skew is the max/avg partition ratio measured by the engine on
	// hash-partition exchanges (1 = perfectly balanced, 0 = unmeasured).
	Skew     float64
	RawRows  float64 // FileScan only: unfiltered table rows (drives I/O)
	RowBytes float64 // estimated bytes per output row
}

// Statement renders the Spark-style execution statement for this node —
// the text that node-semantic embedding tokenizes (Sec. IV-C, Fig. 4).
func (n *Node) Statement() string { return string(n.AppendStatement(nil)) }

// AppendStatement appends the node's Statement to b. It is the one
// statement renderer: Statement, Plan.Statements and everything that
// tokenizes a plan go through it.
func (n *Node) AppendStatement(b []byte) []byte {
	switch n.Op {
	case FileScan:
		b = append(append(b, "FileScan parquet "...), n.Table...)
		b = append(appendJoined(append(b, '['), n.Columns), ']')
		if len(n.Preds) > 0 {
			b = append(appendPreds(append(b, " PushedFilters: ["...), n.Preds), ']')
		}
		return b
	case Filter:
		return append(appendPreds(append(b, "Filter ("...), n.Preds), ')')
	case Project:
		return append(appendJoined(append(b, "Project ["...), n.Columns), ']')
	case Sort:
		b = appendCol(append(b, "Sort ["...), n.SortCol)
		if n.SortDesc {
			return append(b, " DESC NULLS FIRST]"...)
		}
		return append(b, " ASC NULLS FIRST]"...)
	case SortMergeJoin:
		return append(appendJoinKeys(append(b, "SortMergeJoin "...), n), ", Inner"...)
	case BroadcastHashJoin:
		return append(appendJoinKeys(append(b, "BroadcastHashJoin "...), n), ", Inner, BuildRight"...)
	case ShuffledHashJoin:
		return append(appendJoinKeys(append(b, "ShuffledHashJoin "...), n), ", Inner, BuildRight"...)
	case BroadcastNestedLoopJoin:
		b = appendCol(append(b, "BroadcastNestedLoopJoin BuildRight, Inner, ("...), n.LeftKey)
		b = append(append(append(b, ' '), n.ThetaOp.String()...), ' ')
		return append(appendCol(b, n.RightKey), ')')
	case HashAggregate, SortAggregate:
		b = appendGroupBy(append(append(b, n.Op.String()...), " (keys=["...), n.GroupBy)
		b = append(b, "], functions=["...)
		first := true
		for _, a := range n.Aggs {
			if a.Agg == sql.AggNone {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			if a.Star {
				b = append(b, "count(1)"...)
			} else {
				b = append(appendCol(append(appendLower(b, a.Agg.String()), '('), a.Col), ')')
			}
		}
		if n.Final {
			return append(b, "], mode=final)"...)
		}
		return append(b, "], mode=partial)"...)
	case ExchangeHashPartition:
		b = append(b, "Exchange hashpartitioning("...)
		if n.LeftKey != nil {
			b = n.LeftKey.AppendTo(b)
		} else {
			b = appendGroupBy(b, n.GroupBy)
		}
		return append(b, ", 200)"...)
	case ExchangeSinglePartition:
		return append(b, "Exchange SinglePartition"...)
	case BroadcastExchange:
		return append(b, "BroadcastExchange HashedRelationBroadcastMode"...)
	case LocalLimit:
		return strconv.AppendInt(append(b, "LocalLimit "...), int64(n.LimitN), 10)
	default:
		return append(b, n.Op.String()...)
	}
}

// appendJoinKeys appends a hash or merge join's "[left], [right]".
func appendJoinKeys(b []byte, n *Node) []byte {
	b = appendCol(append(b, '['), n.LeftKey)
	return append(appendCol(append(b, "], ["...), n.RightKey), ']')
}

// appendCol appends c, or "<nil>" for a nil c, as fmt's %s prints them.
func appendCol(b []byte, c *logical.BoundCol) []byte {
	if c == nil {
		return append(b, "<nil>"...)
	}
	return c.AppendTo(b)
}

// appendGroupBy appends the columns comma-separated.
func appendGroupBy(b []byte, cols []logical.BoundCol) []byte {
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = c.AppendTo(b)
	}
	return b
}

// appendJoined appends the strings comma-separated.
func appendJoined(b []byte, ss []string) []byte {
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return b
}

// appendPreds appends the predicates separated by " && ".
func appendPreds(b []byte, preds []sql.Predicate) []byte {
	for i, p := range preds {
		if i > 0 {
			b = append(b, " && "...)
		}
		b = p.AppendTo(b)
	}
	return b
}

// appendLower appends s with ASCII letters lower-cased, which is what
// strings.ToLower does to the ASCII names AggFunc.String returns.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// Plan is a complete physical plan: a tree plus its bottom-up execution
// order (children always precede parents, left subtree before right).
// A Plan holds a sync.Once, so it is passed by pointer and never copied.
type Plan struct {
	Root  *Node
	Query *logical.Query
	Nodes []*Node
	Sig   string // human-readable signature: join order + algorithms

	stmtOnce sync.Once
	stmts    []string
	keyOnce  sync.Once
	key      string
}

// Statements returns every node's Statement, parallel to Nodes. They are
// rendered on the first call and memoised, like Key and for the same
// reasons: nothing a statement reads changes once the planner returns the
// plan (DESIGN §5o), and the sync.Once makes the first call safe from
// concurrent requests sharing the plan. Rendering is deliberately lazy
// (DESIGN §5q): many enumerated candidates are never keyed or encoded.
// Callers must not modify the slice.
//
// All of a plan's statements are substrings of one string: the nodes are
// rendered into a pooled scratch buffer, which is copied out once
// (DESIGN §5t).
func (p *Plan) Statements() []string {
	p.stmtOnce.Do(func() {
		sc := stmtScratchPool.Get().(*stmtScratch)
		buf, ends := sc.buf[:0], sc.ends[:0]
		for _, n := range p.Nodes {
			buf = n.AppendStatement(buf)
			ends = append(ends, len(buf))
		}
		all := string(buf)
		stmts := make([]string, len(ends))
		start := 0
		for i, end := range ends {
			stmts[i] = all[start:end]
			start = end
		}
		sc.buf, sc.ends = buf, ends
		stmtScratchPool.Put(sc)
		p.stmts = stmts
	})
	return p.stmts
}

// stmtScratch is where Statements renders a plan: every statement back to
// back in buf, and where each one ends.
type stmtScratch struct {
	buf  []byte
	ends []int
}

var stmtScratchPool = sync.Pool{New: func() any { return new(stmtScratch) }}

// Key fingerprints everything a cost model's encoder reads from the plan:
// per node in execution order, its identity, rendered statement (which
// folds in the operator's tables, predicates, keys, and aggregates),
// cardinality and width statistics, and child IDs. Fields the encoder
// never looks at (ActRows, Skew) stay out of the key, so the engine's
// post-execution annotation does not change it. The key is the exact
// canonical string, not a hash, so distinct plans never collide.
//
// The key is rendered on the first call and memoised: everything it reads
// is fixed once the planner returns the plan (DESIGN §5o), and the
// sync.Once makes the first call safe from concurrent requests sharing
// the plan.
func (p *Plan) Key() string {
	p.keyOnce.Do(func() { p.key = p.renderKey() })
	return p.key
}

func (p *Plan) renderKey() string {
	stmts := p.Statements()
	// Size the key from the statements plus each field's widest rendering
	// and its separator, so it is built in one allocation.
	size := maxIntLen + 1
	for i, n := range p.Nodes {
		size += 2*(maxIntLen+1) + len(stmts[i]) + 1 + 3*(maxFloatLen+1) + len(n.Children)*(maxIntLen+1) + 1
	}
	var b strings.Builder
	b.Grow(size)
	var num [maxFloatLen]byte // one field's digits; strconv appends them here, not to a new string
	if p.Root != nil {
		b.Write(strconv.AppendInt(num[:0], int64(p.Root.ID), 10))
	}
	b.WriteByte('\x1e')
	for i, n := range p.Nodes {
		b.Write(strconv.AppendInt(num[:0], int64(n.ID), 10))
		b.WriteByte('\x1f')
		b.Write(strconv.AppendInt(num[:0], int64(n.Op), 10))
		b.WriteByte('\x1f')
		b.WriteString(stmts[i])
		b.WriteByte('\x1f')
		for _, v := range [...]float64{n.EstRows, n.RawRows, n.RowBytes} {
			b.Write(appendKeyFloat(num[:0], v))
			b.WriteByte('\x1f')
		}
		for _, c := range n.Children {
			b.Write(strconv.AppendInt(num[:0], int64(c.ID), 10))
			b.WriteByte(',')
		}
		b.WriteByte('\x1e')
	}
	return b.String()
}

// appendKeyFloat appends strconv.AppendFloat(b, v, 'g', -1, 64). The
// shortest 'g' form switches to an exponent only from 1e6 up and prints
// no fraction for an integral value, so below 1e6 in magnitude an integer
// prints as its digits — what AppendInt writes, faster. -0 is left out:
// AppendFloat writes "-0", AppendInt of int64(-0) writes "0".
func appendKeyFloat(b []byte, v float64) []byte {
	if v > -1e6 && v < 1e6 && v == float64(int64(v)) && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// The widest renderings of an int64 in base 10 ("-9223372036854775808")
// and of a float64 in 'g' format ("-2.2250738585072014e-308").
const (
	maxIntLen   = 20
	maxFloatLen = 24
)

// finalize collects Nodes in bottom-up order and assigns IDs to match.
// size is the number of nodes the plan is expected to have.
func (p *Plan) finalize(size int) {
	p.Nodes = appendPostorder(make([]*Node, 0, size), p.Root)
	for i, n := range p.Nodes {
		n.ID = i
	}
}

// appendPostorder appends the subtree of n to nodes, children before their
// parent and the left subtree before the right.
func appendPostorder(nodes []*Node, n *Node) []*Node {
	for _, c := range n.Children {
		nodes = appendPostorder(nodes, c)
	}
	return append(nodes, n)
}

// String renders the plan as an indented tree, root first (the way Spark's
// explain() prints physical plans).
func (p *Plan) String() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(fmt.Sprintf("%s (est=%.0f", n.Statement(), n.EstRows))
		if n.ActRows > 0 {
			sb.WriteString(fmt.Sprintf(", act=%.0f", n.ActRows))
		}
		sb.WriteString(")\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return sb.String()
}

// CountOp returns how many nodes have the given operator type.
func (p *Plan) CountOp(op OpType) int {
	n := 0
	for _, node := range p.Nodes {
		if node.Op == op {
			n++
		}
	}
	return n
}
