// Package physical represents Spark SQL physical plans and enumerates
// candidate plans for a bound query, playing the role of Catalyst's
// physical planning phase. Each query yields several alternative plans
// (different join orders, join algorithms, and scan pushdown choices) from
// which a cost model must choose — exactly the setting of the paper's
// Sec. III experiments.
package physical

import (
	"fmt"
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
func (n *Node) Statement() string {
	switch n.Op {
	case FileScan:
		s := fmt.Sprintf("FileScan parquet %s[%s]", n.Table, strings.Join(n.Columns, ","))
		if len(n.Preds) > 0 {
			s += " PushedFilters: [" + predString(n.Preds) + "]"
		}
		return s
	case Filter:
		return "Filter (" + predString(n.Preds) + ")"
	case Project:
		return fmt.Sprintf("Project [%s]", strings.Join(n.Columns, ","))
	case Sort:
		dir := "ASC"
		if n.SortDesc {
			dir = "DESC"
		}
		return fmt.Sprintf("Sort [%s %s NULLS FIRST]", n.SortCol, dir)
	case SortMergeJoin:
		return fmt.Sprintf("SortMergeJoin [%s], [%s], Inner", n.LeftKey, n.RightKey)
	case BroadcastHashJoin:
		return fmt.Sprintf("BroadcastHashJoin [%s], [%s], Inner, BuildRight", n.LeftKey, n.RightKey)
	case ShuffledHashJoin:
		return fmt.Sprintf("ShuffledHashJoin [%s], [%s], Inner, BuildRight", n.LeftKey, n.RightKey)
	case BroadcastNestedLoopJoin:
		return fmt.Sprintf("BroadcastNestedLoopJoin BuildRight, Inner, (%s %s %s)", n.LeftKey, n.ThetaOp, n.RightKey)
	case HashAggregate, SortAggregate:
		var keyParts []string
		for _, g := range n.GroupBy {
			keyParts = append(keyParts, g.String())
		}
		keys := strings.Join(keyParts, ",")
		var fns []string
		for _, a := range n.Aggs {
			if a.Agg == sql.AggNone {
				continue
			}
			if a.Star {
				fns = append(fns, "count(1)")
			} else {
				fns = append(fns, fmt.Sprintf("%s(%s)", strings.ToLower(a.Agg.String()), a.Col))
			}
		}
		mode := "partial"
		if n.Final {
			mode = "final"
		}
		return fmt.Sprintf("%s (keys=[%s], functions=[%s], mode=%s)", n.Op, keys, strings.Join(fns, ","), mode)
	case ExchangeHashPartition:
		key := ""
		if n.LeftKey != nil {
			key = n.LeftKey.String()
		} else if len(n.GroupBy) > 0 {
			var parts []string
			for _, g := range n.GroupBy {
				parts = append(parts, g.String())
			}
			key = strings.Join(parts, ",")
		}
		return fmt.Sprintf("Exchange hashpartitioning(%s, 200)", key)
	case ExchangeSinglePartition:
		return "Exchange SinglePartition"
	case BroadcastExchange:
		return "BroadcastExchange HashedRelationBroadcastMode"
	case LocalLimit:
		return fmt.Sprintf("LocalLimit %d", n.LimitN)
	default:
		return n.Op.String()
	}
}

func predString(preds []sql.Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " && ")
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
func (p *Plan) Statements() []string {
	p.stmtOnce.Do(func() {
		stmts := make([]string, len(p.Nodes))
		for i, n := range p.Nodes {
			stmts[i] = n.Statement()
		}
		p.stmts = stmts
	})
	return p.stmts
}

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
			b.Write(strconv.AppendFloat(num[:0], v, 'g', -1, 64))
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

// The widest renderings of an int64 in base 10 ("-9223372036854775808")
// and of a float64 in 'g' format ("-2.2250738585072014e-308").
const (
	maxIntLen   = 20
	maxFloatLen = 24
)

// finalize assigns IDs in bottom-up order and collects Nodes.
func (p *Plan) finalize() {
	p.Nodes = p.Nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		n.ID = len(p.Nodes)
		p.Nodes = append(p.Nodes, n)
	}
	walk(p.Root)
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
