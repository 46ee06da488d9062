package physical

// The fmt-based statement renderer and the key the planner shipped with
// before every type got an append renderer (DESIGN §5t). Kept as the
// reference the renderer tests and FuzzStatements hold Node.AppendStatement,
// Plan.Statements and Plan.Key to. It shares no rendering code with them:
// columns, literals and predicates are formatted here with fmt, the way
// their String methods did, and every key float goes through AppendFloat.

import (
	"fmt"
	"strconv"
	"strings"

	"raal/internal/logical"
	"raal/internal/sql"
)

// ReferenceStatement is the statement of n as the fmt-based renderer wrote it.
func ReferenceStatement(n *Node) string {
	switch n.Op {
	case FileScan:
		s := fmt.Sprintf("FileScan parquet %s[%s]", n.Table, strings.Join(n.Columns, ","))
		if len(n.Preds) > 0 {
			s += " PushedFilters: [" + refPreds(n.Preds) + "]"
		}
		return s
	case Filter:
		return "Filter (" + refPreds(n.Preds) + ")"
	case Project:
		return fmt.Sprintf("Project [%s]", strings.Join(n.Columns, ","))
	case Sort:
		dir := "ASC"
		if n.SortDesc {
			dir = "DESC"
		}
		return fmt.Sprintf("Sort [%s %s NULLS FIRST]", refCol(n.SortCol), dir)
	case SortMergeJoin:
		return fmt.Sprintf("SortMergeJoin [%s], [%s], Inner", refCol(n.LeftKey), refCol(n.RightKey))
	case BroadcastHashJoin:
		return fmt.Sprintf("BroadcastHashJoin [%s], [%s], Inner, BuildRight", refCol(n.LeftKey), refCol(n.RightKey))
	case ShuffledHashJoin:
		return fmt.Sprintf("ShuffledHashJoin [%s], [%s], Inner, BuildRight", refCol(n.LeftKey), refCol(n.RightKey))
	case BroadcastNestedLoopJoin:
		return fmt.Sprintf("BroadcastNestedLoopJoin BuildRight, Inner, (%s %s %s)", refCol(n.LeftKey), n.ThetaOp, refCol(n.RightKey))
	case HashAggregate, SortAggregate:
		var keyParts []string
		for i := range n.GroupBy {
			keyParts = append(keyParts, refCol(&n.GroupBy[i]))
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
				fns = append(fns, fmt.Sprintf("%s(%s)", strings.ToLower(a.Agg.String()), refCol(a.Col)))
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
			key = refCol(n.LeftKey)
		} else if len(n.GroupBy) > 0 {
			var parts []string
			for i := range n.GroupBy {
				parts = append(parts, refCol(&n.GroupBy[i]))
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

// refCol is c under %s: "<nil>" for a nil pointer (fmt's rendering of a
// nil receiver whose String method panics), alias.name otherwise.
func refCol(c *logical.BoundCol) string {
	if c == nil {
		return "<nil>"
	}
	return c.Alias + "." + c.Name
}

func refPreds(preds []sql.Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = refPred(p)
	}
	return strings.Join(parts, " && ")
}

// refPred renders one predicate the way its String method did.
func refPred(p sql.Predicate) string {
	switch p := p.(type) {
	case *sql.Comparison:
		if p.RightCol != nil {
			return fmt.Sprintf("%s %s %s", refColumnRef(p.Left), p.Op, refColumnRef(*p.RightCol))
		}
		return fmt.Sprintf("%s %s %s", refColumnRef(p.Left), p.Op, refLiteral(p.Lit))
	case *sql.Between:
		return fmt.Sprintf("%s BETWEEN %d AND %d", refColumnRef(p.Col), p.Lo, p.Hi)
	case *sql.In:
		vals := make([]string, len(p.Values))
		for j, v := range p.Values {
			vals[j] = refLiteral(v)
		}
		return fmt.Sprintf("%s IN (%s)", refColumnRef(p.Col), strings.Join(vals, ", "))
	case *sql.Like:
		return fmt.Sprintf("%s LIKE '%s'", refColumnRef(p.Col), p.Pattern)
	case *sql.NullCheck:
		if p.Not {
			return fmt.Sprintf("%s IS NOT NULL", refColumnRef(p.Col))
		}
		return fmt.Sprintf("%s IS NULL", refColumnRef(p.Col))
	}
	panic(fmt.Sprintf("refPred: unknown predicate %T", p))
}

func refColumnRef(c sql.ColumnRef) string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

func refLiteral(l sql.Literal) string {
	if l.IsStr {
		return "'" + l.S + "'"
	}
	return fmt.Sprintf("%d", l.I)
}

// ReferenceKey is p's key built from ReferenceStatement, with every float
// written by AppendFloat.
func ReferenceKey(p *Plan) string {
	var b strings.Builder
	if p.Root != nil {
		b.WriteString(strconv.Itoa(p.Root.ID))
	}
	b.WriteByte('\x1e')
	for _, n := range p.Nodes {
		b.WriteString(strconv.Itoa(n.ID))
		b.WriteByte('\x1f')
		b.WriteString(strconv.Itoa(int(n.Op)))
		b.WriteByte('\x1f')
		b.WriteString(ReferenceStatement(n))
		b.WriteByte('\x1f')
		for _, v := range [...]float64{n.EstRows, n.RawRows, n.RowBytes} {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte('\x1f')
		}
		for _, c := range n.Children {
			b.WriteString(strconv.Itoa(c.ID))
			b.WriteByte(',')
		}
		b.WriteByte('\x1e')
	}
	return b.String()
}
