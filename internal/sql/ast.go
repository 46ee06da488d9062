package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// AggFunc is an aggregate function in a select list.
type AggFunc int

// Aggregate functions. AggNone marks a plain column reference.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Qualifier string // alias or table name; may be empty
	Name      string
}

func (c ColumnRef) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends the column's rendering, qualifier first when it has one.
func (c ColumnRef) AppendTo(b []byte) []byte {
	if c.Qualifier != "" {
		b = append(append(b, c.Qualifier...), '.')
	}
	return append(b, c.Name...)
}

// SelectItem is one output expression: either an aggregate (possibly over
// *) or a bare column.
type SelectItem struct {
	Agg  AggFunc
	Star bool // COUNT(*)
	Col  ColumnRef
}

func (s SelectItem) String() string {
	if s.Agg == AggNone {
		return s.Col.String()
	}
	if s.Star {
		return s.Agg.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", s.Agg, s.Col)
}

// TableRef is a FROM-list entry.
type TableRef struct {
	Table string
	Alias string // equals Table when no alias was given
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Negate returns the complementary operator (e.g. < becomes >=).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return o
}

// Flip returns the operator with sides swapped (e.g. a < b ⇔ b > a).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// Literal is an int64 or string constant.
type Literal struct {
	IsStr bool
	I     int64
	S     string
}

func (l Literal) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the literal as SQL text: quoted string or decimal integer.
func (l Literal) AppendTo(b []byte) []byte {
	if l.IsStr {
		return append(append(append(b, '\''), l.S...), '\'')
	}
	return strconv.AppendInt(b, l.I, 10)
}

// IntLit returns an integer literal.
func IntLit(v int64) Literal { return Literal{I: v} }

// StrLit returns a string literal.
func StrLit(v string) Literal { return Literal{IsStr: true, S: v} }

// Predicate is one conjunct of a WHERE clause.
type Predicate interface {
	fmt.Stringer
	// AppendTo appends the predicate's rendering, the bytes String returns.
	AppendTo(b []byte) []byte
	// Columns returns every column the predicate references.
	Columns() []ColumnRef
	isPredicate()
}

// Comparison is col op literal, or col op col (a join predicate).
type Comparison struct {
	Left     ColumnRef
	Op       CmpOp
	Lit      Literal
	RightCol *ColumnRef // non-nil for column-to-column comparisons
}

func (c *Comparison) isPredicate() {}

// IsJoin reports whether the comparison relates two columns.
func (c *Comparison) IsJoin() bool { return c.RightCol != nil }

func (c *Comparison) String() string { return string(c.AppendTo(nil)) }

// AppendTo implements Predicate.
func (c *Comparison) AppendTo(b []byte) []byte {
	b = append(c.Left.AppendTo(b), ' ')
	b = append(append(b, c.Op.String()...), ' ')
	if c.RightCol != nil {
		return c.RightCol.AppendTo(b)
	}
	return c.Lit.AppendTo(b)
}

// Columns implements Predicate.
func (c *Comparison) Columns() []ColumnRef {
	if c.RightCol != nil {
		return []ColumnRef{c.Left, *c.RightCol}
	}
	return []ColumnRef{c.Left}
}

// Between is col BETWEEN lo AND hi (integers only).
type Between struct {
	Col    ColumnRef
	Lo, Hi int64
}

func (b *Between) isPredicate() {}

func (b *Between) String() string { return string(b.AppendTo(nil)) }

// AppendTo implements Predicate.
func (b *Between) AppendTo(dst []byte) []byte {
	dst = append(b.Col.AppendTo(dst), " BETWEEN "...)
	dst = append(strconv.AppendInt(dst, b.Lo, 10), " AND "...)
	return strconv.AppendInt(dst, b.Hi, 10)
}

// Columns implements Predicate.
func (b *Between) Columns() []ColumnRef { return []ColumnRef{b.Col} }

// In is col IN (v1, v2, ...).
type In struct {
	Col    ColumnRef
	Values []Literal
}

func (i *In) isPredicate() {}

func (i *In) String() string { return string(i.AppendTo(nil)) }

// AppendTo implements Predicate.
func (i *In) AppendTo(b []byte) []byte {
	b = append(i.Col.AppendTo(b), " IN ("...)
	for j, v := range i.Values {
		if j > 0 {
			b = append(b, ", "...)
		}
		b = v.AppendTo(b)
	}
	return append(b, ')')
}

// Columns implements Predicate.
func (i *In) Columns() []ColumnRef { return []ColumnRef{i.Col} }

// Like is col LIKE pattern, with % wildcards at either end.
type Like struct {
	Col     ColumnRef
	Pattern string
}

func (l *Like) isPredicate() {}

func (l *Like) String() string { return string(l.AppendTo(nil)) }

// AppendTo implements Predicate.
func (l *Like) AppendTo(b []byte) []byte {
	b = append(l.Col.AppendTo(b), " LIKE '"...)
	return append(append(b, l.Pattern...), '\'')
}

// Columns implements Predicate.
func (l *Like) Columns() []ColumnRef { return []ColumnRef{l.Col} }

// NullCheck is col IS [NOT] NULL. The synthetic data has no NULLs, so IS
// NOT NULL is always true and IS NULL always false; the planner still emits
// the Spark-style "isnotnull" guards that appear in physical plans.
type NullCheck struct {
	Col ColumnRef
	Not bool
}

func (n *NullCheck) isPredicate() {}

func (n *NullCheck) String() string { return string(n.AppendTo(nil)) }

// AppendTo implements Predicate.
func (n *NullCheck) AppendTo(b []byte) []byte {
	b = n.Col.AppendTo(b)
	if n.Not {
		return append(b, " IS NOT NULL"...)
	}
	return append(b, " IS NULL"...)
}

// Columns implements Predicate.
func (n *NullCheck) Columns() []ColumnRef { return []ColumnRef{n.Col} }

// OrderItem is an ORDER BY entry.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// SelectStmt is a parsed single-block query.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Where   []Predicate // conjuncts
	GroupBy []ColumnRef
	OrderBy *OrderItem
	Limit   int // -1 when absent
}

// HasAggregate reports whether any select item aggregates.
func (s *SelectStmt) HasAggregate() bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Table)
		if t.Alias != t.Table {
			sb.WriteString(" " + t.Alias)
		}
	}
	if len(s.Where) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.String())
		}
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.OrderBy != nil {
		sb.WriteString(" ORDER BY " + s.OrderBy.Col.String())
		if s.OrderBy.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	return sb.String()
}
