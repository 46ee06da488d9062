// Package logical binds a parsed SELECT statement against a catalog and
// normalizes it into a query graph: base tables, per-table filter
// conjuncts, and equi-join edges. The query graph is what the physical
// planner enumerates over, mirroring how Catalyst's analyzed+optimized
// logical plan feeds physical planning. Binding also performs the classic
// logical rewrites the paper's substrate needs: predicate pushdown (filters
// are attached to their table), implicit-NULL guard insertion on join keys,
// and type checking.
package logical

import (
	"fmt"

	"raal/internal/catalog"
	"raal/internal/sql"
)

// BoundCol is a column resolved to a specific FROM-list table.
type BoundCol struct {
	Alias string // table alias in this query
	Table string // underlying catalog table
	Name  string
	Type  catalog.Type
}

func (b BoundCol) String() string { return string(b.AppendTo(nil)) }

// AppendTo appends the column as alias.name, the bytes String returns.
func (b BoundCol) AppendTo(dst []byte) []byte {
	return append(append(append(dst, b.Alias...), '.'), b.Name...)
}

// JoinEdge is one equi-join predicate between two tables.
type JoinEdge struct {
	Left, Right BoundCol
}

func (j JoinEdge) String() string { return j.Left.String() + " = " + j.Right.String() }

// ThetaJoin is a non-equi join predicate between two tables (e.g.
// a.x < b.y); such joins can only execute as nested loops.
type ThetaJoin struct {
	Left, Right BoundCol
	Op          sql.CmpOp
}

func (t ThetaJoin) String() string {
	return fmt.Sprintf("%s %s %s", t.Left, t.Op, t.Right)
}

// BoundAgg is a select-list aggregate bound to a column (or * for COUNT).
type BoundAgg struct {
	Agg  sql.AggFunc
	Star bool
	Col  *BoundCol // nil for COUNT(*) and plain group-by columns
}

// Query is the bound, normalized form of a SELECT statement.
type Query struct {
	Stmt    *sql.SelectStmt
	Tables  []sql.TableRef             // FROM order preserved
	Filters map[string][]sql.Predicate // alias → pushed-down conjuncts
	Joins   []JoinEdge
	Thetas  []ThetaJoin
	Aggs    []BoundAgg
	GroupBy []BoundCol
	OrderBy *BoundCol
	Desc    bool
	Limit   int // -1 when absent
}

// Binder resolves statements against a database.
type Binder struct {
	db *catalog.Database
}

// NewBinder returns a Binder over db.
func NewBinder(db *catalog.Database) *Binder { return &Binder{db: db} }

// Bind validates stmt against the catalog and produces a query graph.
func (b *Binder) Bind(stmt *sql.SelectStmt) (*Query, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("logical: query has no FROM clause")
	}
	q := &Query{
		Stmt:    stmt,
		Tables:  stmt.From,
		Filters: map[string][]sql.Predicate{},
		Limit:   stmt.Limit,
	}
	aliasToTable := map[string]*catalog.Table{}
	for _, tr := range stmt.From {
		tab, err := b.db.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		if _, dup := aliasToTable[tr.Alias]; dup {
			return nil, fmt.Errorf("logical: duplicate alias %q", tr.Alias)
		}
		aliasToTable[tr.Alias] = tab
	}

	resolve := func(ref sql.ColumnRef) (BoundCol, error) {
		if ref.Qualifier != "" {
			tab, ok := aliasToTable[ref.Qualifier]
			if !ok {
				return BoundCol{}, fmt.Errorf("logical: unknown alias %q in %s", ref.Qualifier, ref)
			}
			col, ok := tab.Schema.Col(ref.Name)
			if !ok {
				return BoundCol{}, fmt.Errorf("logical: table %s has no column %q", tab.Schema.Name, ref.Name)
			}
			return BoundCol{Alias: ref.Qualifier, Table: tab.Schema.Name, Name: ref.Name, Type: col.Type}, nil
		}
		var found *BoundCol
		for alias, tab := range aliasToTable {
			if col, ok := tab.Schema.Col(ref.Name); ok {
				if found != nil {
					return BoundCol{}, fmt.Errorf("logical: ambiguous column %q", ref.Name)
				}
				bc := BoundCol{Alias: alias, Table: tab.Schema.Name, Name: ref.Name, Type: col.Type}
				found = &bc
			}
		}
		if found == nil {
			return BoundCol{}, fmt.Errorf("logical: unknown column %q", ref.Name)
		}
		return *found, nil
	}

	// Bind WHERE conjuncts: join edges vs single-table filters.
	for _, p := range stmt.Where {
		switch pred := p.(type) {
		case *sql.Comparison:
			if pred.IsJoin() {
				l, err := resolve(pred.Left)
				if err != nil {
					return nil, err
				}
				r, err := resolve(*pred.RightCol)
				if err != nil {
					return nil, err
				}
				if l.Alias == r.Alias {
					// same-table comparison stays a filter
					q.Filters[l.Alias] = append(q.Filters[l.Alias], rewritten(pred, l))
					continue
				}
				if l.Type != r.Type {
					return nil, fmt.Errorf("logical: join type mismatch %s (%s) %s %s (%s)", l, l.Type, pred.Op, r, r.Type)
				}
				if pred.Op == sql.OpEq {
					q.Joins = append(q.Joins, JoinEdge{Left: l, Right: r})
				} else {
					if l.Type != catalog.Int64 {
						return nil, fmt.Errorf("logical: non-equi join requires integer columns, got %s", pred)
					}
					q.Thetas = append(q.Thetas, ThetaJoin{Left: l, Right: r, Op: pred.Op})
				}
				continue
			}
			bc, err := resolve(pred.Left)
			if err != nil {
				return nil, err
			}
			if bc.Type == catalog.Int64 && pred.Lit.IsStr || bc.Type == catalog.String && !pred.Lit.IsStr {
				return nil, fmt.Errorf("logical: type mismatch in %s (column is %s)", pred, bc.Type)
			}
			q.Filters[bc.Alias] = append(q.Filters[bc.Alias], rewritten(pred, bc))
		case *sql.Between:
			bc, err := resolve(pred.Col)
			if err != nil {
				return nil, err
			}
			if bc.Type != catalog.Int64 {
				return nil, fmt.Errorf("logical: BETWEEN on non-integer column %s", bc)
			}
			q.Filters[bc.Alias] = append(q.Filters[bc.Alias], &sql.Between{
				Col: sql.ColumnRef{Qualifier: bc.Alias, Name: bc.Name}, Lo: pred.Lo, Hi: pred.Hi})
		case *sql.In:
			bc, err := resolve(pred.Col)
			if err != nil {
				return nil, err
			}
			for _, v := range pred.Values {
				if bc.Type == catalog.Int64 && v.IsStr || bc.Type == catalog.String && !v.IsStr {
					return nil, fmt.Errorf("logical: type mismatch in %s", pred)
				}
			}
			q.Filters[bc.Alias] = append(q.Filters[bc.Alias], &sql.In{
				Col: sql.ColumnRef{Qualifier: bc.Alias, Name: bc.Name}, Values: pred.Values})
		case *sql.Like:
			bc, err := resolve(pred.Col)
			if err != nil {
				return nil, err
			}
			if bc.Type != catalog.String {
				return nil, fmt.Errorf("logical: LIKE on non-string column %s", bc)
			}
			q.Filters[bc.Alias] = append(q.Filters[bc.Alias], &sql.Like{
				Col: sql.ColumnRef{Qualifier: bc.Alias, Name: bc.Name}, Pattern: pred.Pattern})
		case *sql.NullCheck:
			bc, err := resolve(pred.Col)
			if err != nil {
				return nil, err
			}
			q.Filters[bc.Alias] = append(q.Filters[bc.Alias], &sql.NullCheck{
				Col: sql.ColumnRef{Qualifier: bc.Alias, Name: bc.Name}, Not: pred.Not})
		default:
			return nil, fmt.Errorf("logical: unsupported predicate %T", p)
		}
	}

	// Connectivity: every table must be reachable through join edges
	// (no cross products — the GPSJ workloads never produce them).
	if len(stmt.From) > 1 {
		if err := q.checkConnected(); err != nil {
			return nil, err
		}
	}

	// Bind GROUP BY first so select-list validation can consult it.
	for _, g := range stmt.GroupBy {
		bc, err := resolve(g)
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, bc)
	}

	// Bind select list.
	for _, it := range stmt.Items {
		if it.Agg == sql.AggNone {
			bc, err := resolve(it.Col)
			if err != nil {
				return nil, err
			}
			inGroup := false
			for _, g := range q.GroupBy {
				if g == bc {
					inGroup = true
				}
			}
			if !inGroup {
				return nil, fmt.Errorf("logical: bare column %s must appear in GROUP BY", bc)
			}
			q.Aggs = append(q.Aggs, BoundAgg{Agg: sql.AggNone, Col: &bc})
			continue
		}
		if it.Star {
			q.Aggs = append(q.Aggs, BoundAgg{Agg: it.Agg, Star: true})
			continue
		}
		bc, err := resolve(it.Col)
		if err != nil {
			return nil, err
		}
		if (it.Agg == sql.AggSum || it.Agg == sql.AggAvg) && bc.Type != catalog.Int64 {
			return nil, fmt.Errorf("logical: %s over non-numeric column %s", it.Agg, bc)
		}
		q.Aggs = append(q.Aggs, BoundAgg{Agg: it.Agg, Col: &bc})
	}

	if stmt.OrderBy != nil {
		bc, err := resolve(stmt.OrderBy.Col)
		if err != nil {
			return nil, err
		}
		q.OrderBy = &bc
		q.Desc = stmt.OrderBy.Desc
	}
	return q, nil
}

// rewritten returns a copy of cmp with the left column fully qualified by
// its bound alias, so downstream layers never re-resolve.
func rewritten(cmp *sql.Comparison, bc BoundCol) *sql.Comparison {
	out := *cmp
	out.Left = sql.ColumnRef{Qualifier: bc.Alias, Name: bc.Name}
	if cmp.RightCol != nil {
		rc := *cmp.RightCol
		rc.Qualifier = bc.Alias
		out.RightCol = &rc
	}
	return &out
}

// checkConnected verifies the join graph spans all tables.
func (q *Query) checkConnected() error {
	adj := map[string][]string{}
	for _, j := range q.Joins {
		adj[j.Left.Alias] = append(adj[j.Left.Alias], j.Right.Alias)
		adj[j.Right.Alias] = append(adj[j.Right.Alias], j.Left.Alias)
	}
	for _, t := range q.Thetas {
		adj[t.Left.Alias] = append(adj[t.Left.Alias], t.Right.Alias)
		adj[t.Right.Alias] = append(adj[t.Right.Alias], t.Left.Alias)
	}
	seen := map[string]bool{q.Tables[0].Alias: true}
	stack := []string{q.Tables[0].Alias}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for _, tr := range q.Tables {
		if !seen[tr.Alias] {
			return fmt.Errorf("logical: table %s is not connected by any join predicate (cross products unsupported)", tr.Alias)
		}
	}
	return nil
}

// JoinKeysFor returns the join columns of alias against tables already in
// joined, or nil if alias has no edge into the joined set.
func (q *Query) JoinKeysFor(alias string, joined map[string]bool) (left, right *BoundCol) {
	for i := range q.Joins {
		j := &q.Joins[i]
		if j.Left.Alias == alias && joined[j.Right.Alias] {
			return &j.Right, &j.Left // (already-joined side, new side)
		}
		if j.Right.Alias == alias && joined[j.Left.Alias] {
			return &j.Left, &j.Right
		}
	}
	return nil, nil
}

// ThetaJoinFor returns a non-equi join predicate connecting alias to the
// joined set: the joined-side column, the new-side column, and the
// comparison oriented as joinedCol op newCol. ok is false when no theta
// edge applies.
func (q *Query) ThetaJoinFor(alias string, joined map[string]bool) (left, right *BoundCol, op sql.CmpOp, ok bool) {
	for i := range q.Thetas {
		t := &q.Thetas[i]
		if t.Right.Alias == alias && joined[t.Left.Alias] {
			return &t.Left, &t.Right, t.Op, true
		}
		if t.Left.Alias == alias && joined[t.Right.Alias] {
			return &t.Right, &t.Left, t.Op.Flip(), true
		}
	}
	return nil, nil, 0, false
}
