package physical

// The enumeration the planner shipped with before it learned to predict a
// variant's signature: build every join order × variant from scratch
// (needed columns, scan predicates and row estimates re-derived per
// build), dedup on the signature each build renders for itself, then cut
// to MaxPlans. Kept verbatim as the reference the property tests in
// enumerate_test.go hold Enumerate to; it shares only joinOrders,
// rowBytes and the Plan/Node types with the code it checks.

import (
	"fmt"
	"sort"
	"strings"

	"raal/internal/logical"
	"raal/internal/sql"
)

// oracleVariants builds every candidate in Enumerate's preference order,
// duplicates included.
func oracleVariants(pl *Planner, q *logical.Query) ([]*Plan, error) {
	orders := pl.joinOrders(q)
	var plans []*Plan
	add := func(p *Plan, err error) error {
		if err == nil {
			plans = append(plans, p)
		}
		return err
	}
	for _, order := range orders {
		for _, mode := range []joinMode{modeThreshold, modeAllSMJ, modeAllBHJ, modeAllSHJ} {
			if err := add(oracleBuild(pl, q, order, mode, true, false)); err != nil {
				return nil, err
			}
		}
	}
	if len(q.GroupBy) > 0 {
		if err := add(oracleBuild(pl, q, orders[0], modeThreshold, true, true)); err != nil {
			return nil, err
		}
	}
	for _, order := range orders {
		if err := add(oracleBuild(pl, q, order, modeThreshold, false, false)); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// OracleEnumerate is the reference Enumerate: every variant built, first
// of each signature kept, list cut to MaxPlans.
func OracleEnumerate(pl *Planner, q *logical.Query) ([]*Plan, error) {
	all, err := oracleVariants(pl, q)
	if err != nil {
		return nil, err
	}
	var plans []*Plan
	seen := map[string]bool{}
	for _, p := range all {
		if !seen[p.Sig] {
			seen[p.Sig] = true
			plans = append(plans, p)
		}
	}
	max := pl.MaxPlans
	if max <= 0 {
		max = 6
	}
	if len(plans) > max {
		plans = plans[:max]
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("physical: no plans produced for %s", q.Stmt)
	}
	return plans, nil
}

// VariantSigs returns, for every candidate in preference order, the
// signature Enumerate predicts before building and the one the oracle's
// build rendered after it.
func VariantSigs(pl *Planner, q *logical.Query) (predicted, rendered []string, err error) {
	facts, err := pl.analyze(q)
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range facts.candidates() {
		predicted = append(predicted, facts.variant(spec).sig)
	}
	all, err := oracleVariants(pl, q)
	for _, p := range all {
		rendered = append(rendered, p.Sig)
	}
	return predicted, rendered, err
}

// oracleNeededColumns returns, per alias, the sorted set of columns referenced
// anywhere in the query (filters, join keys, aggregates, group/order by).
func oracleNeededColumns(pl *Planner, q *logical.Query) map[string][]string {
	sets := map[string]map[string]bool{}
	addRef := func(alias, name string) {
		if sets[alias] == nil {
			sets[alias] = map[string]bool{}
		}
		sets[alias][name] = true
	}
	for alias, preds := range q.Filters {
		for _, p := range preds {
			for _, c := range p.Columns() {
				addRef(alias, c.Name)
			}
		}
	}
	for _, j := range q.Joins {
		addRef(j.Left.Alias, j.Left.Name)
		addRef(j.Right.Alias, j.Right.Name)
	}
	for _, t := range q.Thetas {
		addRef(t.Left.Alias, t.Left.Name)
		addRef(t.Right.Alias, t.Right.Name)
	}
	for _, a := range q.Aggs {
		if a.Col != nil {
			addRef(a.Col.Alias, a.Col.Name)
		}
	}
	for _, g := range q.GroupBy {
		addRef(g.Alias, g.Name)
	}
	if q.OrderBy != nil {
		addRef(q.OrderBy.Alias, q.OrderBy.Name)
	}
	out := map[string][]string{}
	for _, tr := range q.Tables {
		var cols []string
		for c := range sets[tr.Alias] {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		if len(cols) == 0 {
			// COUNT(*) over an unfiltered table still scans something;
			// Spark reads the narrowest column.
			if tab, err := pl.Est.DB().Table(tr.Table); err == nil && len(tab.Schema.Columns) > 0 {
				cols = []string{tab.Schema.Columns[0].Name}
			}
		}
		out[tr.Alias] = cols
	}
	return out
}

// oracleBuild constructs one physical plan for the given join order and mode.
// sortAgg selects sort-based instead of hash-based aggregation.
func oracleBuild(pl *Planner, q *logical.Query, order []string, mode joinMode, pushdown, sortAgg bool) (*Plan, error) {
	if order == nil {
		return nil, fmt.Errorf("physical: nil join order")
	}
	needed := oracleNeededColumns(pl, q)
	table := map[string]string{}
	for _, tr := range q.Tables {
		table[tr.Alias] = tr.Table
	}

	// scanPreds: user filters plus Spark's isnotnull guards on join keys.
	scanPreds := func(alias string) []sql.Predicate {
		preds := append([]sql.Predicate(nil), q.Filters[alias]...)
		guarded := map[string]bool{}
		for _, j := range q.Joins {
			for _, bc := range []logical.BoundCol{j.Left, j.Right} {
				if bc.Alias == alias && !guarded[bc.Name] {
					guarded[bc.Name] = true
					preds = append(preds, &sql.NullCheck{
						Col: sql.ColumnRef{Qualifier: alias, Name: bc.Name}, Not: true})
				}
			}
		}
		return preds
	}

	// qualify returns the engine-visible (alias-qualified) column list.
	qualify := func(alias string) []string {
		cols := needed[alias]
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = alias + "." + c
		}
		return out
	}

	scanSubtree := func(alias string) *Node {
		tbl := table[alias]
		preds := scanPreds(alias)
		raw := pl.Est.TableRows(tbl)
		filtered := pl.Est.ScanRows(tbl, preds)
		width := pl.rowBytes(tbl, needed[alias])

		scan := &Node{Op: FileScan, Table: tbl, Alias: alias, Columns: needed[alias], RowBytes: width, RawRows: raw}
		var top *Node
		if pushdown {
			scan.Preds = preds
			scan.EstRows = filtered
			top = scan
		} else {
			scan.EstRows = raw
			top = scan
			if len(preds) > 0 {
				top = &Node{Op: Filter, Children: []*Node{scan}, Preds: preds, EstRows: filtered, RowBytes: width}
			}
		}
		proj := &Node{Op: Project, Children: []*Node{top}, Columns: qualify(alias), EstRows: filtered, RowBytes: width}
		return proj
	}

	cur := scanSubtree(order[0])
	joined := map[string]bool{order[0]: true}
	var algoSig []string

	for _, alias := range order[1:] {
		leftKey, rightKey := q.JoinKeysFor(alias, joined)
		if leftKey == nil {
			// No equi key: fall back to a broadcast nested loop join on
			// a theta edge.
			tl, tr, op, ok := q.ThetaJoinFor(alias, joined)
			if !ok {
				return nil, fmt.Errorf("physical: join order %v is disconnected at %s", order, alias)
			}
			newSide := scanSubtree(alias)
			joinRows := cur.EstRows * newSide.EstRows / 3 // inequality selectivity
			bx := &Node{Op: BroadcastExchange, Children: []*Node{newSide}, EstRows: newSide.EstRows, RowBytes: newSide.RowBytes}
			cur = &Node{
				Op: BroadcastNestedLoopJoin, Children: []*Node{cur, bx},
				LeftKey: tl, RightKey: tr, ThetaOp: op,
				EstRows: joinRows, RowBytes: cur.RowBytes + newSide.RowBytes,
			}
			algoSig = append(algoSig, "BNLJ")
			joined[alias] = true
			continue
		}
		newSide := scanSubtree(alias)
		joinRows := pl.Est.JoinRows(cur.EstRows, newSide.EstRows, *leftKey, *rightKey)
		joinWidth := cur.RowBytes + newSide.RowBytes

		useBHJ := false
		switch mode {
		case modeAllBHJ:
			useBHJ = true
		case modeAllSMJ:
			useBHJ = false
		case modeThreshold:
			useBHJ = newSide.EstRows*newSide.RowBytes < pl.BroadcastThreshold
		}

		if mode == modeAllSHJ {
			lx := &Node{Op: ExchangeHashPartition, Children: []*Node{cur}, LeftKey: leftKey, EstRows: cur.EstRows, RowBytes: cur.RowBytes}
			rx := &Node{Op: ExchangeHashPartition, Children: []*Node{newSide}, LeftKey: rightKey, EstRows: newSide.EstRows, RowBytes: newSide.RowBytes}
			cur = &Node{
				Op: ShuffledHashJoin, Children: []*Node{lx, rx},
				LeftKey: leftKey, RightKey: rightKey,
				EstRows: joinRows, RowBytes: joinWidth,
			}
			algoSig = append(algoSig, "SHJ")
		} else if useBHJ {
			bx := &Node{Op: BroadcastExchange, Children: []*Node{newSide}, EstRows: newSide.EstRows, RowBytes: newSide.RowBytes}
			cur = &Node{
				Op: BroadcastHashJoin, Children: []*Node{cur, bx},
				LeftKey: leftKey, RightKey: rightKey,
				EstRows: joinRows, RowBytes: joinWidth,
			}
			algoSig = append(algoSig, "BHJ")
		} else {
			lx := &Node{Op: ExchangeHashPartition, Children: []*Node{cur}, LeftKey: leftKey, EstRows: cur.EstRows, RowBytes: cur.RowBytes}
			ls := &Node{Op: Sort, Children: []*Node{lx}, SortCol: leftKey, EstRows: cur.EstRows, RowBytes: cur.RowBytes}
			rx := &Node{Op: ExchangeHashPartition, Children: []*Node{newSide}, LeftKey: rightKey, EstRows: newSide.EstRows, RowBytes: newSide.RowBytes}
			rs := &Node{Op: Sort, Children: []*Node{rx}, SortCol: rightKey, EstRows: newSide.EstRows, RowBytes: newSide.RowBytes}
			cur = &Node{
				Op: SortMergeJoin, Children: []*Node{ls, rs},
				LeftKey: leftKey, RightKey: rightKey,
				EstRows: joinRows, RowBytes: joinWidth,
			}
			algoSig = append(algoSig, "SMJ")
		}
		joined[alias] = true
	}

	// Aggregation: partial → exchange → final (Spark's two-phase
	// aggregation), present whenever the query aggregates or groups.
	if len(q.Aggs) > 0 {
		groups := pl.Est.GroupRows(cur.EstRows, q.GroupBy)
		aggWidth := float64(8 * len(q.Aggs))
		aggOp := HashAggregate
		if sortAgg && len(q.GroupBy) > 0 {
			// Sort-based aggregation needs its input ordered by the key.
			aggOp = SortAggregate
			cur = &Node{Op: Sort, Children: []*Node{cur}, SortCol: &q.GroupBy[0], EstRows: cur.EstRows, RowBytes: cur.RowBytes}
		}
		partial := &Node{Op: aggOp, Children: []*Node{cur},
			GroupBy: q.GroupBy, Aggs: q.Aggs, EstRows: groups, RowBytes: aggWidth}
		var ex *Node
		if len(q.GroupBy) > 0 {
			ex = &Node{Op: ExchangeHashPartition, Children: []*Node{partial},
				GroupBy: q.GroupBy, EstRows: groups, RowBytes: aggWidth}
		} else {
			ex = &Node{Op: ExchangeSinglePartition, Children: []*Node{partial},
				EstRows: groups, RowBytes: aggWidth}
		}
		pre := ex
		if sortAgg && len(q.GroupBy) > 0 {
			pre = &Node{Op: Sort, Children: []*Node{ex}, SortCol: &q.GroupBy[0], EstRows: groups, RowBytes: aggWidth}
		}
		cur = &Node{Op: aggOp, Children: []*Node{pre},
			GroupBy: q.GroupBy, Aggs: q.Aggs, Final: true, EstRows: groups, RowBytes: aggWidth}
	}

	if q.OrderBy != nil {
		ex := &Node{Op: ExchangeSinglePartition, Children: []*Node{cur}, EstRows: cur.EstRows, RowBytes: cur.RowBytes}
		cur = &Node{Op: Sort, Children: []*Node{ex}, SortCol: q.OrderBy, SortDesc: q.Desc, EstRows: cur.EstRows, RowBytes: cur.RowBytes}
	}
	if q.Limit >= 0 {
		rows := cur.EstRows
		if float64(q.Limit) < rows {
			rows = float64(q.Limit)
		}
		cur = &Node{Op: LocalLimit, Children: []*Node{cur}, LimitN: q.Limit, EstRows: rows, RowBytes: cur.RowBytes}
	}

	p := &Plan{Root: cur, Query: q}
	p.Sig = fmt.Sprintf("order=%s;algos=%s;push=%v",
		strings.Join(order, ","), strings.Join(algoSig, ","), pushdown)
	if sortAgg {
		p.Sig += ";agg=sort"
	}
	p.finalize(0)
	return p, nil
}
