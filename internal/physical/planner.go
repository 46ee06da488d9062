package physical

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/logical"
	"raal/internal/sql"
)

// Planner enumerates candidate physical plans for a bound query.
type Planner struct {
	Est *cardest.Estimator

	// MaxPlans caps the number of candidates returned (Catalyst-style;
	// the paper evaluates the first three). Default 6.
	MaxPlans int

	// BroadcastThreshold mirrors spark.sql.autoBroadcastJoinThreshold:
	// the size-based rule the *default* cost model uses to pick
	// broadcast joins. Default 10 MB.
	BroadcastThreshold float64
}

// NewPlanner returns a Planner with Spark-like defaults.
func NewPlanner(est *cardest.Estimator) *Planner {
	return &Planner{Est: est, MaxPlans: 6, BroadcastThreshold: 10 << 20}
}

// joinMode is a join-algorithm assignment policy for one candidate plan.
type joinMode int

const (
	modeThreshold joinMode = iota // BHJ when build side under threshold (Catalyst default)
	modeAllSMJ
	modeAllBHJ
	modeAllSHJ
)

func (m joinMode) String() string {
	switch m {
	case modeThreshold:
		return "auto"
	case modeAllSMJ:
		return "smj"
	case modeAllBHJ:
		return "bhj"
	case modeAllSHJ:
		return "shj"
	}
	return "?"
}

// Enumerate returns up to MaxPlans distinct physical plans for q, most
// Catalyst-like first. The first plan is always the one Spark's default
// rule-based model would pick (greedy order, threshold joins, pushdown).
//
// Candidates are tried in a fixed sequence and told apart by signature. A
// variant's signature follows from the query's facts and the variant's
// knobs alone, so it is known before any node exists: a variant whose
// signature an earlier one already has is never built, and the walk stops
// once MaxPlans plans exist — later variants could only have been cut.
func (pl *Planner) Enumerate(q *logical.Query) ([]*Plan, error) {
	facts, err := pl.analyze(q)
	if err != nil {
		return nil, err
	}
	max := pl.MaxPlans
	if max <= 0 {
		max = 6
	}
	var plans []*Plan
	seen := map[string]bool{}
	for _, spec := range facts.candidates() {
		if len(plans) == max {
			break
		}
		v := facts.variant(spec)
		if !seen[v.sig] {
			seen[v.sig] = true
			plans = append(plans, facts.build(v))
		}
	}
	return plans, nil
}

// DefaultPlan returns the plan Catalyst's rule-based model would choose:
// the first plan Enumerate returns.
func (pl *Planner) DefaultPlan(q *logical.Query) (*Plan, error) {
	facts, err := pl.analyze(q)
	if err != nil {
		return nil, err
	}
	return facts.build(facts.variant(variantSpec{order: 0, mode: modeThreshold, pushdown: true})), nil
}

// scanFacts is what every candidate plan says about one FROM-list table.
type scanFacts struct {
	table, alias string
	columns      []string        // referenced columns, sorted (unqualified)
	qualified    []string        // the same, alias-qualified (engine-visible)
	preds        []sql.Predicate // user filters plus isnotnull guards on join keys
	raw          float64         // unfiltered table rows
	filtered     float64         // rows after preds
	width        float64         // bytes per row carrying columns
}

// joinStep adds one table to the tables joined so far. Its keys and
// estimates depend on the join order alone, not on the algorithm chosen.
type joinStep struct {
	scan        *scanFacts        // the newly joined (right) side
	left, right *logical.BoundCol // joined-side and new-side key
	theta       bool              // no equi key: nested loop on left thetaOp right
	thetaOp     sql.CmpOp
	rows, width float64 // the join's estimated output
}

// joinOrder is one connected order in which to join the query's tables.
type joinOrder struct {
	aliases []string
	first   *scanFacts
	joins   []joinStep
}

// queryFacts is everything the candidate plans of one query share,
// derived once per Enumerate or DefaultPlan.
type queryFacts struct {
	pl     *Planner
	q      *logical.Query
	scans  []scanFacts // parallel to q.Tables
	orders []joinOrder
}

// analyze derives the facts of q. It fails when q has no connected join
// order (the binder prevents this).
func (pl *Planner) analyze(q *logical.Query) (*queryFacts, error) {
	f := &queryFacts{pl: pl, q: q, scans: make([]scanFacts, len(q.Tables))}
	needed := pl.neededColumns(q)
	for i, tr := range q.Tables {
		s := &f.scans[i]
		s.table, s.alias, s.columns = tr.Table, tr.Alias, needed[i]
		s.qualified = make([]string, len(s.columns))
		for j, c := range s.columns {
			s.qualified[j] = tr.Alias + "." + c
		}
		// User filters plus Spark's isnotnull guards on join keys.
		s.preds = append([]sql.Predicate(nil), q.Filters[tr.Alias]...)
		nFilters := len(s.preds)
		for _, j := range q.Joins {
			for _, bc := range []logical.BoundCol{j.Left, j.Right} {
				if bc.Alias == tr.Alias && !guards(s.preds[nFilters:], bc.Name) {
					s.preds = append(s.preds, &sql.NullCheck{
						Col: sql.ColumnRef{Qualifier: tr.Alias, Name: bc.Name}, Not: true})
				}
			}
		}
		s.raw = pl.Est.TableRows(tr.Table)
		s.filtered = pl.Est.ScanRows(tr.Table, s.preds)
		s.width = pl.rowBytes(tr.Table, s.columns)
	}

	for _, aliases := range pl.joinOrders(q) {
		o := joinOrder{aliases: aliases, first: f.scan(aliases[0])}
		joined := map[string]bool{aliases[0]: true}
		rows, width := o.first.filtered, o.first.width
		for _, alias := range aliases[1:] {
			st := joinStep{scan: f.scan(alias)}
			if st.left, st.right = q.JoinKeysFor(alias, joined); st.left != nil {
				rows = pl.Est.JoinRows(rows, st.scan.filtered, *st.left, *st.right)
			} else {
				// No equi key: a broadcast nested loop join on a theta edge.
				var ok bool
				if st.left, st.right, st.thetaOp, ok = q.ThetaJoinFor(alias, joined); !ok {
					return nil, fmt.Errorf("physical: join order %v is disconnected at %s", aliases, alias)
				}
				st.theta = true
				rows = rows * st.scan.filtered / 3 // inequality selectivity
			}
			width += st.scan.width
			st.rows, st.width = rows, width
			o.joins = append(o.joins, st)
			joined[alias] = true
		}
		f.orders = append(f.orders, o)
	}
	if len(f.orders) == 0 {
		return nil, fmt.Errorf("physical: no plans produced for %s", q.Stmt)
	}
	return f, nil
}

// guards reports whether one of the isnotnull guards covers column name.
func guards(preds []sql.Predicate, name string) bool {
	for _, p := range preds {
		if p.(*sql.NullCheck).Col.Name == name {
			return true
		}
	}
	return false
}

func (f *queryFacts) scan(alias string) *scanFacts {
	for i := range f.scans {
		if f.scans[i].alias == alias {
			return &f.scans[i]
		}
	}
	return nil
}

// variantSpec names one candidate: a join order and the three knobs.
type variantSpec struct {
	order    int // index into queryFacts.orders
	mode     joinMode
	pushdown bool // filters inside the FileScan instead of a Filter above it
	sortAgg  bool // sort-based instead of hash-based aggregation
}

// candidates lists every variant Enumerate considers, in preference order.
func (f *queryFacts) candidates() []variantSpec {
	specs := make([]variantSpec, 0, 5*len(f.orders)+1)
	for oi := range f.orders {
		for _, mode := range []joinMode{modeThreshold, modeAllSMJ, modeAllBHJ, modeAllSHJ} {
			specs = append(specs, variantSpec{order: oi, mode: mode, pushdown: true})
		}
	}
	// Sort-based aggregation alternative for grouped queries.
	if len(f.q.GroupBy) > 0 {
		specs = append(specs, variantSpec{order: 0, mode: modeThreshold, pushdown: true, sortAgg: true})
	}
	// Pushdown-disabled variants: this is the second physical plan the
	// paper observes for single-table queries ("variation in the
	// conditions in the File Scan operators").
	for oi := range f.orders {
		specs = append(specs, variantSpec{order: oi, mode: modeThreshold})
	}
	return specs
}

// variant is a spec with its join algorithms decided and its signature
// rendered — all build needs, and all that tells two candidates apart.
type variant struct {
	variantSpec
	algos []OpType // join operator per joinStep
	sig   string
}

// variant decides each join's algorithm under spec.mode and renders the
// signature (the only place Plan.Sig comes from).
func (f *queryFacts) variant(spec variantSpec) variant {
	o := &f.orders[spec.order]
	v := variant{variantSpec: spec, algos: make([]OpType, len(o.joins))}
	// Size the signature for its widest knobs, so it is one allocation.
	size := len("order=;algos=;push=false;agg=sort") + 5*len(o.joins)
	for _, a := range o.aliases {
		size += len(a) + 1
	}
	var sig strings.Builder
	sig.Grow(size)
	sig.WriteString("order=")
	for i, a := range o.aliases {
		if i > 0 {
			sig.WriteByte(',')
		}
		sig.WriteString(a)
	}
	sig.WriteString(";algos=")
	for i, st := range o.joins {
		var name string
		switch {
		case st.theta:
			v.algos[i], name = BroadcastNestedLoopJoin, "BNLJ"
		case spec.mode == modeAllSHJ:
			v.algos[i], name = ShuffledHashJoin, "SHJ"
		case spec.mode == modeAllBHJ,
			spec.mode == modeThreshold && st.scan.filtered*st.scan.width < f.pl.BroadcastThreshold:
			v.algos[i], name = BroadcastHashJoin, "BHJ"
		default:
			v.algos[i], name = SortMergeJoin, "SMJ"
		}
		if i > 0 {
			sig.WriteByte(',')
		}
		sig.WriteString(name)
	}
	sig.WriteString(";push=")
	sig.WriteString(strconv.FormatBool(spec.pushdown))
	if spec.sortAgg {
		sig.WriteString(";agg=sort")
	}
	v.sig = sig.String()
	return v
}

// joinOrders returns 1-3 connected join orders: greedy ascending by
// filtered size (Catalyst-like), FROM-clause order, and greedy descending.
func (pl *Planner) joinOrders(q *logical.Query) [][]string {
	aliases := make([]string, len(q.Tables))
	rows := map[string]float64{}
	table := map[string]string{}
	for i, tr := range q.Tables {
		aliases[i] = tr.Alias
		table[tr.Alias] = tr.Table
		rows[tr.Alias] = pl.Est.ScanRows(tr.Table, q.Filters[tr.Alias])
	}
	if len(aliases) == 1 {
		return [][]string{aliases}
	}

	connected := func(alias string, joined map[string]bool) bool {
		if l, _ := q.JoinKeysFor(alias, joined); l != nil {
			return true
		}
		_, _, _, ok := q.ThetaJoinFor(alias, joined)
		return ok
	}

	greedy := func(asc bool) []string {
		remaining := append([]string(nil), aliases...)
		sort.Slice(remaining, func(i, j int) bool {
			if rows[remaining[i]] != rows[remaining[j]] {
				if asc {
					return rows[remaining[i]] < rows[remaining[j]]
				}
				return rows[remaining[i]] > rows[remaining[j]]
			}
			return remaining[i] < remaining[j]
		})
		order := []string{remaining[0]}
		joined := map[string]bool{remaining[0]: true}
		remaining = remaining[1:]
		for len(remaining) > 0 {
			picked := -1
			for i, a := range remaining {
				if connected(a, joined) {
					picked = i
					break
				}
			}
			if picked < 0 {
				return nil // disconnected (binder prevents this)
			}
			a := remaining[picked]
			order = append(order, a)
			joined[a] = true
			remaining = append(remaining[:picked], remaining[picked+1:]...)
		}
		return order
	}

	written := func() []string {
		remaining := append([]string(nil), aliases...)
		order := []string{remaining[0]}
		joined := map[string]bool{remaining[0]: true}
		remaining = remaining[1:]
		for len(remaining) > 0 {
			picked := -1
			for i, a := range remaining {
				if connected(a, joined) {
					picked = i
					break
				}
			}
			if picked < 0 {
				return nil
			}
			order = append(order, remaining[picked])
			joined[remaining[picked]] = true
			remaining = append(remaining[:picked], remaining[picked+1:]...)
		}
		return order
	}

	var out [][]string
	seen := map[string]bool{}
	for _, o := range [][]string{greedy(true), written(), greedy(false)} {
		if o == nil {
			continue
		}
		key := strings.Join(o, ",")
		if !seen[key] {
			seen[key] = true
			out = append(out, o)
		}
	}
	return out
}

// neededColumns returns, per q.Tables entry, the sorted set of columns
// referenced anywhere in the query (filters, join keys, aggregates,
// group/order by).
func (pl *Planner) neededColumns(q *logical.Query) [][]string {
	out := make([][]string, len(q.Tables))
	addRef := func(alias, name string) {
		for i, tr := range q.Tables {
			if tr.Alias == alias {
				out[i] = append(out[i], name)
				return
			}
		}
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
	for i, tr := range q.Tables {
		slices.Sort(out[i])
		out[i] = slices.Compact(out[i])
		if len(out[i]) == 0 {
			// COUNT(*) over an unfiltered table still scans something;
			// Spark reads the narrowest column.
			if tab, err := pl.Est.DB().Table(tr.Table); err == nil && len(tab.Schema.Columns) > 0 {
				out[i] = []string{tab.Schema.Columns[0].Name}
			}
		}
	}
	return out
}

// rowBytes estimates the width of one row carrying the given columns.
func (pl *Planner) rowBytes(tableName string, cols []string) float64 {
	var w float64
	tab, err := pl.Est.DB().Table(tableName)
	if err != nil {
		return float64(8 * len(cols))
	}
	for _, c := range cols {
		if col, ok := tab.Schema.Col(c); ok && col.Type == catalog.String {
			w += 24
		} else {
			w += 8
		}
	}
	if w == 0 {
		w = 8
	}
	return w
}

// nodeSlab hands out the nodes of one plan from a single []Node and their
// Children from a single []*Node, both allocated at the plan's final size.
// A slab belongs to one plan: nodes are never shared across plans, whose
// IDs and ActRows differ, and a kept candidate pins no node of a cut one.
// Every Children slice is capacity-capped, so no append to it can reach
// the next node's children.
type nodeSlab struct {
	nodes []Node
	kids  []*Node
}

// newNodeSlab returns a slab for a tree of size nodes, which have
// size-1 children between them.
func newNodeSlab(size int) *nodeSlab {
	return &nodeSlab{nodes: make([]Node, 0, size), kids: make([]*Node, 0, size-1)}
}

// add stores n with the given children and returns the stored node.
func (s *nodeSlab) add(n Node, children ...*Node) *Node {
	if len(children) > 0 {
		k := len(s.kids)
		s.kids = append(s.kids, children...)
		n.Children = s.kids[k:len(s.kids):len(s.kids)]
	}
	s.nodes = append(s.nodes, n)
	return &s.nodes[len(s.nodes)-1]
}

// scanSize is how many nodes scanSubtree makes.
func scanSize(s *scanFacts, pushdown bool) int {
	if !pushdown && len(s.preds) > 0 {
		return 3
	}
	return 2
}

// scanSubtree builds FileScan [→ Filter] → Project over one table.
func (sl *nodeSlab) scanSubtree(s *scanFacts, pushdown bool) *Node {
	scan := Node{Op: FileScan, Table: s.table, Alias: s.alias, Columns: s.columns, RowBytes: s.width, RawRows: s.raw}
	var top *Node
	switch {
	case pushdown:
		scan.Preds = s.preds
		scan.EstRows = s.filtered
		top = sl.add(scan)
	case len(s.preds) > 0:
		scan.EstRows = s.raw
		top = sl.add(Node{Op: Filter, Preds: s.preds, EstRows: s.filtered, RowBytes: s.width}, sl.add(scan))
	default:
		scan.EstRows = s.raw
		top = sl.add(scan)
	}
	return sl.add(Node{Op: Project, Columns: s.qualified, EstRows: s.filtered, RowBytes: s.width}, top)
}

// size is how many nodes build(v) makes.
func (f *queryFacts) size(v variant) int {
	q, o := f.q, &f.orders[v.order]
	n := scanSize(o.first, v.pushdown)
	for i, st := range o.joins {
		n += scanSize(st.scan, v.pushdown) + 1
		switch v.algos[i] {
		case BroadcastNestedLoopJoin, BroadcastHashJoin:
			n++ // BroadcastExchange
		case ShuffledHashJoin:
			n += 2 // an exchange per side
		case SortMergeJoin:
			n += 4 // an exchange and a sort per side
		}
	}
	if len(q.Aggs) > 0 {
		n += 3 // partial, exchange, final
		if v.sortAgg && len(q.GroupBy) > 0 {
			n += 2 // a sort before each phase
		}
	}
	if q.OrderBy != nil {
		n += 2 // exchange, sort
	}
	if q.Limit >= 0 {
		n++
	}
	return n
}

// build constructs the physical plan of one variant. Every node is new:
// plans of one query share facts (column lists, predicates, keys), never
// nodes, whose IDs and ActRows are per plan. Nodes go into the slab in
// execution order, children before parents.
func (f *queryFacts) build(v variant) *Plan {
	q, o := f.q, &f.orders[v.order]
	size := f.size(v)
	s := newNodeSlab(size)
	cur := s.scanSubtree(o.first, v.pushdown)
	for i, st := range o.joins {
		var l, r *Node
		switch v.algos[i] {
		case BroadcastHashJoin, BroadcastNestedLoopJoin:
			l = cur
			side := s.scanSubtree(st.scan, v.pushdown)
			r = s.add(Node{Op: BroadcastExchange, EstRows: side.EstRows, RowBytes: side.RowBytes}, side)
		case ShuffledHashJoin:
			l = s.add(Node{Op: ExchangeHashPartition, LeftKey: st.left, EstRows: cur.EstRows, RowBytes: cur.RowBytes}, cur)
			side := s.scanSubtree(st.scan, v.pushdown)
			r = s.add(Node{Op: ExchangeHashPartition, LeftKey: st.right, EstRows: side.EstRows, RowBytes: side.RowBytes}, side)
		case SortMergeJoin:
			lx := s.add(Node{Op: ExchangeHashPartition, LeftKey: st.left, EstRows: cur.EstRows, RowBytes: cur.RowBytes}, cur)
			l = s.add(Node{Op: Sort, SortCol: st.left, EstRows: cur.EstRows, RowBytes: cur.RowBytes}, lx)
			side := s.scanSubtree(st.scan, v.pushdown)
			rx := s.add(Node{Op: ExchangeHashPartition, LeftKey: st.right, EstRows: side.EstRows, RowBytes: side.RowBytes}, side)
			r = s.add(Node{Op: Sort, SortCol: st.right, EstRows: side.EstRows, RowBytes: side.RowBytes}, rx)
		}
		cur = s.add(Node{Op: v.algos[i], LeftKey: st.left, RightKey: st.right, ThetaOp: st.thetaOp,
			EstRows: st.rows, RowBytes: st.width}, l, r)
	}

	// Aggregation: partial → exchange → final (Spark's two-phase
	// aggregation), present whenever the query aggregates or groups.
	if len(q.Aggs) > 0 {
		groups := f.pl.Est.GroupRows(cur.EstRows, q.GroupBy)
		aggWidth := float64(8 * len(q.Aggs))
		aggOp := HashAggregate
		sortAgg := v.sortAgg && len(q.GroupBy) > 0
		if sortAgg {
			// Sort-based aggregation needs its input ordered by the key.
			aggOp = SortAggregate
			cur = s.add(Node{Op: Sort, SortCol: &q.GroupBy[0], EstRows: cur.EstRows, RowBytes: cur.RowBytes}, cur)
		}
		partial := s.add(Node{Op: aggOp, GroupBy: q.GroupBy, Aggs: q.Aggs, EstRows: groups, RowBytes: aggWidth}, cur)
		var ex *Node
		if len(q.GroupBy) > 0 {
			ex = s.add(Node{Op: ExchangeHashPartition, GroupBy: q.GroupBy, EstRows: groups, RowBytes: aggWidth}, partial)
		} else {
			ex = s.add(Node{Op: ExchangeSinglePartition, EstRows: groups, RowBytes: aggWidth}, partial)
		}
		pre := ex
		if sortAgg {
			pre = s.add(Node{Op: Sort, SortCol: &q.GroupBy[0], EstRows: groups, RowBytes: aggWidth}, ex)
		}
		cur = s.add(Node{Op: aggOp, GroupBy: q.GroupBy, Aggs: q.Aggs, Final: true, EstRows: groups, RowBytes: aggWidth}, pre)
	}

	if q.OrderBy != nil {
		ex := s.add(Node{Op: ExchangeSinglePartition, EstRows: cur.EstRows, RowBytes: cur.RowBytes}, cur)
		cur = s.add(Node{Op: Sort, SortCol: q.OrderBy, SortDesc: q.Desc, EstRows: cur.EstRows, RowBytes: cur.RowBytes}, ex)
	}
	if q.Limit >= 0 {
		rows := cur.EstRows
		if float64(q.Limit) < rows {
			rows = float64(q.Limit)
		}
		cur = s.add(Node{Op: LocalLimit, LimitN: q.Limit, EstRows: rows, RowBytes: cur.RowBytes}, cur)
	}

	p := &Plan{Root: cur, Query: q, Sig: v.sig}
	p.finalize(size)
	return p
}
