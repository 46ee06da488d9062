package physical

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"raal/internal/logical"
	"raal/internal/sql"
)

// handBuiltNodes covers every operator (and two unknown ones), every
// predicate kind, every aggregate shape and the nil-column and
// unknown-enum edges the planner never produces.
func handBuiltNodes() []*Node {
	tid := &logical.BoundCol{Alias: "t", Table: "title", Name: "id"}
	mcid := &logical.BoundCol{Alias: "mc", Table: "movie_companies", Name: "movie_id"}
	year := logical.BoundCol{Alias: "t", Table: "title", Name: "production_year"}
	kind := logical.BoundCol{Alias: "t", Table: "title", Name: "kind_id"}
	preds := []sql.Predicate{
		&sql.Comparison{Left: sql.ColumnRef{Qualifier: "t", Name: "production_year"}, Op: sql.OpGe, Lit: sql.IntLit(-1990)},
		&sql.Comparison{Left: sql.ColumnRef{Qualifier: "t", Name: "id"}, Op: sql.OpLt, RightCol: &sql.ColumnRef{Qualifier: "mc", Name: "movie_id"}},
		&sql.Comparison{Left: sql.ColumnRef{Name: "note"}, Op: sql.OpNe, Lit: sql.StrLit("it's")},
		&sql.Comparison{Left: sql.ColumnRef{Name: "x"}, Op: sql.CmpOp(42), Lit: sql.IntLit(math.MinInt64)},
		&sql.Between{Col: sql.ColumnRef{Qualifier: "t", Name: "kind_id"}, Lo: -50, Hi: -3},
		&sql.Between{Col: sql.ColumnRef{Name: "k"}, Lo: math.MinInt64, Hi: math.MaxInt64},
		&sql.In{Col: sql.ColumnRef{Qualifier: "cn", Name: "country_code"}, Values: []sql.Literal{sql.IntLit(-7), sql.StrLit("a b"), sql.IntLit(0), sql.StrLit("")}},
		&sql.In{Col: sql.ColumnRef{Name: "e"}},
		&sql.Like{Col: sql.ColumnRef{Qualifier: "k", Name: "keyword"}, Pattern: "%é_%"},
		&sql.NullCheck{Col: sql.ColumnRef{Qualifier: "mc", Name: "movie_id"}, Not: true},
		&sql.NullCheck{Col: sql.ColumnRef{Name: "note"}},
	}
	aggs := []logical.BoundAgg{
		{Agg: sql.AggCount, Star: true},
		{Agg: sql.AggNone, Col: &kind},
		{Agg: sql.AggSum, Col: &year},
		{Agg: sql.AggMin, Col: &year},
		{Agg: sql.AggMax, Col: &kind},
		{Agg: sql.AggAvg}, // nil column
		{Agg: sql.AggFunc(9), Col: &kind},
	}
	return []*Node{
		{Op: FileScan, Table: "title", Columns: []string{"id", "kind_id", "production_year"}, Preds: preds},
		{Op: FileScan, Table: "movie_companies", Columns: []string{"movie_id"}},
		{Op: FileScan, Table: "empty"},
		{Op: Filter, Preds: preds[:1]},
		{Op: Filter, Preds: preds},
		{Op: Filter},
		{Op: Project, Columns: []string{"t.id", "t.kind_id"}},
		{Op: Project},
		{Op: Sort, SortCol: &year},
		{Op: Sort, SortCol: &year, SortDesc: true},
		{Op: Sort},
		{Op: SortMergeJoin, LeftKey: tid, RightKey: mcid},
		{Op: SortMergeJoin},
		{Op: BroadcastHashJoin, LeftKey: tid, RightKey: mcid},
		{Op: ShuffledHashJoin, LeftKey: mcid, RightKey: tid},
		{Op: BroadcastNestedLoopJoin, LeftKey: tid, RightKey: mcid, ThetaOp: sql.OpLe},
		{Op: BroadcastNestedLoopJoin, LeftKey: tid, ThetaOp: sql.CmpOp(-1)},
		{Op: HashAggregate, Aggs: aggs[:1]},
		{Op: HashAggregate, GroupBy: []logical.BoundCol{kind, year}, Aggs: aggs},
		{Op: SortAggregate, GroupBy: []logical.BoundCol{kind}, Aggs: aggs[1:3], Final: true},
		{Op: SortAggregate, Final: true},
		{Op: ExchangeHashPartition, LeftKey: mcid},
		{Op: ExchangeHashPartition, GroupBy: []logical.BoundCol{kind, year}},
		{Op: ExchangeHashPartition, LeftKey: tid, GroupBy: []logical.BoundCol{kind}},
		{Op: ExchangeHashPartition},
		{Op: ExchangeSinglePartition},
		{Op: BroadcastExchange},
		{Op: LocalLimit, LimitN: 5},
		{Op: LocalLimit},
		{Op: LocalLimit, LimitN: -1},
		{Op: numOpTypes},
		{Op: OpType(-3)},
	}
}

// TestStatementMatchesReferenceOnEdgeCases holds the append renderer to the
// fmt-based reference node by node, alone and after a prefix, and a plan
// of the same nodes to the reference statements and key.
func TestStatementMatchesReferenceOnEdgeCases(t *testing.T) {
	if got := fmt.Sprintf("%s", (*logical.BoundCol)(nil)); got != "<nil>" {
		t.Fatalf("fmt renders a nil *BoundCol as %q; the reference assumes <nil>", got)
	}
	nodes := handBuiltNodes()
	ops := map[OpType]bool{}
	for i, n := range nodes {
		ops[n.Op] = true
		want := ReferenceStatement(n)
		if got := n.Statement(); got != want {
			t.Errorf("node %d (%s): Statement %q, want %q", i, n.Op, got, want)
		}
		if got := string(n.AppendStatement([]byte("prefix|"))); got != "prefix|"+want {
			t.Errorf("node %d (%s): AppendStatement after a prefix gave %q", i, n.Op, got)
		}
	}
	for op := OpType(0); op < numOpTypes; op++ {
		if !ops[op] {
			t.Errorf("no hand-built node covers %s", op)
		}
	}

	floats := []float64{0, math.Copysign(0, -1), 1e6, math.NaN(), math.Inf(-1), 0.5, 999999, -42, 5e-324}
	p := &Plan{Nodes: nodes}
	for i, n := range nodes {
		n.ID = i
		n.EstRows, n.RawRows, n.RowBytes = floats[i%len(floats)], floats[(i+3)%len(floats)], floats[(i+7)%len(floats)]
		if i > 0 {
			n.Children = []*Node{nodes[i-1]}
		}
	}
	p.Root = nodes[len(nodes)-1]
	for i, s := range p.Statements() {
		if want := ReferenceStatement(nodes[i]); s != want {
			t.Errorf("Statements()[%d] = %q, want %q", i, s, want)
		}
	}
	if got, want := p.Key(), ReferenceKey(p); got != want {
		t.Errorf("Key() = %q,\nwant    %q", got, want)
	}
}

// TestAppendKeyFloatMatchesAppendFloat: the key's integer fast path writes
// exactly what AppendFloat(v, 'g', -1, 64) writes, at its edges and on
// random values.
func TestAppendKeyFloatMatchesAppendFloat(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		want := strconv.AppendFloat([]byte("k="), v, 'g', -1, 64)
		if got := appendKeyFloat([]byte("k="), v); string(got) != string(want) {
			t.Fatalf("appendKeyFloat(%v) = %q, want %q (bits %#x)", v, got, want, math.Float64bits(v))
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 7, 10, 100, 120000, -120000,
		999999, -999999, 999999.5, -999999.5, 999999.9999999999,
		1e6, -1e6, 1e6 + 1, 1e6 - 0.5, 1e7, 1e21,
		1 << 53, -(1 << 53), 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 63), math.MaxInt64,
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.225073858507201e-308, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64,
		0.5, -0.5, 0.1, 1e-4, 1e-5, 123.456, 24, 8, 48, 3.0000000000000004,
	} {
		check(v)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		check(float64(r.Int63n(4_000_000) - 2_000_000))   // integers around the 1e6 edge
		check(float64(r.Int63n(4_000_000)-2_000_000) / 4) // quarters
		check(float64(r.Int63()) * math.Pow(10, float64(r.Intn(40)-20)))
		check(math.Float64frombits(r.Uint64())) // any bit pattern
	}
}

// TestStatementsAllocsBounded: Statements on a fresh plan allocates the
// one string, the slice of substrings and nothing per node, whatever the
// plan's size.
func TestStatementsAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch buffers at random under the race detector")
	}
	pl, binder := newPlanner(t)
	pl.MaxPlans = math.MaxInt
	for _, query := range []string{
		`SELECT COUNT(*) FROM movie_keyword mk`,
		threeJoinQuery,
		`SELECT t.kind_id, MIN(t.production_year) FROM title t, movie_keyword mk, movie_companies mc, company_name cn, keyword k
			WHERE t.id = mk.movie_id AND t.id = mc.movie_id AND cn.id = mc.company_id AND k.id = mk.keyword_id
			AND cn.country_code IN ('cc7', 'cc8', 'cc9') AND t.kind_id BETWEEN 1 AND 4 AND k.keyword LIKE '%ab%'
			GROUP BY t.kind_id ORDER BY t.kind_id DESC LIMIT 10`,
	} {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		q, err := binder.Bind(stmt)
		if err != nil {
			t.Fatal(err)
		}
		var plans []*Plan
		for len(plans) < 24 {
			more, err := pl.Enumerate(q)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, more...)
		}
		i := 0
		a := testing.AllocsPerRun(len(plans)-1, func() { _ = plans[i].Statements(); i++ })
		lo, hi := len(plans[0].Nodes), len(plans[0].Nodes)
		for _, p := range plans {
			lo, hi = min(lo, len(p.Nodes)), max(hi, len(p.Nodes))
		}
		t.Logf("%d to %d nodes: %v allocations", lo, hi, a)
		if a > 3 {
			t.Errorf("Statements of a fresh plan of %d to %d nodes allocates %v times, want <= 3", lo, hi, a)
		}
	}
}

// TestStatementsConcurrentPlans: goroutines rendering different plans at
// once share the scratch pool, never a buffer, so each gets its own
// plan's statements.
func TestStatementsConcurrentPlans(t *testing.T) {
	var plans []*Plan
	for i := 0; i < 8; i++ {
		plans = append(plans, plansFor(t, threeJoinQuery)...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(plans); i += 4 {
				for j, s := range plans[i].Statements() {
					if want := ReferenceStatement(plans[i].Nodes[j]); s != want {
						t.Errorf("plan %d node %d: %q, want %q", i, j, s, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
