package engine_test

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"raal/internal/catalog"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/telemetry"
)

// diffRelations describes how two relations differ ("" when they agree):
// column names and types, then the multiset of rows. Row order is not
// compared; callers that care check it themselves.
func diffRelations(a, b *engine.Relation) string {
	sig := func(r *engine.Relation) []string {
		var s []string
		for name, col := range r.Ints {
			s = append(s, name+" int"+fmt.Sprint(len(col)))
		}
		for name, col := range r.Strs {
			s = append(s, name+" string"+fmt.Sprint(len(col)))
		}
		slices.Sort(s)
		return append(s, fmt.Sprint(r.N, " rows"))
	}
	if sa, sb := sig(a), sig(b); !slices.Equal(sa, sb) {
		return fmt.Sprintf("columns and lengths %v vs %v", sa, sb)
	}
	rows := map[string]int{}
	for i := 0; i < a.N; i++ {
		rows[rowKey(a, i)]++
	}
	for i := 0; i < b.N; i++ {
		k := rowKey(b, i)
		if rows[k]--; rows[k] < 0 {
			return fmt.Sprintf("row %s of the second is not in the first", k)
		}
	}
	return ""
}

// rowKey renders row i of r, columns in name order.
func rowKey(r *engine.Relation, i int) string {
	var sb strings.Builder
	for _, name := range r.ColNames() {
		if col, ok := r.Ints[name]; ok {
			fmt.Fprintf(&sb, "%s=%d ", name, col[i])
		} else {
			fmt.Fprintf(&sb, "%s=%q ", name, r.Strs[name][i])
		}
	}
	return sb.String()
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, engine.ErrRowLimit):
		return "row limit"
	}
	return "error"
}

// diffEngine runs p on eng and on the reference interpreter (interpret)
// and describes their first disagreement, or returns "". They must agree
// on:
//   - the error class: none; ErrRowLimit, when a node outputs more than
//     MaxRows rows; or another error, when a node is malformed (a missing
//     or mistyped column), which takes precedence over the row limit;
//   - the column set and the multiset of rows; an aggregate that produced
//     no groups carries only its key columns;
//   - every node's ActRows: the number of rows it outputs, LIMIT included;
//   - every hash exchange's Skew: its largest of 24 hash partitions over
//     the mean one, 1 with no rows;
//   - under ORDER BY, rows sorted on the key.
//
// Joins emit each left row's matches in right-side order, sorts are
// stable and groups come out in first-seen order, so a LIMIT cuts ties
// alike on both sides. Over no rows COUNT, SUM and AVG are 0, MIN is
// MaxInt64 and MAX is MinInt64, and AVG divides integers: the data has no
// NULLs. err is the engine's error.
func diffEngine(eng *engine.Engine, db *catalog.Database, p *physical.Plan) (rel *engine.Relation, diff string, err error) {
	limit := eng.MaxRows
	if limit <= 0 {
		limit = 5_000_000 // the engine's documented default
	}
	rel, err = eng.Run(p)
	ref, act, skew, ierr := interpret(db, p, limit)
	if errClass(err) != errClass(ierr) {
		return rel, fmt.Sprintf("engine error %v, interpreter error %v", err, ierr), err
	}
	if err != nil {
		return nil, "", err
	}
	if d := diffRelations(ref, rel); d != "" {
		return rel, "relation: " + d, nil
	}
	for i, n := range p.Nodes {
		if n.ActRows != act[n] || n.Skew != skew[n] {
			return rel, fmt.Sprintf("node %d (%s): ActRows %v Skew %v, interpreter %v and %v",
				i, n.Op, n.ActRows, n.Skew, act[n], skew[n]), nil
		}
	}
	top := p.Root
	if top.Op == physical.LocalLimit {
		top = top.Children[0]
	}
	if top.Op == physical.Sort && top.SortCol != nil && rel.N > 0 {
		key := top.SortCol.String()
		if !sortedOn(rel.Ints[key], top.SortDesc) || !sortedOn(rel.Strs[key], top.SortDesc) {
			return rel, "rows not sorted on the ORDER BY key " + key, nil
		}
	}
	return rel, "", nil
}

func sortedOn[T cmp.Ordered](xs []T, desc bool) bool {
	return slices.IsSortedFunc(xs, func(a, b T) int {
		if desc {
			return cmp.Compare(b, a)
		}
		return cmp.Compare(a, b)
	})
}

// checkPlan fails t unless the engine and the interpreter agree on p, and
// returns the engine's relation (nil when the run failed).
func checkPlan(t *testing.T, eng *engine.Engine, db *catalog.Database, p *physical.Plan) *engine.Relation {
	t.Helper()
	rel, diff, _ := diffEngine(eng, db, p)
	if diff != "" {
		t.Fatalf("%s: %s", p.Sig, diff)
	}
	return rel
}

// moreEdgeQueries extends the golden edge queries. The engine and the
// materialized executor it replaced got the first and third wrong alike
// (a selected string group key failed; LIKE ” matched every row) until
// the interpreter checked them. Both reject the fourth (a comparison of
// two string columns); the last has its LIMIT cut through tied keys.
var moreEdgeQueries = []string{
	`SELECT cn.country_code, COUNT(*) FROM company_name cn GROUP BY cn.country_code`,
	`SELECT cn.country_code, COUNT(cn.name), MAX(cn.id) FROM company_name cn
	 GROUP BY cn.country_code ORDER BY cn.country_code DESC LIMIT 4`,
	`SELECT COUNT(*) FROM title t WHERE t.title LIKE ''`,
	`SELECT COUNT(*) FROM company_name cn WHERE cn.name LIKE '%%' AND cn.name = cn.country_code`,
	`SELECT t.kind_id, mc.company_type_id, COUNT(*) FROM title t, movie_companies mc
	 WHERE t.id = mc.movie_id GROUP BY t.kind_id, mc.company_type_id ORDER BY t.kind_id LIMIT 5`,
}

// TestStreamingMatchesMaterializedQueries holds the engine to the
// interpreter, which materializes every operator's output, on every
// candidate plan of the edge queries. The batch size is off a power of
// two so final chunks are partial.
func TestStreamingMatchesMaterializedQueries(t *testing.T) {
	f := newFixture(t)
	f.planner.MaxPlans = 12
	f.eng.BatchSize = 97
	queries := slices.Clone(moreEdgeQueries)
	for _, q := range edgeQueries {
		if q.maxRows == 0 {
			queries = append(queries, q.sql)
		}
	}
	for _, q := range queries {
		for _, p := range f.plans(t, q) {
			checkPlan(t, f.eng, f.db, p)
		}
	}
}

func TestStreamingEmptyInput(t *testing.T) {
	f := newFixture(t)
	// The predicate matches nothing: grouped aggregates emit zero groups
	// (key columns only), global aggregates emit the one zero row.
	for _, q := range []string{
		`SELECT t.kind_id, COUNT(*) FROM title t WHERE t.production_year > 99999 GROUP BY t.kind_id`,
		`SELECT COUNT(*), MIN(t.id) FROM title t WHERE t.production_year > 99999`,
		`SELECT t.kind_id, COUNT(*) FROM title t WHERE t.production_year > 99999
		 GROUP BY t.kind_id ORDER BY t.kind_id LIMIT 5`,
	} {
		for _, p := range f.plans(t, q) {
			if rel := checkPlan(t, f.eng, f.db, p); rel == nil {
				t.Fatalf("%s: run failed", p.Sig)
			}
		}
	}
}

func TestStreamingAllFilteredBatches(t *testing.T) {
	f := newFixture(t)
	// Tiny batches force many chunks, every one fully filtered out.
	f.eng.BatchSize = 7
	for _, p := range f.plans(t, `SELECT COUNT(*) FROM title t WHERE t.production_year > 99999`) {
		checkPlan(t, f.eng, f.db, p)
	}
}

func TestStreamingJoinKeyAbsent(t *testing.T) {
	f := newFixture(t)
	f.eng.BatchSize = 64
	// The build side is empty (no company has this code), so no probe row
	// finds a match.
	q := `SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
	      WHERE t.id = mc.movie_id AND cn.id = mc.company_id AND cn.country_code = 'zz-nowhere'`
	for _, p := range f.plans(t, q) {
		checkPlan(t, f.eng, f.db, p)
	}
}

func TestStreamingRowLimitIncremental(t *testing.T) {
	f := newFixture(t)
	f.eng.MaxRows = 50 // trips on scans, joins, and aggregate group counts
	for _, q := range []string{
		`SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id`,
		`SELECT t.production_year, COUNT(*) FROM title t GROUP BY t.production_year`,
	} {
		for _, p := range f.plans(t, q) {
			if _, diff, err := diffEngine(f.eng, f.db, p); diff != "" || !errors.Is(err, engine.ErrRowLimit) {
				t.Fatalf("%s: want ErrRowLimit from both, got %v (%s)", p.Sig, err, diff)
			}
		}
	}
}

// TestStreamingJoinTripsBeforeGather: a join prices each probe batch by
// its build-side match counts before it gathers a row, so one whose first
// probe batch alone matches more than MaxRows rows fails having emitted
// none. Each of the 100 probe rows matches 100 (dense int keys), 50
// (sparse int keys, a map index) or 100 (string keys) build rows, against
// a limit of 1,000 that neither scan reaches.
func TestStreamingJoinTripsBeforeGather(t *testing.T) {
	for _, tc := range []struct {
		name string
		ints func(i int) int64
		strs func(i int) string
	}{
		{name: "dense", ints: func(int) int64 { return 7 }},
		{name: "sparse", ints: func(i int) int64 { return int64(i%2) << 40 }},
		{name: "string", strs: func(int) string { return "x" }},
	} {
		db := &catalog.Database{Name: "two", Tables: map[string]*catalog.Table{}}
		for _, name := range []string{"a", "b"} {
			tab := &catalog.Table{Schema: &catalog.Schema{Name: name}, NumRows: 100,
				Ints: map[string][]int64{}, Strs: map[string][]string{}}
			typ := catalog.Int64
			for i := 0; i < 100; i++ {
				if tc.strs != nil {
					tab.Strs["k"], typ = append(tab.Strs["k"], tc.strs(i)), catalog.String
				} else {
					tab.Ints["k"] = append(tab.Ints["k"], tc.ints(i))
				}
			}
			tab.Schema.Columns = []catalog.Column{{Name: "k", Type: typ}}
			db.Tables[name] = tab
		}
		left := &physical.Node{Op: physical.FileScan, Table: "a", Alias: "a", Columns: []string{"k"}}
		right := &physical.Node{Op: physical.FileScan, Table: "b", Alias: "b", Columns: []string{"k"}}
		join := &physical.Node{Op: physical.BroadcastHashJoin, Children: []*physical.Node{left, right},
			LeftKey: &logical.BoundCol{Alias: "a", Name: "k"}, RightKey: &logical.BoundCol{Alias: "b", Name: "k"}}
		count := []logical.BoundAgg{{Agg: sql.AggCount, Star: true}}
		partial := &physical.Node{Op: physical.HashAggregate, Aggs: count}
		final := &physical.Node{Op: physical.HashAggregate, Aggs: count, Final: true}
		plan := chain(join, partial, final)
		plan.Nodes = append([]*physical.Node{left, right}, plan.Nodes...)

		eng := engine.New(db)
		eng.MaxRows = 1000
		reg := telemetry.NewRegistry()
		eng.Instrument(reg)
		if _, diff, err := diffEngine(eng, db, plan); diff != "" || !errors.Is(err, engine.ErrRowLimit) {
			t.Fatalf("%s: want ErrRowLimit from both, got %v (%s)", tc.name, err, diff)
		}
		emitted := reg.NewCounterVec("raal_engine_rows_total", "", "op").With("BroadcastHashJoin").Value()
		if join.ActRows != 0 || emitted != 0 {
			t.Errorf("%s: the join emitted %v rows (counter %d) before tripping, want 0", tc.name, join.ActRows, emitted)
		}
	}
}

// TestStreamingAncestorsKeepColumnsLive runs a hand-built plan whose
// filter, hash exchange and sort sit above a join, and read join output
// columns that no aggregate reads, so only those operators keep them live.
// The planner never builds this shape: its filters sit on scans.
func TestStreamingAncestorsKeepColumnsLive(t *testing.T) {
	f := newFixture(t)
	col := func(alias, name string) *logical.BoundCol { return &logical.BoundCol{Alias: alias, Name: name} }
	left := &physical.Node{Op: physical.FileScan, Table: "title", Alias: "t",
		Columns: []string{"id", "kind_id", "production_year"}}
	right := &physical.Node{Op: physical.FileScan, Table: "movie_companies", Alias: "mc",
		Columns: []string{"movie_id", "company_id", "company_type_id"}}
	join := &physical.Node{Op: physical.BroadcastHashJoin, Children: []*physical.Node{left, right},
		LeftKey: col("t", "id"), RightKey: col("mc", "movie_id")}
	filter := &physical.Node{Op: physical.Filter, Preds: []sql.Predicate{&sql.Comparison{
		Left: sql.ColumnRef{Qualifier: "mc", Name: "company_type_id"}, Op: sql.OpGt, Lit: sql.Literal{I: 1}}}}
	exchange := &physical.Node{Op: physical.ExchangeHashPartition, LeftKey: col("t", "kind_id")}
	sort := &physical.Node{Op: physical.Sort, SortCol: col("t", "production_year")}
	aggs := []logical.BoundAgg{{Agg: sql.AggCount, Star: true}, {Agg: sql.AggSum, Col: col("mc", "company_id")}}
	plan := chain(join, filter, exchange, sort, &physical.Node{Op: physical.HashAggregate, Aggs: aggs},
		&physical.Node{Op: physical.HashAggregate, Aggs: aggs, Final: true})
	plan.Nodes = append([]*physical.Node{left, right}, plan.Nodes...)
	for _, bs := range []int{97, 0} {
		f.eng.BatchSize = bs
		if rel := checkPlan(t, f.eng, f.db, plan); rel.Ints["agg0"][0] == 0 || exchange.Skew == 1 {
			t.Fatalf("BatchSize %d: COUNT(*) %v, Skew %v: the plan should keep rows and skew", bs, rel.Ints, exchange.Skew)
		}
	}
}

// TestStreamingLimitDrainsChild pins one LIMIT semantics: a LIMIT keeps
// draining its child, so every node's ActRows is its full output
// cardinality whatever the batch size. The plan is the one the planner
// would build for SELECT t.id FROM title t LIMIT 10, a shape the binder
// rejects (a bare column needs GROUP BY).
func TestStreamingLimitDrainsChild(t *testing.T) {
	f := newFixture(t)
	tab := f.db.Tables["title"]
	for _, bs := range []int{7, 97, 0} {
		scan := &physical.Node{Op: physical.FileScan, Table: "title", Alias: "t", Columns: []string{"id"}}
		proj := &physical.Node{Op: physical.Project, Columns: []string{"t.id"}}
		plan := chain(scan, proj, &physical.Node{Op: physical.LocalLimit, LimitN: 10})
		f.eng.BatchSize = bs
		rel := checkPlan(t, f.eng, f.db, plan)
		if !slices.Equal(rel.Ints["t.id"], tab.IntCol("id")[:10]) {
			t.Fatalf("BatchSize %d: LIMIT 10 returned %v", bs, rel.Ints["t.id"])
		}
		var act []float64
		for _, n := range plan.Nodes {
			act = append(act, n.ActRows)
		}
		if want := []float64{float64(tab.NumRows), float64(tab.NumRows), 10}; !slices.Equal(act, want) {
			t.Fatalf("BatchSize %d: ActRows %v, want %v", bs, act, want)
		}
	}
}

// chain links nodes bottom-up, each the only child of the next, into a plan.
func chain(nodes ...*physical.Node) *physical.Plan {
	for i := 1; i < len(nodes); i++ {
		nodes[i].Children = []*physical.Node{nodes[i-1]}
	}
	return &physical.Plan{Root: nodes[len(nodes)-1], Nodes: nodes, Sig: "hand-built"}
}

func TestStreamingInstrumentation(t *testing.T) {
	f := newFixture(t)
	reg := telemetry.NewRegistry()
	f.eng.Instrument(reg)
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*) FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id GROUP BY t.kind_id`)
	if _, err := f.eng.Run(plans[0]); err != nil {
		t.Fatal(err)
	}
	// Every operator of the plan is timed: raal_engine_op_ns_total moves
	// for each operator type it holds.
	opNs := reg.NewCounterVec("raal_engine_op_ns_total", "", "op")
	for _, n := range plans[0].Nodes {
		if opNs.With(n.Op.String()).Value() == 0 {
			t.Errorf("raal_engine_op_ns_total{op=%q} = 0 after running a plan with that operator", n.Op)
		}
	}
	// Registering an existing metric again returns it.
	tab := f.db.Tables["title"]
	rows := reg.NewCounterVec("raal_engine_rows_total", "", "op").With("FileScan").Value()
	if rows < uint64(tab.NumRows) {
		t.Fatalf("FileScan rows counter = %d, want >= %d", rows, tab.NumRows)
	}
	if reg.NewCounterVec("raal_engine_batches_total", "", "op").With("HashAggregate").Value() == 0 {
		t.Fatal("no aggregate batches counted")
	}
	if runs := reg.NewCounter("raal_engine_runs_total", "").Value(); runs != 1 {
		t.Fatalf("runs counter = %d, want 1", runs)
	}
}

// TestConcurrentStreamingRuns exercises one Engine (shared slab pools,
// shared instrumentation) from many goroutines under -race: workload
// collection executes plans exactly this way.
func TestConcurrentStreamingRuns(t *testing.T) {
	f := newFixture(t)
	f.eng.Instrument(telemetry.NewRegistry())
	queries := []string{
		`SELECT COUNT(*) FROM title t WHERE t.production_year > 1990`,
		`SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id`,
		`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`,
		`SELECT mc.company_type_id, COUNT(*) FROM movie_companies mc GROUP BY mc.company_type_id`,
	}
	// Sequential baselines.
	want := make([]*engine.Relation, len(queries))
	for i, q := range queries {
		want[i] = checkPlan(t, f.eng, f.db, f.plans(t, q)[0])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		for i, q := range queries {
			wg.Add(1)
			// Each goroutine gets its own plan (ActRows is per-plan state).
			p := f.plans(t, q)[0]
			go func(i int, p *physical.Plan) {
				defer wg.Done()
				rel, err := f.eng.Run(p)
				if err != nil {
					errs <- err
					return
				}
				if d := diffRelations(want[i], rel); d != "" {
					errs <- errors.New("concurrent run diverged from sequential baseline: " + d)
				}
			}(i, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamingAllocsPerRowBounded holds the engine to well under one
// allocation per input row: slabs, hash tables and group states are per
// operator, not per row, so a join + grouped aggregate over ~94k scanned
// rows must stay under 1% mallocs per row whatever the join order or
// algorithm (measured 272–454 per run). A per-row allocation anywhere on
// the path is ≥ 100% and fails this by two orders of magnitude.
func TestStreamingAllocsPerRowBounded(t *testing.T) {
	f := newFixtureAt(t, 1)
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*), SUM(mc.company_id)
		FROM title t, movie_companies mc, company_name cn
		WHERE t.id = mc.movie_id AND cn.id = mc.company_id GROUP BY t.kind_id`)
	for _, p := range plans {
		var scanned float64
		for _, n := range p.Nodes {
			if n.Op == physical.FileScan {
				scanned += float64(f.db.Tables[n.Table].NumRows)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := f.eng.Run(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0.01*scanned {
			t.Errorf("%s: %.0f mallocs per run over %.0f scanned rows (%.2f%%), want < 1%%",
				p.Sig, allocs, scanned, 100*allocs/scanned)
		}
	}
}

// TestStreamingWarmRunAllocs pins the mallocs of warm runs: the six
// candidate plans of a filtered three-way join, grouped and sorted, made
// 2,017–2,020 mallocs a pass before joins gathered only live columns.
// Skipping dead columns skips their slabs and build-side growth, so a
// pass must not make more than that.
func TestStreamingWarmRunAllocs(t *testing.T) {
	f := newFixture(t)
	f.planner.MaxPlans = 6
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*), SUM(mc.company_id)
		FROM title t, movie_companies mc, company_name cn
		WHERE t.id = mc.movie_id AND cn.id = mc.company_id AND cn.country_code < 'cc_0050'
		GROUP BY t.kind_id ORDER BY t.kind_id DESC`)
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range plans {
			if _, err := f.eng.Run(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 2020 {
		t.Errorf("%d plans: %.0f mallocs a pass, want at most 2020", len(plans), allocs)
	}
}

// TestWarmJoinSortAllocBytes bounds the bytes that warm runs of the
// candidate plans of a join, grouped and sorted, allocate. The joins'
// build-side columns and hash-index arrays and the sort's input and output
// columns start from the engine's slab pool and go back to it when the run
// closes. Growing them from nil on every run took 1.25 MB a pass; the
// bound is half that.
func TestWarmJoinSortAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops slabs at random under the race detector")
	}
	f := newFixture(t)
	f.planner.MaxPlans = 6
	plans := f.plans(t, `SELECT mc.company_id, COUNT(*) FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id AND t.production_year > 1950 GROUP BY mc.company_id ORDER BY mc.company_id`)
	pass := func() {
		for _, p := range plans {
			if _, err := f.eng.Run(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		pass()
	}
	runtime.ReadMemStats(&after)
	perPass := (after.TotalAlloc - before.TotalAlloc) / passes
	t.Logf("%d plans: %d bytes a warm pass", len(plans), perPass)
	if perPass > 625_000 {
		t.Errorf("%d plans: %d bytes a warm pass, want at most 625,000", len(plans), perPass)
	}
}
