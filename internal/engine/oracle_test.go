package engine_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"raal/internal/catalog"
	"raal/internal/engine"
	"raal/internal/physical"
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
	sp := telemetry.StartSpan("engine-run")
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*) FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id GROUP BY t.kind_id`)
	if _, err := f.eng.RunTraced(plans[0], sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages()) == 0 {
		t.Fatal("no span stages recorded")
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
