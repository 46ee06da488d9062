package engine_test

import (
	"testing"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/engine"
	"raal/internal/physical"
)

type fixture struct {
	db      *catalog.Database
	eng     *engine.Engine
	planner *physical.Planner
}

// newFixture runs on the edge queries' database.
func newFixture(t *testing.T) *fixture { return newFixtureAt(t, 0.03) }

func newFixtureAt(t *testing.T, scale float64) *fixture {
	t.Helper()
	db := datagen.IMDB(scale, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, eng: engine.New(db), planner: physical.NewPlanner(est)}
}

// plans returns the candidate plans of query, up to the planner's MaxPlans.
func (f *fixture) plans(t *testing.T, query string) []*physical.Plan {
	t.Helper()
	plans, ok, err := planQuery(f.db, f.planner, query, f.planner.MaxPlans)
	if err != nil || !ok {
		t.Fatalf("%q does not bind or plan: %v", query, err)
	}
	return plans
}

// runAll executes every candidate plan and checks they agree on the result.
func (f *fixture) runAll(t *testing.T, query string) *engine.Relation {
	t.Helper()
	var first *engine.Relation
	for i, p := range f.plans(t, query) {
		rel, err := f.eng.Run(p)
		if err != nil {
			t.Fatalf("plan %d (%s): %v", i, p.Sig, err)
		}
		if first == nil {
			first = rel
		} else if d := diffRelations(first, rel); d != "" {
			t.Fatalf("plan %d (%s) disagrees with plan 0: %s", i, p.Sig, d)
		}
	}
	return first
}

func TestCountSingleTableMatchesBruteForce(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500`)
	mk, _ := f.db.Table("movie_keyword")
	want := int64(0)
	for _, v := range mk.IntCol("keyword_id") {
		if v < 500 {
			want++
		}
	}
	if got := rel.Ints["agg0"][0]; got != want {
		t.Fatalf("COUNT = %d, want %d", got, want)
	}
}

func TestTwoTableJoinMatchesBruteForce(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT COUNT(*) FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id AND mc.company_id < 200 AND mc.company_type_id > 1`)

	title, _ := f.db.Table("title")
	mc, _ := f.db.Table("movie_companies")
	ids := map[int64]int{}
	for _, id := range title.IntCol("id") {
		ids[id]++
	}
	var want int64
	mids := mc.IntCol("movie_id")
	cids := mc.IntCol("company_id")
	ctids := mc.IntCol("company_type_id")
	for i := range mids {
		if cids[i] < 200 && ctids[i] > 1 {
			want += int64(ids[mids[i]])
		}
	}
	if got := rel.Ints["agg0"][0]; got != want {
		t.Fatalf("join COUNT = %d, want %d", got, want)
	}
}

func TestThreeTableJoinPlansAgree(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id
		AND mc.company_id = 5 AND mk.keyword_id < 100`)
	if rel.N != 1 {
		t.Fatalf("expected single aggregate row, got %d", rel.N)
	}
}

func TestSumAvgMinMax(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT SUM(t.production_year), AVG(t.production_year), MIN(t.production_year), MAX(t.production_year), COUNT(*)
		FROM title t WHERE t.kind_id < 3`)

	title, _ := f.db.Table("title")
	years := title.IntCol("production_year")
	kinds := title.IntCol("kind_id")
	var sum, cnt int64
	min, max := int64(1<<62), int64(-1<<62)
	for i := range years {
		if kinds[i] < 3 {
			sum += years[i]
			cnt++
			if years[i] < min {
				min = years[i]
			}
			if years[i] > max {
				max = years[i]
			}
		}
	}
	if rel.Ints["agg0"][0] != sum {
		t.Fatalf("SUM = %d want %d", rel.Ints["agg0"][0], sum)
	}
	if rel.Ints["agg1"][0] != sum/cnt {
		t.Fatalf("AVG = %d want %d", rel.Ints["agg1"][0], sum/cnt)
	}
	if rel.Ints["agg2"][0] != min || rel.Ints["agg3"][0] != max {
		t.Fatalf("MIN/MAX = %d/%d want %d/%d", rel.Ints["agg2"][0], rel.Ints["agg3"][0], min, max)
	}
	if rel.Ints["agg4"][0] != cnt {
		t.Fatalf("COUNT = %d want %d", rel.Ints["agg4"][0], cnt)
	}
}

func TestGroupByOrderByLimit(t *testing.T) {
	f := newFixture(t)
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id DESC LIMIT 3`)
	rel, err := f.eng.Run(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if rel.N > 3 {
		t.Fatalf("LIMIT 3 returned %d rows", rel.N)
	}
	keys := rel.Ints["t.kind_id"]
	for i := 1; i < len(keys); i++ {
		if keys[i] > keys[i-1] {
			t.Fatalf("not sorted DESC: %v", keys)
		}
	}
	// Verify the count of the top group against brute force.
	title, _ := f.db.Table("title")
	counts := map[int64]int64{}
	for _, k := range title.IntCol("kind_id") {
		counts[k]++
	}
	if got := rel.Ints["agg1"][0]; got != counts[keys[0]] {
		t.Fatalf("group count %d want %d", got, counts[keys[0]])
	}
}

func TestStringPredicates(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT COUNT(*) FROM company_name cn
		WHERE cn.country_code = 'cc_0001' AND cn.name LIKE 'company_00%'`)
	cn, _ := f.db.Table("company_name")
	codes := cn.StrCol("country_code")
	names := cn.StrCol("name")
	var want int64
	for i := range codes {
		if codes[i] == "cc_0001" && len(names[i]) >= 10 && names[i][:10] == "company_00" {
			want++
		}
	}
	if got := rel.Ints["agg0"][0]; got != want {
		t.Fatalf("string COUNT = %d, want %d", got, want)
	}
}

func TestInBetweenPredicates(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT COUNT(*) FROM title t
		WHERE t.kind_id IN (1, 3) AND t.production_year BETWEEN 1990 AND 2000`)
	title, _ := f.db.Table("title")
	kinds := title.IntCol("kind_id")
	years := title.IntCol("production_year")
	var want int64
	for i := range kinds {
		if (kinds[i] == 1 || kinds[i] == 3) && years[i] >= 1990 && years[i] <= 2000 {
			want++
		}
	}
	if got := rel.Ints["agg0"][0]; got != want {
		t.Fatalf("COUNT = %d, want %d", got, want)
	}
}

func TestActualRowsRecorded(t *testing.T) {
	f := newFixture(t)
	plans := f.plans(t, `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	p := plans[0]
	if _, err := f.eng.Run(p); err != nil {
		t.Fatal(err)
	}
	title, _ := f.db.Table("title")
	for _, n := range p.Nodes {
		switch n.Op {
		case physical.FileScan:
			if n.Alias == "t" && n.ActRows != float64(title.NumRows) {
				t.Fatalf("scan of t ActRows = %v, want %d", n.ActRows, title.NumRows)
			}
		case physical.HashAggregate:
			if n.Final && n.ActRows != 1 {
				t.Fatalf("final aggregate ActRows = %v", n.ActRows)
			}
		}
		if n.ActRows < 0 {
			t.Fatalf("node %s has negative ActRows", n.Op)
		}
	}
}

func TestEmptyResultGroupBy(t *testing.T) {
	f := newFixture(t)
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*) FROM title t WHERE t.production_year > 99999 GROUP BY t.kind_id ORDER BY t.kind_id`)
	rel, err := f.eng.Run(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 0 {
		t.Fatalf("expected empty result, got %d rows", rel.N)
	}
}

func TestGlobalCountOfEmptyInputIsZeroRow(t *testing.T) {
	f := newFixture(t)
	rel := f.runAll(t, `SELECT COUNT(*) FROM title t WHERE t.production_year > 99999`)
	if rel.N != 1 || rel.Ints["agg0"][0] != 0 {
		t.Fatalf("COUNT over empty input: %v rows, %v", rel.N, rel.Ints["agg0"])
	}
}

func TestTPCHQueryExecution(t *testing.T) {
	db := datagen.TPCH(0.05, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(db)
	plans, ok, err := planQuery(db, physical.NewPlanner(est), `SELECT COUNT(*), SUM(l.l_extendedprice)
		FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND o.o_totalprice > 250000 AND l.l_quantity < 10`, 6)
	if err != nil || !ok {
		t.Fatalf("does not plan: %v", err)
	}

	// brute force
	li, _ := db.Table("lineitem")
	ord, _ := db.Table("orders")
	bigOrders := map[int64]bool{}
	oks := ord.IntCol("o_orderkey")
	prices := ord.IntCol("o_totalprice")
	for i := range oks {
		if prices[i] > 250000 {
			bigOrders[oks[i]] = true
		}
	}
	var wantCnt, wantSum int64
	loks := li.IntCol("l_orderkey")
	qtys := li.IntCol("l_quantity")
	exts := li.IntCol("l_extendedprice")
	for i := range loks {
		if qtys[i] < 10 && bigOrders[loks[i]] {
			wantCnt++
			wantSum += exts[i]
		}
	}
	for _, p := range plans {
		rel, err := eng.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Sig, err)
		}
		if rel.Ints["agg0"][0] != wantCnt || rel.Ints["agg1"][0] != wantSum {
			t.Fatalf("%s: got %d/%d want %d/%d", p.Sig,
				rel.Ints["agg0"][0], rel.Ints["agg1"][0], wantCnt, wantSum)
		}
	}
}
