package engine_test

import (
	"testing"

	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
)

func TestBNLJMatchesBruteForce(t *testing.T) {
	f := newFixture(t)
	// Selective filters keep the quadratic join small.
	plans := f.plans(t, `SELECT COUNT(*) FROM title t, movie_info_idx mii
		WHERE t.id < mii.movie_id AND t.kind_id = 2 AND mii.info_type_id = 99 AND t.production_year > 2010`)
	if plans[0].CountOp(physical.BroadcastNestedLoopJoin) != 1 {
		t.Fatalf("expected BNLJ plan:\n%s", plans[0])
	}
	rel, err := f.eng.Run(plans[0])
	if err != nil {
		t.Fatal(err)
	}

	title, _ := f.db.Table("title")
	mii, _ := f.db.Table("movie_info_idx")
	var leftIDs []int64
	ids := title.IntCol("id")
	kinds := title.IntCol("kind_id")
	years := title.IntCol("production_year")
	for i := range ids {
		if kinds[i] == 2 && years[i] > 2010 {
			leftIDs = append(leftIDs, ids[i])
		}
	}
	var want int64
	mids := mii.IntCol("movie_id")
	itids := mii.IntCol("info_type_id")
	for j := range mids {
		if itids[j] != 99 {
			continue
		}
		for _, id := range leftIDs {
			if id < mids[j] {
				want++
			}
		}
	}
	if got := rel.Ints["agg0"][0]; got != want {
		t.Fatalf("BNLJ COUNT = %d, want %d", got, want)
	}
}

func TestSHJAgreesWithOtherJoins(t *testing.T) {
	f := newFixture(t)
	f.planner.MaxPlans = 12
	plans := f.plans(t, `SELECT COUNT(*) FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id AND mc.company_id < 300`)
	var shj *physical.Plan
	for _, p := range plans {
		if p.CountOp(physical.ShuffledHashJoin) == 1 {
			shj = p
		}
	}
	if shj == nil {
		t.Fatal("no SHJ plan")
	}
	a, err := f.eng.Run(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.eng.Run(shj)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ints["agg0"][0] != b.Ints["agg0"][0] {
		t.Fatalf("SHJ result %d != %d", b.Ints["agg0"][0], a.Ints["agg0"][0])
	}
}

func TestSortAggregateAgreesWithHash(t *testing.T) {
	f := newFixture(t)
	f.planner.MaxPlans = 12
	plans := f.plans(t, `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id`)
	var sa *physical.Plan
	for _, p := range plans {
		if p.CountOp(physical.SortAggregate) == 2 {
			sa = p
		}
	}
	if sa == nil {
		t.Fatal("no sort-aggregate plan")
	}
	a, err := f.eng.Run(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.eng.Run(sa)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != b.N {
		t.Fatalf("group counts differ: %d vs %d", a.N, b.N)
	}
	for i := 0; i < a.N; i++ {
		if a.Ints["t.kind_id"][i] != b.Ints["t.kind_id"][i] || a.Ints["agg1"][i] != b.Ints["agg1"][i] {
			t.Fatalf("row %d differs: %v/%v vs %v/%v", i,
				a.Ints["t.kind_id"][i], a.Ints["agg1"][i],
				b.Ints["t.kind_id"][i], b.Ints["agg1"][i])
		}
	}
}

func TestMultiColumnGroupBy(t *testing.T) {
	f := newFixture(t)
	plans := f.plans(t, `SELECT t.kind_id, mc.company_type_id, COUNT(*), SUM(mc.company_id)
		FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id
		GROUP BY t.kind_id, mc.company_type_id ORDER BY t.kind_id`)
	rel, err := f.eng.Run(plans[0])
	if err != nil {
		t.Fatal(err)
	}

	// Brute force the grouped counts and sums.
	title, _ := f.db.Table("title")
	mc, _ := f.db.Table("movie_companies")
	kindOf := map[int64]int64{}
	ids := title.IntCol("id")
	kinds := title.IntCol("kind_id")
	for i := range ids {
		kindOf[ids[i]] = kinds[i]
	}
	type key struct{ kind, ctype int64 }
	wantCnt := map[key]int64{}
	wantSum := map[key]int64{}
	mids := mc.IntCol("movie_id")
	ctypes := mc.IntCol("company_type_id")
	cids := mc.IntCol("company_id")
	for i := range mids {
		kind, ok := kindOf[mids[i]]
		if !ok {
			continue
		}
		k := key{kind, ctypes[i]}
		wantCnt[k]++
		wantSum[k] += cids[i]
	}
	if rel.N != len(wantCnt) {
		t.Fatalf("groups = %d, want %d", rel.N, len(wantCnt))
	}
	gk := rel.Ints["t.kind_id"]
	gc := rel.Ints["mc.company_type_id"]
	cnts := rel.Ints["agg2"]
	sums := rel.Ints["agg3"]
	for i := 0; i < rel.N; i++ {
		k := key{gk[i], gc[i]}
		if cnts[i] != wantCnt[k] || sums[i] != wantSum[k] {
			t.Fatalf("group %v: got %d/%d want %d/%d", k, cnts[i], sums[i], wantCnt[k], wantSum[k])
		}
	}
	// ORDER BY first group column must hold.
	for i := 1; i < rel.N; i++ {
		if gk[i] < gk[i-1] {
			t.Fatalf("not sorted by kind_id: %v", gk)
		}
	}
}

func TestExchangeSkewMeasured(t *testing.T) {
	f := newFixture(t)
	// movie_keyword.movie_id is zipf-distributed: hash partitioning by it
	// must show measurable skew.
	plans := f.plans(t, `SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id`)
	var smj *physical.Plan
	for _, p := range plans {
		if p.CountOp(physical.SortMergeJoin) == 1 {
			smj = p
		}
	}
	if smj == nil {
		t.Skip("no SMJ plan")
	}
	if _, err := f.eng.Run(smj); err != nil {
		t.Fatal(err)
	}
	var skews []float64
	for _, n := range smj.Nodes {
		if n.Op == physical.ExchangeHashPartition {
			skews = append(skews, n.Skew)
		}
	}
	if len(skews) < 2 {
		t.Fatalf("expected ≥2 measured exchanges, got %v", skews)
	}
	maxSkew := 0.0
	for _, s := range skews {
		if s < 1 {
			t.Fatalf("skew below 1: %v", skews)
		}
		if s > maxSkew {
			maxSkew = s
		}
	}
	// The zipf FK side must be visibly skewed.
	if maxSkew < 1.5 {
		t.Fatalf("zipf key skew not detected: %v", skews)
	}
}

// exchangeSkew runs a hash exchange keyed on a.id over the given ids.
func exchangeSkew(t *testing.T, ids []int64) float64 {
	t.Helper()
	db := oneTable(map[string][]int64{"id": ids}, nil)
	scan := &physical.Node{Op: physical.FileScan, Table: "a", Alias: "a", Columns: []string{"id"}}
	ex := &physical.Node{Op: physical.ExchangeHashPartition, LeftKey: &logical.BoundCol{Alias: "a", Name: "id"}}
	checkPlan(t, engine.New(db), db, chain(scan, ex))
	return ex.Skew
}

func TestMeasureSkewUniformKey(t *testing.T) {
	ids := make([]int64, 24000)
	for i := range ids {
		ids[i] = int64(i) // serial: perfectly spread
	}
	if s := exchangeSkew(t, ids); s < 0.9 || s > 1.2 {
		t.Fatalf("uniform key skew = %v, want ≈1", s)
	}
}

func TestMeasureSkewHotKey(t *testing.T) {
	ids := make([]int64, 1000)
	for i := range ids {
		ids[i] = 7 // single hot key: everything lands in one of 24 partitions
	}
	if s := exchangeSkew(t, ids); s != 24 {
		t.Fatalf("hot key skew = %v, want 24", s)
	}
}
