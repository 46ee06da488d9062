package engine_test

import (
	"slices"
	"testing"

	"raal/internal/catalog"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
)

// oneTable is a database holding the single table "a" with the given
// columns.
func oneTable(ints map[string][]int64, strs map[string][]string) *catalog.Database {
	tab := &catalog.Table{Schema: &catalog.Schema{Name: "a"}, Ints: ints, Strs: strs}
	for name, col := range ints {
		tab.NumRows = len(col)
		tab.Schema.Columns = append(tab.Schema.Columns, catalog.Column{Name: name, Type: catalog.Int64})
	}
	for name, col := range strs {
		tab.NumRows = len(col)
		tab.Schema.Columns = append(tab.Schema.Columns, catalog.Column{Name: name, Type: catalog.String})
	}
	return &catalog.Database{Name: "one", Tables: map[string]*catalog.Table{"a": tab}}
}

// sortA runs FileScan a(cols) → Sort on a.key in 3-row batches.
func sortA(t *testing.T, db *catalog.Database, cols []string, key string, desc bool) (*engine.Relation, error) {
	t.Helper()
	scan := &physical.Node{Op: physical.FileScan, Table: "a", Alias: "a", Columns: cols}
	sort := &physical.Node{Op: physical.Sort, SortCol: &logical.BoundCol{Alias: "a", Name: key}, SortDesc: desc}
	eng := engine.New(db)
	eng.BatchSize = 3
	rel, diff, err := diffEngine(eng, db, chain(scan, sort))
	if diff != "" {
		t.Fatal(diff)
	}
	return rel, err
}

func TestSortRelationStable(t *testing.T) {
	// Equal keys must preserve input order (stable sort), which keeps
	// engine output deterministic across plans.
	db := oneTable(map[string][]int64{"k": {2, 1, 2, 1}, "v": {100, 200, 300, 400}}, nil)
	for _, tc := range []struct {
		desc bool
		want []int64
	}{{false, []int64{200, 400, 100, 300}}, {true, []int64{100, 300, 200, 400}}} {
		rel, err := sortA(t, db, []string{"k", "v"}, "k", tc.desc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rel.Ints["a.v"], tc.want) {
			t.Fatalf("desc=%v: unstable sort: %v", tc.desc, rel.Ints["a.v"])
		}
	}
}

func TestSortRelationStringKey(t *testing.T) {
	db := oneTable(nil, map[string][]string{"s": {"m", "a", "z"}})
	rel, err := sortA(t, db, []string{"s"}, "s", false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rel.Strs["a.s"], []string{"a", "m", "z"}) {
		t.Fatalf("string sort wrong: %v", rel.Strs["a.s"])
	}
}

func TestSortRelationMissingColumn(t *testing.T) {
	db := oneTable(map[string][]int64{"x": {1}}, nil)
	if _, err := sortA(t, db, []string{"x"}, "ghost", false); err == nil {
		t.Fatal("sorting a missing column should error")
	}
}

func TestRelationProjectMissingColumn(t *testing.T) {
	db := oneTable(map[string][]int64{"x": {1}}, nil)
	scan := &physical.Node{Op: physical.FileScan, Table: "a", Alias: "a", Columns: []string{"x"}}
	proj := &physical.Node{Op: physical.Project, Columns: []string{"a.x", "a.ghost"}}
	if _, diff, err := diffEngine(engine.New(db), db, chain(scan, proj)); diff != "" || err == nil {
		t.Fatalf("projecting a missing column should error (%s)", diff)
	}
}

// TestGroupKeysStayDistinct groups by two string columns whose values,
// joined with a NUL separator, spell the same bytes: ("a\x00sb", "") and
// ("a", "b\x00s") are still two groups.
func TestGroupKeysStayDistinct(t *testing.T) {
	db := oneTable(nil, map[string][]string{"x": {"a\x00sb", "a"}, "y": {"", "b\x00s"}})
	gb := []logical.BoundCol{{Alias: "a", Name: "x"}, {Alias: "a", Name: "y"}}
	aggs := []logical.BoundAgg{{Agg: sql.AggCount, Star: true}}
	plan := chain(&physical.Node{Op: physical.FileScan, Table: "a", Alias: "a", Columns: []string{"x", "y"}},
		&physical.Node{Op: physical.HashAggregate, GroupBy: gb, Aggs: aggs},
		&physical.Node{Op: physical.HashAggregate, GroupBy: gb, Aggs: aggs, Final: true})
	if rel := checkPlan(t, engine.New(db), db, plan); rel.N != 2 {
		t.Fatalf("%d groups, want 2", rel.N)
	}
}

func TestColNamesSorted(t *testing.T) {
	rel := engine.NewRelation()
	rel.Ints["b.z"] = nil
	rel.Strs["a.a"] = nil
	rel.Ints["a.m"] = nil
	if names := rel.ColNames(); !slices.IsSorted(names) {
		t.Fatalf("not sorted: %v", names)
	}
}
