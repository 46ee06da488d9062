package workload

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/logical"
	"raal/internal/sql"
)

func TestIMDBGeneratorProducesValidSQL(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	g, err := NewIMDBGenerator(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	binder := logical.NewBinder(db)
	bound := 0
	for _, qs := range g.Generate(200) {
		stmt, err := sql.Parse(qs)
		if err != nil {
			t.Fatalf("generated unparsable SQL %q: %v", qs, err)
		}
		if _, err := binder.Bind(stmt); err != nil {
			t.Fatalf("generated unbindable SQL %q: %v", qs, err)
		}
		bound++
	}
	if bound != 200 {
		t.Fatalf("bound %d of 200", bound)
	}
}

func TestTPCHGeneratorProducesValidSQL(t *testing.T) {
	db := datagen.TPCH(0.05, 1)
	g, err := NewTPCHGenerator(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	binder := logical.NewBinder(db)
	for _, qs := range g.Generate(150) {
		stmt, err := sql.Parse(qs)
		if err != nil {
			t.Fatalf("generated unparsable SQL %q: %v", qs, err)
		}
		if _, err := binder.Bind(stmt); err != nil {
			t.Fatalf("generated unbindable SQL %q: %v", qs, err)
		}
	}
}

func TestGeneratorJoinCountsVary(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	g, _ := NewIMDBGenerator(db, 3)
	joinCounts := map[int]int{}
	for _, qs := range g.Generate(300) {
		joinCounts[strings.Count(qs, ",")]++ // FROM commas ≈ joins
	}
	if len(joinCounts) < 4 {
		t.Fatalf("join count diversity too low: %v", joinCounts)
	}
	if joinCounts[0] == 0 {
		t.Fatal("no single-table queries generated")
	}
}

func TestGeneratorEmitsStringPredicates(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	g, _ := NewIMDBGenerator(db, 4)
	g.StringProb = 0.9
	sawString := false
	for _, qs := range g.Generate(100) {
		if strings.Contains(qs, "'") {
			sawString = true
			break
		}
	}
	if !sawString {
		t.Fatal("no string-attribute predicates generated")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	g1, _ := NewIMDBGenerator(db, 7)
	g2, _ := NewIMDBGenerator(db, 7)
	a := g1.Generate(20)
	b := g2.Generate(20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestRandomResourcesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if err := RandomResources(rng).Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func collectSmall(t *testing.T) *Dataset {
	t.Helper()
	db := datagen.IMDB(0.02, 1)
	g, err := NewIMDBGenerator(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCollectConfig()
	cfg.NumQueries = 30
	cfg.ResStatesPerPlan = 2
	ds, err := Collect(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCollectProducesRecords(t *testing.T) {
	ds := collectSmall(t)
	if len(ds.Records) < 30 {
		t.Fatalf("too few records: %d", len(ds.Records))
	}
	if len(ds.Plans) < 30 {
		t.Fatalf("too few plans: %d", len(ds.Plans))
	}
	for _, r := range ds.Records {
		if r.CostSec <= 0 {
			t.Fatalf("non-positive cost %v", r.CostSec)
		}
		if err := r.Res.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollectCostsVaryWithResources(t *testing.T) {
	// The same plan priced under different resources must differ in cost
	// for at least some plans — that's the resource signal RAAL learns.
	ds := collectSmall(t)
	byPlan := map[int][]float64{}
	for i, r := range ds.Records {
		_ = i
		key := 0
		for j, p := range ds.Plans {
			if p == r.Plan {
				key = j
				break
			}
		}
		byPlan[key] = append(byPlan[key], r.CostSec)
	}
	varied := 0
	for _, costs := range byPlan {
		if len(costs) >= 2 && costs[0] != costs[1] {
			varied++
		}
	}
	if varied == 0 {
		t.Fatal("no plan shows resource-dependent cost")
	}
}

func TestCollectFixedResources(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	g, _ := NewIMDBGenerator(db, 1)
	cfg := DefaultCollectConfig()
	cfg.NumQueries = 10
	fixed := RandomResources(rand.New(rand.NewSource(3)))
	cfg.FixedRes = &fixed
	ds, err := Collect(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if r.Res != fixed {
			t.Fatal("fixed-resource collection produced varying resources")
		}
	}
	// Exactly one record per plan in fixed mode.
	if len(ds.Records) != len(ds.Plans) {
		t.Fatalf("records %d != plans %d", len(ds.Records), len(ds.Plans))
	}
}

func TestEncodeDataset(t *testing.T) {
	ds := collectSmall(t)
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := ds.Encode(enc)
	if len(samples) != len(ds.Records) {
		t.Fatalf("sample count %d != record count %d", len(samples), len(ds.Records))
	}
	plans := 0
	for i, s := range samples {
		r := ds.Records[i]
		if s.CostSec != r.CostSec {
			t.Fatal("label not carried into sample")
		}
		// Each sample holds what encoding its record alone gives, element
		// for element, and shares its plan part with the records before
		// it of the same plan.
		want := enc.EncodePlan(r.Plan, r.Res)
		if !slices.Equal(s.Nodes.Data, want.Nodes.Data) || !slices.Equal(s.Mask, want.Mask) ||
			!slices.EqualFunc(s.Children, want.Children, slices.Equal[[]bool]) ||
			!slices.Equal(s.Resource, want.Resource) || !slices.Equal(s.Stats, want.Stats) {
			t.Fatalf("sample %d differs from its record's own encoding", i)
		}
		if i > 0 && r.Plan == ds.Records[i-1].Plan {
			if !s.SamePlan(samples[i-1]) {
				t.Fatalf("samples %d and %d of one plan do not share its encoding", i-1, i)
			}
		} else {
			plans++
		}
	}
	if plans == len(samples) {
		t.Fatal("no plan has two records in a row; the corpus does not exercise sharing")
	}
}

func TestSplit(t *testing.T) {
	ds := collectSmall(t)
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := ds.Encode(enc)
	train, test := Split(samples, 0.8, 1)
	if len(train)+len(test) != len(samples) {
		t.Fatal("split loses samples")
	}
	if len(train) < len(test) {
		t.Fatalf("80/20 split wrong: %d/%d", len(train), len(test))
	}
	// Deterministic
	train2, _ := Split(samples, 0.8, 1)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestCollectErrors(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	g, _ := NewIMDBGenerator(db, 1)
	cfg := DefaultCollectConfig()
	cfg.NumQueries = 0
	if _, err := Collect(db, g, cfg); err == nil {
		t.Fatal("zero queries should error")
	}
}
