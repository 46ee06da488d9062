package engine

import (
	"errors"
	"sync"
	"testing"

	"raal/internal/physical"
	"raal/internal/telemetry"
)

// relEqual compares two relations for exact equality: same row count,
// same column sets, same values in the same order.
func relEqual(a, b *Relation) bool {
	if a.N != b.N || len(a.Ints) != len(b.Ints) || len(a.Strs) != len(b.Strs) {
		return false
	}
	for name, col := range a.Ints {
		other, ok := b.Ints[name]
		if !ok || len(other) != len(col) {
			return false
		}
		for i := range col {
			if col[i] != other[i] {
				return false
			}
		}
	}
	for name, col := range a.Strs {
		other, ok := b.Strs[name]
		if !ok || len(other) != len(col) {
			return false
		}
		for i := range col {
			if col[i] != other[i] {
				return false
			}
		}
	}
	return true
}

// assertModesAgree runs p under both execution modes and requires
// bit-identical relations, per-node ActRows, and per-node Skew.
func assertModesAgree(t *testing.T, eng *Engine, p *physical.Plan) *Relation {
	t.Helper()
	eng.Mode = ExecMaterialized
	relM, errM := eng.Run(p)
	actM := make([]float64, len(p.Nodes))
	skewM := make([]float64, len(p.Nodes))
	for i, n := range p.Nodes {
		actM[i], skewM[i] = n.ActRows, n.Skew
	}

	eng.Mode = ExecStreaming
	relS, errS := eng.Run(p)
	defer func() { eng.Mode = ExecStreaming }()

	if (errM != nil) != (errS != nil) {
		t.Fatalf("mode error mismatch: materialized=%v streaming=%v", errM, errS)
	}
	if errM != nil {
		// Both must fail the same way: the row-limit guard, or the exact
		// same operator error (streaming surfaces operator errors at
		// iterator-build time, but the message is preserved).
		if errors.Is(errM, ErrRowLimit) && errors.Is(errS, ErrRowLimit) {
			return nil
		}
		if errM.Error() != errS.Error() {
			t.Fatalf("error mismatch: materialized=%v streaming=%v", errM, errS)
		}
		return nil
	}
	if !relEqual(relM, relS) {
		t.Fatalf("relations differ (%s):\nmaterialized: %v %v %v\nstreaming:    %v %v %v",
			p.Sig, relM, relM.Ints, relM.Strs, relS, relS.Ints, relS.Strs)
	}
	for i, n := range p.Nodes {
		if n.ActRows != actM[i] {
			t.Fatalf("node %d (%s) ActRows: streaming %v, materialized %v", i, n.Op, n.ActRows, actM[i])
		}
		if n.Skew != skewM[i] {
			t.Fatalf("node %d (%s) Skew: streaming %v, materialized %v", i, n.Op, n.Skew, skewM[i])
		}
	}
	return relS
}

func TestStreamingMatchesMaterializedQueries(t *testing.T) {
	f := newFixture(t)
	f.planner.MaxPlans = 12
	f.eng.BatchSize = 97 // off-power-of-two: exercise partial final chunks
	queries := []string{
		`SELECT COUNT(*) FROM title t WHERE t.production_year > 1990`,
		`SELECT COUNT(*), SUM(t.production_year), MIN(t.id), MAX(t.id), AVG(t.production_year) FROM title t`,
		`SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id`,
		`SELECT cn.country_code, COUNT(*) FROM company_name cn GROUP BY cn.country_code`,
		`SELECT COUNT(*) FROM title t WHERE t.title LIKE 'b%' AND t.production_year BETWEEN 1980 AND 2000`,
		`SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1, 3, 5)`,
		`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`,
		`SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
		 WHERE t.id = mc.movie_id AND cn.id = mc.company_id AND cn.country_code = 'de'`,
		`SELECT t.kind_id, mc.company_type_id, COUNT(*), SUM(mc.company_id)
		 FROM title t, movie_companies mc WHERE t.id = mc.movie_id
		 GROUP BY t.kind_id, mc.company_type_id ORDER BY t.kind_id`,
		`SELECT COUNT(*) FROM title t, movie_info_idx mii
		 WHERE t.id < mii.movie_id AND t.kind_id = 2 AND mii.info_type_id = 99 AND t.production_year > 2010`,
		`SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id DESC LIMIT 3`,
		`SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id LIMIT 0`,
	}
	for _, q := range queries {
		for _, p := range f.plans(t, q) {
			assertModesAgree(t, f.eng, p)
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
			assertModesAgree(t, f.eng, p)
		}
	}
}

func TestStreamingAllFilteredBatches(t *testing.T) {
	f := newFixture(t)
	// Tiny batches force many chunks, every one fully filtered out.
	f.eng.BatchSize = 7
	for _, p := range f.plans(t, `SELECT COUNT(*) FROM title t WHERE t.production_year > 99999`) {
		assertModesAgree(t, f.eng, p)
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
		assertModesAgree(t, f.eng, p)
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
			assertModesAgree(t, f.eng, p) // both modes must agree on ErrRowLimit
			f.eng.Mode = ExecStreaming
			if _, err := f.eng.Run(p); !errors.Is(err, ErrRowLimit) {
				t.Fatalf("expected ErrRowLimit, got %v", err)
			}
		}
	}
}

func TestStreamingLimitEarlyTermination(t *testing.T) {
	f := newFixture(t)
	f.eng.BatchSize = 8
	scan := &physical.Node{Op: physical.FileScan, Table: "title", Alias: "t", Columns: []string{"id", "kind_id"}}
	lim := &physical.Node{Op: physical.LocalLimit, LimitN: 10, Children: []*physical.Node{scan}}
	plan := &physical.Plan{Root: lim, Nodes: []*physical.Node{scan, lim}}

	rel, err := f.eng.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 10 {
		t.Fatalf("limit returned %d rows, want 10", rel.N)
	}
	tab, _ := f.db.Table("title")
	// The whole point of streaming limits: the scan stops after the limit
	// is satisfied instead of reading the full table.
	if scan.ActRows >= float64(tab.NumRows) {
		t.Fatalf("scan read the full table (%v rows) despite LIMIT 10", scan.ActRows)
	}
	if scan.ActRows < 10 || scan.ActRows > 16 {
		t.Fatalf("scan ActRows = %v, want 10..16 with batch size 8", scan.ActRows)
	}
	// Values must equal the table prefix.
	ids := tab.IntCol("id")
	for i := 0; i < 10; i++ {
		if rel.Ints["t.id"][i] != ids[i] {
			t.Fatalf("row %d: got %d want %d", i, rel.Ints["t.id"][i], ids[i])
		}
	}
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
	tab, _ := f.db.Table("title")
	rows := f.eng.instr.rows.With("FileScan").Value()
	if rows < uint64(tab.NumRows) {
		t.Fatalf("FileScan rows counter = %d, want >= %d", rows, tab.NumRows)
	}
	if f.eng.instr.batches.With("HashAggregate").Value() == 0 {
		t.Fatal("no aggregate batches counted")
	}
	if f.eng.instr.runs.Value() != 1 {
		t.Fatalf("runs counter = %d, want 1", f.eng.instr.runs.Value())
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
	want := make([]*Relation, len(queries))
	for i, q := range queries {
		want[i] = assertModesAgree(t, f.eng, f.plans(t, q)[0])
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
				if !relEqual(rel, want[i]) {
					errs <- errors.New("concurrent run diverged from sequential baseline")
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

// TestStreamingAllocsPerRowBounded holds the streaming path to well under
// one allocation per input row: slabs, hash tables and group states are
// per operator, not per row, so a join + grouped aggregate over ~94k
// scanned rows must stay under 1% mallocs per row whatever the join order
// or algorithm (measured 272–454 per run). A per-row allocation anywhere
// on the path is ≥ 100% and fails this by two orders of magnitude.
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

func TestPrefixSharesStorage(t *testing.T) {
	rel := NewRelation()
	rel.N = 5
	rel.Ints["x"] = []int64{1, 2, 3, 4, 5}
	rel.Strs["s"] = []string{"a", "b", "c", "d", "e"}
	p := rel.prefix(3)
	if p.N != 3 || len(p.Ints["x"]) != 3 || len(p.Strs["s"]) != 3 {
		t.Fatalf("prefix shape wrong: %v", p)
	}
	rel.Ints["x"][1] = 99
	if p.Ints["x"][1] != 99 {
		t.Fatal("prefix copied instead of sharing storage")
	}
}
