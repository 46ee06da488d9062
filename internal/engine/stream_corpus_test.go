// Property tests over the generated workload corpora, and a fuzzer over
// the whole front end. They live in the external test package so they can
// drive the generator the training pipeline uses (workload imports engine).
package engine_test

import (
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/engine"
	"raal/internal/physical"
)

// TestStreamingMatchesMaterializedCorpus holds every one of the first
// three candidate plans of every generated query to the interpreter,
// which materializes every operator's output: relation, ActRows, Skew and
// row-limit failures alike.
func TestStreamingMatchesMaterializedCorpus(t *testing.T) {
	for _, name := range []string{"imdb", "tpch"} {
		t.Run(name, func(t *testing.T) {
			db := corpusDB(name)
			eng := engine.New(db)
			eng.BatchSize = 256 // small chunks: exercise batch boundaries
			compared := 0
			for _, q := range corpusPlans(t, name, db, 3) {
				eng.MaxRows = q.maxRows
				for _, p := range q.plans {
					if checkPlan(t, eng, db, p) != nil {
						compared++
					}
				}
			}
			if compared < 20 {
				t.Fatalf("only %d plans compared; corpus too thin to prove equivalence", compared)
			}
		})
	}
}

// TestStreamingCandidatePlansAgree is the metamorphic test of the planner:
// every candidate plan of a query — join algorithm, exchange placement,
// pushdown and aggregation strategy — must return the interpreter's answer
// for the query (on its first candidate the engine completes): the same
// columns and row multiset. Candidates that trip the row limit are
// counted, not compared.
func TestStreamingCandidatePlansAgree(t *testing.T) {
	seen := map[physical.OpType]bool{}
	multi, limited := 0, 0
	check := func(t *testing.T, db *catalog.Database, qs []plannedQuery) {
		eng := engine.New(db)
		for _, q := range qs {
			eng.MaxRows = q.maxRows
			var want *engine.Relation
			compared := 0
			for _, p := range q.plans {
				rel, err := eng.Run(p)
				if errors.Is(err, engine.ErrRowLimit) {
					limited++
					continue
				}
				if err != nil {
					continue // malformed: the per-plan tests hold its error class
				}
				if want == nil {
					if want, _, _, err = interpret(db, p, cmp.Or(q.maxRows, 5_000_000)); err != nil {
						t.Fatalf("%q (%s): the engine ran it, the interpreter did not: %v", q.sql, p.Sig, err)
					}
				}
				if d := diffRelations(want, rel); d != "" {
					t.Fatalf("%q (%s) disagrees with the interpreter: %s", q.sql, p.Sig, d)
				}
				for _, n := range p.Nodes {
					seen[n.Op] = true
				}
				compared++
			}
			if compared >= 2 {
				multi++
			}
		}
	}
	for _, name := range []string{"imdb", "tpch"} {
		t.Run(name, func(t *testing.T) {
			db := corpusDB(name)
			check(t, db, corpusPlans(t, name, db, 12))
		})
	}
	t.Run("edge", func(t *testing.T) {
		db := edgeDB()
		check(t, db, edgePlans(t, db, 12))
	})
	t.Logf("%d queries compared on two or more candidates; %d candidates hit the row limit", multi, limited)
	if multi < 20 {
		t.Fatalf("only %d queries had two or more candidates compared", multi)
	}
	for _, op := range []physical.OpType{physical.SortMergeJoin, physical.BroadcastHashJoin,
		physical.ShuffledHashJoin, physical.BroadcastNestedLoopJoin, physical.SortAggregate, physical.Filter} {
		if !seen[op] {
			t.Errorf("no compared candidate used %s", op)
		}
	}
}

// FuzzPipeline feeds arbitrary text through parse, bind, plan and execute
// on a tiny catalog: every input must end in an error from the front end,
// or run each of its first three candidate plans to the interpreter's
// answer (or to the same class of error). Nothing may panic or hang.
func FuzzPipeline(f *testing.F) {
	for _, q := range edgeQueries {
		f.Add(q.sql)
	}
	for _, q := range moreEdgeQueries {
		f.Add(q)
	}
	db, planner, eng := tinyPipeline(f)
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 2048 {
			t.Skip() // the property is "no panic", not throughput on huge inputs
		}
		plans, ok, err := planQuery(db, planner, q, 3)
		if err != nil || !ok {
			return
		}
		for _, p := range plans {
			if _, diff, _ := diffEngine(eng, db, p); diff != "" {
				t.Fatalf("%q (%s): %s", q, p.Sig, diff)
			}
		}
	})
}

// tinyPipeline is FuzzPipeline's catalog, planner and engine: IMDB at
// scale 0.001 (25 titles) under a 20,000-row limit.
func tinyPipeline(t testing.TB) (*catalog.Database, *physical.Planner, *engine.Engine) {
	db := datagen.IMDB(0.001, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(db)
	eng.MaxRows = 20_000
	return db, physical.NewPlanner(est), eng
}

// TestStreamingFuzzSeedsTrip checks that FuzzPipeline's star_join_trips_*
// seeds, star joins over title.id, trip the row limit on every candidate
// plan, engine and interpreter alike. In the first_batch and grouped
// seeds the topmost join's first probe batch carries it past the limit,
// so it emits no row. In the mid_stream seed it emits rows on some plan
// before a later probe batch carries it past; a sort-merge join sorts the
// heaviest title first and trips at once.
func TestStreamingFuzzSeedsTrip(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzPipeline/star_join_trips_*")
	if err != nil || len(files) < 3 {
		t.Fatalf("want at least 3 star_join_trips seeds, found %v (%v)", files, err)
	}
	db, planner, eng := tinyPipeline(t)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSpace(strings.SplitN(string(data), "\n", 2)[1])
		q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		plans, ok, err := planQuery(db, planner, q, 3)
		if err != nil || !ok {
			t.Fatalf("%s does not plan: %v", file, err)
		}
		midStream, emittedFirst := strings.HasSuffix(file, "mid_stream"), false
		for _, p := range plans {
			if _, diff, err := diffEngine(eng, db, p); diff != "" || !errors.Is(err, engine.ErrRowLimit) {
				t.Fatalf("%s (%s): want ErrRowLimit from both, got %v (%s)", file, p.Sig, err, diff)
			}
			var top *physical.Node // nodes are children first: the last join is the topmost
			for _, n := range p.Nodes {
				if n.LeftKey != nil && n.Op != physical.ExchangeHashPartition {
					top = n
				}
			}
			if top.ActRows > 0 && !midStream {
				t.Errorf("%s (%s): the topmost join emitted %v rows before tripping", file, p.Sig, top.ActRows)
			}
			emittedFirst = emittedFirst || top.ActRows > 0
		}
		if midStream && !emittedFirst {
			t.Errorf("%s: the topmost join tripped on its first probe batch on every plan", file)
		}
	}
}
