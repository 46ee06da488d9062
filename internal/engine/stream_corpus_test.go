// Property tests over the generated workload corpora, and a fuzzer over
// the whole front end. They live in the external test package so they can
// drive the generator the training pipeline uses (workload imports engine).
package engine_test

import (
	"cmp"
	"errors"
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
	db := datagen.IMDB(0.001, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		f.Fatal(err)
	}
	planner := physical.NewPlanner(est)
	eng := engine.New(db)
	eng.MaxRows = 20_000
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
