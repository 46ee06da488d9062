package engine_test

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/workload"
)

// The digests below were computed once, at the commit before the
// materialized executor was deleted, and are frozen. They pin what the
// engine returns across commits: every relation (column names, values in
// row order), every node's ActRows and Skew, and the class of every
// error. The other engine tests compare the engine with a reference in
// the same binary; this one compares it with its own past.

// goldenEngineDigests is keyed by query set. Each set must give its digest
// at every batch size: chunking is not allowed to change a result.
var goldenEngineDigests = map[string]uint64{
	"edge": 0xe6ddb4d62e66c604,
	"imdb": 0xbb9017134df512c6,
	"tpch": 0xa1d9c21f515cdc71,
}

// edgeQuery is one hand-written query run on the edge fixture (IMDB at
// scale 0.03, seed 1). maxRows 0 keeps the engine's default row limit.
type edgeQuery struct {
	sql     string
	maxRows int
}

// edgeQueries are the engine's hand-written cases: every aggregate and
// predicate kind, string and composite group keys, nested loop joins,
// empty inputs and empty build sides, ORDER BY with and without LIMIT
// (LIMIT 0 included), row-limit trips, and operator errors.
var edgeQueries = []edgeQuery{
	{sql: `SELECT COUNT(*) FROM title t WHERE t.production_year > 1990`},
	{sql: `SELECT COUNT(*), SUM(t.production_year), MIN(t.id), MAX(t.id), AVG(t.production_year) FROM title t`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id`},
	{sql: `SELECT COUNT(*) FROM company_name cn GROUP BY cn.country_code`},
	{sql: `SELECT COUNT(cn.name) FROM company_name cn GROUP BY cn.country_code ORDER BY cn.country_code DESC`},
	{sql: `SELECT COUNT(*) FROM title t WHERE t.title LIKE 'b%' AND t.production_year BETWEEN 1980 AND 2000`},
	{sql: `SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1, 3, 5)`},
	{sql: `SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1, 3) AND t.production_year BETWEEN 1990 AND 2000`},
	{sql: `SELECT COUNT(*) FROM company_name cn WHERE cn.country_code = 'cc_0001' AND cn.name LIKE 'company_00%'`},
	{sql: `SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500`},
	{sql: `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`},
	{sql: `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 300`},
	{sql: `SELECT COUNT(*) FROM title t, movie_companies mc
		WHERE t.id = mc.movie_id AND mc.company_id < 200 AND mc.company_type_id > 1`},
	{sql: `SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id`},
	{sql: `SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
		WHERE t.id = mc.movie_id AND cn.id = mc.company_id AND cn.country_code = 'de'`},
	{sql: `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mc.company_id = 5 AND mk.keyword_id < 100`},
	{sql: `SELECT t.kind_id, mc.company_type_id, COUNT(*), SUM(mc.company_id)
		FROM title t, movie_companies mc WHERE t.id = mc.movie_id
		GROUP BY t.kind_id, mc.company_type_id ORDER BY t.kind_id`},
	{sql: `SELECT COUNT(*) FROM title t, movie_info_idx mii
		WHERE t.id < mii.movie_id AND t.kind_id = 2 AND mii.info_type_id = 99 AND t.production_year > 2010`},
	{sql: `SELECT SUM(t.production_year), AVG(t.production_year), MIN(t.production_year), MAX(t.production_year), COUNT(*)
		FROM title t WHERE t.kind_id < 3`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id DESC LIMIT 3`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id LIMIT 0`},
	{sql: `SELECT COUNT(*) FROM title t WHERE t.production_year > 99999`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t WHERE t.production_year > 99999 GROUP BY t.kind_id`},
	{sql: `SELECT COUNT(*), MIN(t.id) FROM title t WHERE t.production_year > 99999`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t WHERE t.production_year > 99999
		GROUP BY t.kind_id ORDER BY t.kind_id LIMIT 5`},
	{sql: `SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
		WHERE t.id = mc.movie_id AND cn.id = mc.company_id AND cn.country_code = 'zz-nowhere'`},
	{sql: `SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id`, maxRows: 50},
	{sql: `SELECT t.production_year, COUNT(*) FROM title t GROUP BY t.production_year`, maxRows: 50},
	{sql: `SELECT MIN(cn.name) FROM company_name cn`},
	{sql: `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.production_year`},
}

// plannedQuery is one query with its candidate plans and the row limit
// to run them under.
type plannedQuery struct {
	sql     string
	maxRows int
	plans   []*physical.Plan
}

// planQuery parses, binds and enumerates qs, keeping at most maxPlans
// candidates. ok is false when the query does not bind or plan.
func planQuery(db *catalog.Database, planner *physical.Planner, qs string, maxPlans int) ([]*physical.Plan, bool, error) {
	stmt, err := sql.Parse(qs)
	if err != nil {
		return nil, false, err
	}
	bound, err := logical.NewBinder(db).Bind(stmt)
	if err != nil {
		return nil, false, nil
	}
	planner.MaxPlans = maxPlans
	plans, err := planner.Enumerate(bound)
	if err != nil {
		return nil, false, nil
	}
	if len(plans) > maxPlans {
		plans = plans[:maxPlans]
	}
	return plans, true, nil
}

// edgeDB is the database the edge queries run on.
func edgeDB() *catalog.Database { return datagen.IMDB(0.03, 1) }

// edgePlans plans every edge query with up to maxPlans candidates.
func edgePlans(t testing.TB, db *catalog.Database, maxPlans int) []plannedQuery {
	t.Helper()
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	planner := physical.NewPlanner(est)
	var out []plannedQuery
	for _, q := range edgeQueries {
		plans, ok, err := planQuery(db, planner, q.sql, maxPlans)
		if err != nil || !ok {
			t.Fatalf("edge query %q does not plan: %v", q.sql, err)
		}
		out = append(out, plannedQuery{sql: q.sql, maxRows: q.maxRows, plans: plans})
	}
	return out
}

// corpusDB returns the database of a generated corpus ("imdb" or "tpch").
func corpusDB(name string) *catalog.Database {
	if name == "tpch" {
		return datagen.TPCH(0.05, 3)
	}
	return datagen.IMDB(0.02, 3)
}

// corpusPlans plans the first 40 queries the named workload generator
// draws from seed 11, with up to maxPlans candidates each, under a
// 200,000-row limit. Queries that do not bind or plan are skipped, as
// workload collection skips them.
func corpusPlans(t testing.TB, name string, db *catalog.Database, maxPlans int) []plannedQuery {
	t.Helper()
	mk := workload.NewIMDBGenerator
	if name == "tpch" {
		mk = workload.NewTPCHGenerator
	}
	gen, err := mk(db, 11)
	if err != nil {
		t.Fatal(err)
	}
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	planner := physical.NewPlanner(est)
	var out []plannedQuery
	for qi := 0; qi < 40; qi++ {
		qs := gen.GenerateOne()
		plans, ok, err := planQuery(db, planner, qs, maxPlans)
		if err != nil {
			t.Fatalf("generated invalid SQL %q: %v", qs, err)
		}
		if ok {
			out = append(out, plannedQuery{sql: qs, maxRows: 200_000, plans: plans})
		}
	}
	return out
}

// digestRun folds one run into h. A failed run contributes only its
// error class: how far the other operators got before one failed is not
// part of the result.
func digestRun(h hash.Hash64, p *physical.Plan, rel *engine.Relation, err error) {
	switch {
	case errors.Is(err, engine.ErrRowLimit):
		h.Write([]byte("!rowlimit\n"))
		return
	case err != nil:
		h.Write([]byte("!error\n"))
		return
	}
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(rel.N))
	for _, name := range rel.ColNames() {
		h.Write([]byte(name))
		h.Write([]byte{0})
		if col, ok := rel.Ints[name]; ok {
			for _, v := range col {
				put(uint64(v))
			}
			continue
		}
		for _, s := range rel.Strs[name] {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	for _, n := range p.Nodes {
		put(math.Float64bits(n.ActRows))
		put(math.Float64bits(n.Skew))
	}
}

func TestEngineGoldenDigests(t *testing.T) {
	for _, set := range []string{"edge", "imdb", "tpch"} {
		var db *catalog.Database
		if set == "edge" {
			db = edgeDB()
		} else {
			db = corpusDB(set)
		}
		for _, bs := range []int{7, 256, 0} {
			var qs []plannedQuery
			if set == "edge" {
				qs = edgePlans(t, db, 12)
			} else {
				qs = corpusPlans(t, set, db, 3)
			}
			eng := engine.New(db)
			eng.BatchSize = bs
			h := fnv.New64a()
			runs := 0
			for _, q := range qs {
				eng.MaxRows = q.maxRows
				for _, p := range q.plans {
					rel, err := eng.Run(p)
					digestRun(h, p, rel, err)
					runs++
				}
			}
			if got, want := h.Sum64(), goldenEngineDigests[set]; got != want {
				t.Errorf("%s at BatchSize %d: digest of %d runs is %#x, want %#x", set, bs, runs, got, want)
			}
		}
	}
}
