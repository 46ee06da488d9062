package core

import (
	"math"
	"testing"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/workload"
)

// candidateCorpus plans the first 40 queries the named workload generator
// draws from seed 11 (the corpus of the encoder's golden digests) and
// returns each query's candidates, as many as the serving planner's
// default MaxPlans keeps. Queries that do not bind or plan are skipped.
func candidateCorpus(t *testing.T, name string) [][]*physical.Plan {
	t.Helper()
	var db *catalog.Database
	mk := workload.NewIMDBGenerator
	if name == "tpch" {
		db, mk = datagen.TPCH(0.05, 3), workload.NewTPCHGenerator
	} else {
		db = datagen.IMDB(0.02, 3)
	}
	gen, err := mk(db, 11)
	if err != nil {
		t.Fatal(err)
	}
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	binder, planner := logical.NewBinder(db), physical.NewPlanner(est)
	var queries [][]*physical.Plan
	for qi := 0; qi < 40; qi++ {
		stmt, err := sql.Parse(gen.GenerateOne())
		if err != nil {
			t.Fatal(err)
		}
		q, err := binder.Bind(stmt)
		if err != nil {
			continue
		}
		if ps, err := planner.Enumerate(q); err == nil {
			queries = append(queries, ps)
		}
	}
	return queries
}

// sharedRows is the number of leading rows of a's LSTM input that are bit
// for bit rows of b's, up to the shorter active length.
func sharedRows(a, b *encode.Sample) int {
	n := min(activeLen(a), activeLen(b))
	for t := 0; t < n; t++ {
		ra, rb := a.Nodes.Row(t), b.Nodes.Row(t)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return t
			}
		}
	}
	return n
}

// TestCandidatePrefixShareIsSmall measures what pricing a query's
// candidates over their common leading LSTM steps could save: the share of
// active LSTM rows that are a bit-equal leading prefix of an earlier
// candidate of the same query. The LSTM is unidirectional, so only such a
// prefix has equal states. Under the bottom-up numbering a child's row
// holds −1 at its parent's index, and a different join algorithm moves
// that index, so candidates part within their first rows. Under 20% the
// saving does not pay for per-step row windows in the recurrence (DESIGN
// §5s); a planner or encoder change that pushes the share past that fails
// here so the trade can be weighed again.
func TestCandidatePrefixShareIsSmall(t *testing.T) {
	for _, name := range []string{"imdb", "tpch"} {
		queries := candidateCorpus(t, name)
		var plans []*physical.Plan
		for _, ps := range queries {
			plans = append(plans, ps...)
		}
		enc, err := encode.Fit(plans, encode.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var shared, active int
		parts := map[int]int{} // first row at which a later candidate leaves every earlier one
		for _, ps := range queries {
			var seen []*encode.Sample
			for _, p := range ps {
				s := enc.EncodePlanPart(p)
				best := 0
				for _, e := range seen {
					best = max(best, sharedRows(s, e))
				}
				if len(seen) > 0 {
					parts[best]++
				}
				shared += best
				active += activeLen(s)
				seen = append(seen, s)
			}
		}
		frac := float64(shared) / float64(active)
		t.Logf("%s: %d queries, %d candidates, %d of %d active rows shared (%.1f%%); later candidates part at row: %v",
			name, len(queries), len(plans), shared, active, 100*frac, parts)
		if frac >= 0.20 {
			t.Errorf("%s: %.1f%% of active LSTM rows repeat an earlier candidate's prefix, at least 20%%: sharing the recurrence may now pay", name, 100*frac)
		}
	}
}
