package physical_test

// Property tests that hold Planner.Enumerate to the reference enumeration
// in oracle_test.go. They live in the external test package because the
// query generators (internal/workload) import this one.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/workload"
)

// Shapes the generators never draw: GROUP BY / ORDER BY / LIMIT, a theta
// join, a table with nothing referenced, a column referenced twice.
var handWritten = map[string][]string{
	"imdb": {
		`SELECT COUNT(*) FROM movie_keyword mk`,
		`SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id`,
		`SELECT t.kind_id, COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50 GROUP BY t.kind_id ORDER BY t.kind_id DESC LIMIT 5`,
		`SELECT COUNT(*) FROM title t, movie_info_idx mii WHERE t.id < mii.movie_id AND t.kind_id = 1 AND mii.info_type_id = 99`,
		`SELECT COUNT(*) FROM title t, movie_companies mc, movie_info_idx mii WHERE t.id = mc.movie_id AND t.id < mii.movie_id AND mii.info_type_id = 99`,
		`SELECT MIN(t.production_year) FROM title t WHERE t.production_year > 1990 AND t.production_year < 2000 LIMIT 1`,
		`SELECT COUNT(*) FROM title t, movie_keyword mk, movie_companies mc WHERE t.id = mk.movie_id AND t.id = mc.movie_id AND mk.keyword_id = 120`,
	},
	"tpch": {
		`SELECT COUNT(*) FROM region`,
		`SELECT o_orderpriority, SUM(o_totalprice) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority`,
		`SELECT COUNT(*) FROM orders, lineitem WHERE orders.o_orderkey = lineitem.l_orderkey AND lineitem.l_quantity < 10 LIMIT 3`,
		`SELECT COUNT(*) FROM nation, supplier, customer WHERE nation.n_nationkey = supplier.s_nationkey AND nation.n_nationkey = customer.c_nationkey`,
	},
}

type corpus struct {
	name    string
	db      *catalog.Database
	queries []*logical.Query
}

// corpora binds n generated queries per benchmark plus the hand-written
// shapes.
func corpora(tb testing.TB, n int) []corpus {
	tb.Helper()
	imdb, tpch := datagen.IMDB(0.03, 1), datagen.TPCH(0.03, 1)
	imdbGen, err := workload.NewIMDBGenerator(imdb, 11)
	if err != nil {
		tb.Fatal(err)
	}
	tpchGen, err := workload.NewTPCHGenerator(tpch, 12)
	if err != nil {
		tb.Fatal(err)
	}
	out := []corpus{{name: "imdb", db: imdb}, {name: "tpch", db: tpch}}
	for i, gen := range []*workload.Generator{imdbGen, tpchGen} {
		c := &out[i]
		binder := logical.NewBinder(c.db)
		for _, text := range append(gen.Generate(n), handWritten[c.name]...) {
			stmt, err := sql.Parse(text)
			if err != nil {
				tb.Fatalf("%s: %q: %v", c.name, text, err)
			}
			q, err := binder.Bind(stmt)
			if err != nil {
				tb.Fatalf("%s: %q: %v", c.name, text, err)
			}
			c.queries = append(c.queries, q)
		}
	}
	return out
}

// planners returns planners over db whose broadcast thresholds make the
// threshold mode pick all-BHJ, a mix, and all-SMJ.
func planners(tb testing.TB, db *catalog.Database) []*physical.Planner {
	tb.Helper()
	est, err := cardest.New(db, 32, 8)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*physical.Planner
	for _, threshold := range []float64{10 << 20, 48 << 10, 0} {
		pl := physical.NewPlanner(est)
		pl.BroadcastThreshold = threshold
		out = append(out, pl)
	}
	return out
}

// diffPlans reports the first difference between two plan lists, "" when
// they are the same plans in the same order, node for node.
func diffPlans(got, want []*physical.Plan) string {
	preds := func(n *physical.Node) []string {
		var out []string
		for _, p := range n.Preds {
			out = append(out, p.String())
		}
		return out
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d plans, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Sig != w.Sig {
			return fmt.Sprintf("plan %d: sig %q, want %q", i, g.Sig, w.Sig)
		}
		if g.String() != w.String() {
			return fmt.Sprintf("plan %d (%s):\n%s\nwant\n%s", i, w.Sig, g, w)
		}
		if g.Query != w.Query || len(g.Nodes) != len(w.Nodes) {
			return fmt.Sprintf("plan %d (%s): query or node count differs", i, w.Sig)
		}
		for j := range w.Nodes {
			a, b := g.Nodes[j], w.Nodes[j]
			if a.ID != b.ID || a.Op != b.Op ||
				math.Float64bits(a.EstRows) != math.Float64bits(b.EstRows) ||
				math.Float64bits(a.RawRows) != math.Float64bits(b.RawRows) ||
				math.Float64bits(a.RowBytes) != math.Float64bits(b.RowBytes) ||
				!slices.Equal(a.Columns, b.Columns) || !slices.Equal(preds(a), preds(b)) ||
				a.Table != b.Table || a.Alias != b.Alias || a.ActRows != 0 || len(a.Children) != len(b.Children) {
				return fmt.Sprintf("plan %d (%s) node %d: %+v, want %+v", i, w.Sig, j, *a, *b)
			}
		}
	}
	return ""
}

func TestEnumerateMatchesOracle(t *testing.T) {
	plans, distinctLens := 0, map[int]bool{}
	for _, c := range corpora(t, 250) {
		for _, pl := range planners(t, c.db) {
			for _, max := range []int{1, 2, 6, math.MaxInt} {
				pl.MaxPlans = max
				for _, q := range c.queries {
					want, err := physical.OracleEnumerate(pl, q)
					if err != nil {
						t.Fatalf("%s: oracle: %s: %v", c.name, q.Stmt, err)
					}
					got, err := pl.Enumerate(q)
					if err != nil {
						t.Fatalf("%s: %s: %v", c.name, q.Stmt, err)
					}
					if d := diffPlans(got, want); d != "" {
						t.Fatalf("%s, threshold %v, MaxPlans %d: %s\n%s", c.name, pl.BroadcastThreshold, max, q.Stmt, d)
					}
					plans += len(got)
					distinctLens[len(got)] = true
				}
			}
		}
	}
	// The corpus must exercise the cap and the dedup, not only pass them.
	if len(distinctLens) < 5 {
		t.Fatalf("compared %d plans but only list lengths %v: corpus too uniform", plans, distinctLens)
	}
}

// TestDefaultPlanIsFirstEnumerated: DefaultPlan builds one variant, the
// one Enumerate returns first.
func TestDefaultPlanIsFirstEnumerated(t *testing.T) {
	for _, c := range corpora(t, 60) {
		for _, pl := range planners(t, c.db) {
			for _, q := range c.queries {
				all, err := pl.Enumerate(q)
				if err != nil {
					t.Fatal(err)
				}
				def, err := pl.DefaultPlan(q)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffPlans([]*physical.Plan{def}, all[:1]); d != "" {
					t.Fatalf("%s: %s: DefaultPlan differs from Enumerate's first: %s", c.name, q.Stmt, d)
				}
			}
		}
	}
}

// TestEnumeratedPlansShareNoNodes: node IDs and ActRows are per plan
// (Execute writes ActRows), so the plans of one query may share facts but
// never a *Node; each plan's Nodes is exactly its tree, bottom-up.
func TestEnumeratedPlansShareNoNodes(t *testing.T) {
	for _, c := range corpora(t, 60) {
		pl := planners(t, c.db)[1]
		pl.MaxPlans = math.MaxInt
		for _, q := range c.queries {
			plans, err := pl.Enumerate(q)
			if err != nil {
				t.Fatal(err)
			}
			owner := map[*physical.Node]int{}
			for i, p := range plans {
				var walked []*physical.Node
				var walk func(n *physical.Node)
				walk = func(n *physical.Node) {
					for _, ch := range n.Children {
						walk(ch)
					}
					if prev, ok := owner[n]; ok {
						t.Fatalf("%s: %s: node %q reachable from plan %d and plan %d", c.name, q.Stmt, n.Statement(), prev, i)
					}
					owner[n] = i
					walked = append(walked, n)
				}
				walk(p.Root)
				if !slices.Equal(walked, p.Nodes) {
					t.Fatalf("%s: %s: plan %d: Nodes is not the bottom-up walk of Root", c.name, q.Stmt, i)
				}
			}
		}
	}
}

// TestPredictedSigMatchesBuild: for every candidate — kept, duplicate or
// beyond the cap — the signature Enumerate predicts from the query's
// facts is the one the reference build renders from the nodes it made.
func TestPredictedSigMatchesBuild(t *testing.T) {
	for _, c := range corpora(t, 120) {
		for _, pl := range planners(t, c.db) {
			for _, q := range c.queries {
				predicted, rendered, err := physical.VariantSigs(pl, q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(predicted, rendered) {
					t.Fatalf("%s: %s:\npredicted %q\nrendered  %q", c.name, q.Stmt, predicted, rendered)
				}
			}
		}
	}
}

// BenchmarkEnumerate makes the planner's allocations per query visible
// without the full benchmark: fixed 1-, 3- and 5-table IMDB queries at
// the default MaxPlans.
func BenchmarkEnumerate(b *testing.B) {
	db := datagen.IMDB(0.03, 1)
	pl := planners(b, db)[0]
	binder := logical.NewBinder(db)
	for _, bc := range []struct{ name, text string }{
		{"tables=1", `SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500`},
		{"tables=3", `SELECT COUNT(*) FROM title t, movie_keyword mk, movie_companies mc
			WHERE t.id = mk.movie_id AND t.id = mc.movie_id AND mk.keyword_id = 120 AND t.production_year > 1990`},
		{"tables=5", `SELECT COUNT(*) FROM title t, movie_keyword mk, movie_companies mc, company_name cn, keyword k
			WHERE t.id = mk.movie_id AND t.id = mc.movie_id AND cn.id = mc.company_id AND k.id = mk.keyword_id
			AND cn.country_code = 'cc7' AND t.kind_id = 1`},
	} {
		stmt, err := sql.Parse(bc.text)
		if err != nil {
			b.Fatal(err)
		}
		q, err := binder.Bind(stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plans, err := pl.Enumerate(q)
				if err != nil || len(plans) == 0 {
					b.Fatal(err)
				}
			}
		})
	}
}
