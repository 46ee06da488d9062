package logical

import (
	"strings"
	"testing"

	"raal/internal/datagen"
	"raal/internal/sql"
)

func bindQuery(t *testing.T, query string) (*Query, error) {
	t.Helper()
	db := datagen.IMDB(0.02, 1)
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return NewBinder(db).Bind(stmt)
}

func mustBind(t *testing.T, query string) *Query {
	t.Helper()
	q, err := bindQuery(t, query)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return q
}

func TestBindSingleTable(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if len(q.Tables) != 1 || len(q.Joins) != 0 {
		t.Fatalf("tables %d joins %d", len(q.Tables), len(q.Joins))
	}
	if len(q.Filters["mk"]) != 1 {
		t.Fatalf("filters: %v", q.Filters)
	}
	if len(q.Aggs) != 1 || !q.Aggs[0].Star {
		t.Fatalf("aggs: %v", q.Aggs)
	}
}

func TestBindJoins(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mc.company_id < 50`)
	if len(q.Joins) != 2 {
		t.Fatalf("joins: %v", q.Joins)
	}
	if q.Joins[0].Left.Table != "title" || q.Joins[0].Right.Table != "movie_companies" {
		t.Fatalf("join 0: %v", q.Joins[0])
	}
	if len(q.Filters["mc"]) != 1 {
		t.Fatalf("mc filters: %v", q.Filters["mc"])
	}
}

func TestBindUnqualifiedColumn(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM movie_keyword WHERE keyword_id < 10`)
	f := q.Filters["movie_keyword"]
	if len(f) != 1 {
		t.Fatalf("filters: %v", q.Filters)
	}
	cmp := f[0].(*sql.Comparison)
	if cmp.Left.Qualifier != "movie_keyword" {
		t.Fatalf("qualifier not filled: %v", cmp)
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	// movie_id exists in both movie_companies and movie_keyword.
	_, err := bindQuery(t, `SELECT COUNT(*) FROM movie_companies mc, movie_keyword mk
		WHERE mc.movie_id = mk.movie_id AND movie_id < 10`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
}

func TestBindErrors(t *testing.T) {
	cases := map[string]string{
		`SELECT COUNT(*) FROM nonexistent`:                                                                    "no table",
		`SELECT COUNT(*) FROM title t WHERE t.ghost = 1`:                                                      "no column",
		`SELECT COUNT(*) FROM title t WHERE t.title = 5`:                                                      "type mismatch",
		`SELECT COUNT(*) FROM title t WHERE t.id = 'x'`:                                                       "type mismatch",
		`SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id > 5`:                                       "not connected",
		`SELECT COUNT(*) FROM title t, company_name cn WHERE t.title < cn.name`:                               "non-equi join requires integer",
		`SELECT COUNT(*) FROM title t, title t WHERE t.id = t.id`:                                             "duplicate alias",
		`SELECT t.id FROM title t`:                                                                            "GROUP BY",
		`SELECT SUM(t.title) FROM title t`:                                                                    "non-numeric",
		`SELECT COUNT(*) FROM title t WHERE t.title BETWEEN 1 AND 2`:                                          "non-integer",
		`SELECT COUNT(*) FROM title t WHERE t.id LIKE 'x%'`:                                                   "non-string",
		`SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.keyword_id AND t.title = mk.movie_id`: "", // first edge ok, second mismatch
	}
	for query, wantSub := range cases {
		_, err := bindQuery(t, query)
		if err == nil {
			t.Fatalf("Bind(%q) should fail", query)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("Bind(%q): error %q does not mention %q", query, err, wantSub)
		}
	}
}

func TestBindSameTableComparisonIsFilter(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM movie_companies mc WHERE mc.movie_id = mc.company_id`)
	if len(q.Joins) != 0 {
		t.Fatalf("same-table comparison treated as join: %v", q.Joins)
	}
	if len(q.Filters["mc"]) != 1 {
		t.Fatalf("filters: %v", q.Filters)
	}
}

func TestBindGroupByOrderByLimit(t *testing.T) {
	q := mustBind(t, `SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id ORDER BY t.kind_id DESC LIMIT 5`)
	if len(q.GroupBy) != 1 || q.GroupBy[0].Name != "kind_id" {
		t.Fatalf("group by: %v", q.GroupBy)
	}
	if q.OrderBy == nil || !q.Desc {
		t.Fatalf("order by: %v desc=%v", q.OrderBy, q.Desc)
	}
	if q.Limit != 5 {
		t.Fatalf("limit: %d", q.Limit)
	}
	if len(q.Aggs) != 2 || q.Aggs[0].Agg != sql.AggNone || q.Aggs[1].Agg != sql.AggCount {
		t.Fatalf("aggs: %v", q.Aggs)
	}
}

func TestJoinKeysFor(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id`)
	joined := map[string]bool{"t": true}
	l, r := q.JoinKeysFor("mc", joined)
	if l == nil || l.Alias != "t" || r.Alias != "mc" {
		t.Fatalf("keys: %v %v", l, r)
	}
	if l2, _ := q.JoinKeysFor("mk", map[string]bool{"mc": true}); l2 != nil {
		t.Fatal("mk has no edge to mc")
	}
}

func TestBindThetaJoin(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id < mk.movie_id`)
	if len(q.Joins) != 0 || len(q.Thetas) != 1 {
		t.Fatalf("joins %v thetas %v", q.Joins, q.Thetas)
	}
	th := q.Thetas[0]
	if th.Op != sql.OpLt || th.Left.Alias != "t" || th.Right.Alias != "mk" {
		t.Fatalf("theta: %v", th)
	}
}

func TestThetaJoinFor(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id < mk.movie_id`)
	// mk joins into {t}: orientation preserved.
	l, r, op, ok := q.ThetaJoinFor("mk", map[string]bool{"t": true})
	if !ok || l.Alias != "t" || r.Alias != "mk" || op != sql.OpLt {
		t.Fatalf("forward: %v %v %v %v", l, r, op, ok)
	}
	// t joins into {mk}: comparison must flip (t.id < mk.movie_id ⇔ mk.movie_id > t.id).
	l, r, op, ok = q.ThetaJoinFor("t", map[string]bool{"mk": true})
	if !ok || l.Alias != "mk" || r.Alias != "t" || op != sql.OpGt {
		t.Fatalf("flipped: %v %v %v %v", l, r, op, ok)
	}
	if _, _, _, ok = q.ThetaJoinFor("mk", map[string]bool{}); ok {
		t.Fatal("no joined set should find nothing")
	}
}

func TestBindStringPredicates(t *testing.T) {
	q := mustBind(t, `SELECT COUNT(*) FROM company_name cn
		WHERE cn.country_code = 'cc_0001' AND cn.name LIKE 'company%' AND cn.name IS NOT NULL`)
	if len(q.Filters["cn"]) != 3 {
		t.Fatalf("filters: %v", q.Filters["cn"])
	}
}
