package sql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return stmt
}

func TestParsePaperQuery1(t *testing.T) {
	// The single-table query from Sec. III.
	stmt := mustParse(t, `SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 71692;`)
	if len(stmt.Items) != 1 || stmt.Items[0].Agg != AggCount || !stmt.Items[0].Star {
		t.Fatalf("items: %v", stmt.Items)
	}
	if len(stmt.From) != 1 || stmt.From[0].Table != "movie_keyword" || stmt.From[0].Alias != "mk" {
		t.Fatalf("from: %v", stmt.From)
	}
	cmp, ok := stmt.Where[0].(*Comparison)
	if !ok || cmp.Op != OpLt || cmp.Lit.I != 71692 || cmp.Left.Qualifier != "mk" {
		t.Fatalf("where: %v", stmt.Where)
	}
}

func TestParsePaperQuery4(t *testing.T) {
	// The three-table join query from Sec. III.
	stmt := mustParse(t, `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id
		AND mc.company_id = 43268 AND mk.keyword_id < 2560`)
	if len(stmt.From) != 3 {
		t.Fatalf("from: %v", stmt.From)
	}
	if len(stmt.Where) != 4 {
		t.Fatalf("where: %d conjuncts", len(stmt.Where))
	}
	joins := 0
	for _, p := range stmt.Where {
		if c, ok := p.(*Comparison); ok && c.IsJoin() {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("join predicates: %d, want 2", joins)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := mustParse(t, `SELECT SUM(l_extendedprice), AVG(l_discount), MIN(l_quantity), MAX(l_quantity), COUNT(l_orderkey) FROM lineitem`)
	wantAggs := []AggFunc{AggSum, AggAvg, AggMin, AggMax, AggCount}
	for i, it := range stmt.Items {
		if it.Agg != wantAggs[i] {
			t.Fatalf("item %d agg = %v, want %v", i, it.Agg, wantAggs[i])
		}
	}
	if !stmt.HasAggregate() {
		t.Fatal("HasAggregate should be true")
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	stmt := mustParse(t, `SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment DESC LIMIT 10`)
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Name != "c_mktsegment" {
		t.Fatalf("group by: %v", stmt.GroupBy)
	}
	if stmt.OrderBy == nil || !stmt.OrderBy.Desc {
		t.Fatalf("order by: %v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Fatalf("limit: %d", stmt.Limit)
	}
}

func TestParseStringPredicates(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*) FROM company_name cn
		WHERE cn.country_code = 'cc_0003' AND cn.name LIKE 'company%'
		AND cn.country_code IN ('cc_0001', 'cc_0002')`)
	if _, ok := stmt.Where[0].(*Comparison); !ok {
		t.Fatalf("pred 0: %T", stmt.Where[0])
	}
	like, ok := stmt.Where[1].(*Like)
	if !ok || like.Pattern != "company%" {
		t.Fatalf("pred 1: %v", stmt.Where[1])
	}
	in, ok := stmt.Where[2].(*In)
	if !ok || len(in.Values) != 2 || !in.Values[0].IsStr {
		t.Fatalf("pred 2: %v", stmt.Where[2])
	}
}

func TestParseBetweenAndNullChecks(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*) FROM title t
		WHERE t.production_year BETWEEN 1990 AND 2000
		AND t.kind_id IS NOT NULL AND t.id IS NULL`)
	b, ok := stmt.Where[0].(*Between)
	if !ok || b.Lo != 1990 || b.Hi != 2000 {
		t.Fatalf("between: %v", stmt.Where[0])
	}
	nn, ok := stmt.Where[1].(*NullCheck)
	if !ok || !nn.Not {
		t.Fatalf("is not null: %v", stmt.Where[1])
	}
	n, ok := stmt.Where[2].(*NullCheck)
	if !ok || n.Not {
		t.Fatalf("is null: %v", stmt.Where[2])
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*) FROM supplier WHERE s_acctbal > -500`)
	cmp := stmt.Where[0].(*Comparison)
	if cmp.Lit.I != -500 {
		t.Fatalf("literal: %v", cmp.Lit)
	}
}

func TestParseAllComparisonOps(t *testing.T) {
	ops := map[string]CmpOp{
		"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for sym, want := range ops {
		stmt := mustParse(t, `SELECT COUNT(*) FROM t WHERE a `+sym+` 5`)
		cmp := stmt.Where[0].(*Comparison)
		if cmp.Op != want {
			t.Fatalf("op %q parsed as %v, want %v", sym, cmp.Op, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		``,
		`FROM t`,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT COUNT(* FROM t`,
		`SELECT COUNT(*) FROM t WHERE`,
		`SELECT COUNT(*) FROM t WHERE a`,
		`SELECT COUNT(*) FROM t WHERE a = `,
		`SELECT COUNT(*) FROM t WHERE a BETWEEN 'x' AND 'y'`,
		`SELECT COUNT(*) FROM t WHERE a LIKE 5`,
		`SELECT SUM(*) FROM t`,
		`SELECT COUNT(*) FROM t LIMIT abc`,
		`SELECT COUNT(*) FROM t extra garbage here ,`,
		`SELECT COUNT(*) FROM t WHERE a = 'unterminated`,
		`SELECT a.b.c FROM t`,
	} {
		if _, err := Parse(q); err == nil {
			t.Fatalf("Parse(%q) should fail", q)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	stmt := mustParse(t, `select count(*) from Title T where T.ID < 5`)
	if stmt.From[0].Table != "title" || stmt.From[0].Alias != "t" {
		t.Fatalf("case folding failed: %v", stmt.From)
	}
}

func TestStringLiteralPreservesCase(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 'MixedCase'`)
	cmp := stmt.Where[0].(*Comparison)
	if cmp.Lit.S != "MixedCase" {
		t.Fatalf("literal case not preserved: %q", cmp.Lit.S)
	}
}

func TestStmtStringRoundTrip(t *testing.T) {
	// Rendering then re-parsing must produce the same structure.
	queries := []string{
		`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 100`,
		`SELECT c_mktsegment, SUM(c_acctbal) FROM customer WHERE c_acctbal > 0 GROUP BY c_mktsegment ORDER BY c_mktsegment LIMIT 5`,
	}
	for _, q := range queries {
		s1 := mustParse(t, q)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Fatalf("round trip changed:\n%s\n%s", s1, s2)
		}
	}
}

func TestCmpOpNegateFlip(t *testing.T) {
	if OpLt.Negate() != OpGe || OpEq.Negate() != OpNe {
		t.Fatal("Negate wrong")
	}
	if OpLt.Flip() != OpGt || OpLe.Flip() != OpGe || OpEq.Flip() != OpEq {
		t.Fatal("Flip wrong")
	}
}

func TestPredicateColumns(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*) FROM a, b WHERE a.x = b.y AND a.z > 3`)
	cols := stmt.Where[0].Columns()
	if len(cols) != 2 || cols[0].String() != "a.x" || cols[1].String() != "b.y" {
		t.Fatalf("join columns: %v", cols)
	}
	cols = stmt.Where[1].Columns()
	if len(cols) != 1 || cols[0].String() != "a.z" {
		t.Fatalf("filter columns: %v", cols)
	}
}

func TestLexUnexpectedChar(t *testing.T) {
	if _, err := Parse(`SELECT COUNT(*) FROM t WHERE a @ 3`); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("expected lexer error, got %v", err)
	}
}

// TestStartsValueMatchesEqualFold: the length switch and byte fold in
// startsValue accept exactly what strings.EqualFold against the seven
// value-introducing keywords accepts, on every case variant of each
// keyword, every one-byte identifier edit of it, and same-length or
// near-length non-keywords.
func TestStartsValueMatchesEqualFold(t *testing.T) {
	keywords := []string{"and", "or", "between", "in", "where", "like", "limit"}
	const identBytes = "_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	inputs := []string{"a", "i", "o", "an", "n_", "ore", "orr", "lik", "likes", "limi", "limits",
		"wher", "whereas", "betwee", "betweenx", "_in", "x1", "selects"}
	for _, kw := range keywords {
		for mask := 0; mask < 1<<len(kw); mask++ {
			variant := []byte(kw)
			for i := range variant {
				if mask>>i&1 == 1 {
					variant[i] -= 'a' - 'A'
				}
			}
			inputs = append(inputs, string(variant))
		}
		for i := range kw {
			for j := 0; j < len(identBytes); j++ {
				edit := []byte(kw)
				edit[i] = identBytes[j]
				inputs = append(inputs, string(edit), strings.ToUpper(string(edit)))
			}
		}
	}
	matched := 0
	for _, in := range inputs {
		want := false
		for _, kw := range keywords {
			want = want || strings.EqualFold(in, kw)
		}
		if got := startsValue(token{kind: tokIdent, text: in}); got != want {
			t.Fatalf("startsValue(%q) = %v, strings.EqualFold says %v", in, got, want)
		}
		if want {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no input matched a keyword: the test compares nothing")
	}
}

func TestCanonicalKey(t *testing.T) {
	const want = "select count ( * ) from title t where t . title like 'The %' and t . kind_id < -3"
	for _, in := range []string{
		`SELECT COUNT(*) FROM title t WHERE t.title LIKE 'The %' AND t.kind_id < -3`,
		"select  count ( * )\n\tfrom TITLE T where T.Title like 'The %' And t.KIND_ID<-3\r\n",
		want,
	} {
		got, err := CanonicalKey(in)
		if err != nil || got != want {
			t.Fatalf("CanonicalKey(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	// A string literal's case and inner spacing are data, not syntax.
	for _, in := range []string{
		`SELECT COUNT(*) FROM title t WHERE t.title LIKE 'the %' AND t.kind_id < -3`,
		`SELECT COUNT(*) FROM title t WHERE t.title LIKE 'The  %' AND t.kind_id < -3`,
	} {
		if got, err := CanonicalKey(in); err != nil || got == want {
			t.Fatalf("CanonicalKey(%q) = %q, %v; a changed literal must change the key", in, got, err)
		}
	}
	// Tokens never run together: "a b" and "ab" are different queries.
	if a, _ := CanonicalKey("a b"); a != "a b" {
		t.Fatalf(`CanonicalKey("a b") = %q`, a)
	}
	// Lexer failures surface with the error Parse reports.
	for _, in := range []string{`SELECT a FROM t WHERE a @ 3`, `SELECT 'open`, `a ! b`} {
		_, perr := Parse(in)
		if _, err := CanonicalKey(in); err == nil || err.Error() != perr.Error() {
			t.Fatalf("CanonicalKey(%q) error %v, Parse error %v", in, err, perr)
		}
	}
}

// TestAppendToRenders: every AppendTo writes after what the buffer holds,
// and String is exactly the bytes AppendTo writes.
func TestAppendToRenders(t *testing.T) {
	rc := &ColumnRef{Qualifier: "b", Name: "y"}
	for _, tc := range []struct {
		x interface {
			String() string
			AppendTo([]byte) []byte
		}
		want string
	}{
		{ColumnRef{Name: "x"}, "x"},
		{ColumnRef{Qualifier: "a", Name: "x"}, "a.x"},
		{IntLit(-9223372036854775808), "-9223372036854775808"},
		{StrLit("it's"), "'it's'"},
		{&Comparison{Left: ColumnRef{Qualifier: "a", Name: "x"}, Op: OpLe, Lit: IntLit(-3)}, "a.x <= -3"},
		{&Comparison{Left: ColumnRef{Name: "x"}, Op: OpNe, RightCol: rc}, "x != b.y"},
		{&Comparison{Left: ColumnRef{Name: "x"}, Op: CmpOp(9), Lit: StrLit("")}, "x CmpOp(9) ''"},
		{&Between{Col: ColumnRef{Name: "x"}, Lo: -5, Hi: -1}, "x BETWEEN -5 AND -1"},
		{&In{Col: ColumnRef{Qualifier: "a", Name: "x"}, Values: []Literal{IntLit(-1), StrLit("s"), IntLit(2)}}, "a.x IN (-1, 's', 2)"},
		{&In{Col: ColumnRef{Name: "x"}}, "x IN ()"},
		{&Like{Col: ColumnRef{Name: "x"}, Pattern: "%a_%"}, "x LIKE '%a_%'"},
		{&NullCheck{Col: ColumnRef{Name: "x"}, Not: true}, "x IS NOT NULL"},
		{&NullCheck{Col: ColumnRef{Qualifier: "a", Name: "x"}}, "a.x IS NULL"},
	} {
		if got := tc.x.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if got := string(tc.x.AppendTo([]byte("p|"))); got != "p|"+tc.want {
			t.Errorf("AppendTo after a prefix = %q, want %q", got, "p|"+tc.want)
		}
	}
}
