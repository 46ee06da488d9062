package sql

import (
	"strings"
	"testing"
)

// fuzzSeeds is the corpus both fuzzers start from: the workload
// generators' query shapes (JOB-style multi-join aggregates, string
// predicates, BETWEEN/IN/LIKE, ORDER/GROUP/LIMIT) plus known-tricky
// fragments.
var fuzzSeeds = []string{
	// Workload-generator shapes (see internal/workload/generator.go).
	"SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500",
	"SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50",
	"SELECT SUM(t.production_year) FROM title t, movie_keyword mk, movie_companies mc " +
		"WHERE t.id = mk.movie_id AND t.id = mc.movie_id AND mk.keyword_id = 120 AND t.production_year > 1990",
	"SELECT AVG(l.quantity) FROM lineitem l WHERE l.shipdate BETWEEN 100 AND 900",
	"SELECT MIN(o.totalprice), MAX(o.totalprice) FROM orders o, customer c WHERE o.custkey = c.custkey",
	"SELECT COUNT(*) FROM title t WHERE t.title LIKE 'The %'",
	"SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1, 2, 7)",
	"SELECT COUNT(*) FROM title t WHERE t.production_year IS NOT NULL GROUP BY t.kind_id ORDER BY t.kind_id LIMIT 10",
	"SELECT name, COUNT(*) FROM company_name GROUP BY name;",
	// Tricky fragments: empties, bare keywords, unbalanced tokens.
	"",
	";",
	"SELECT",
	"SELECT * FROM",
	"SELECT COUNT( FROM t",
	"SELECT 'unterminated FROM t",
	"SELECT a FROM t WHERE",
	"SELECT a FROM t WHERE a = ",
	"SELECT a FROM t WHERE a BETWEEN 1",
	"SELECT a FROM t WHERE a IN ()",
	"SELECT a FROM t LIMIT -1",
	"select a from t where a <> 3",
	"SELECT a.b.c FROM t",
	"SELECT ((((",
	"\x00\x01\xff",
}

// FuzzParse drives the parser with arbitrary input: it must return an
// error or a statement, never panic and never hang. Run continuously
// with `make fuzz`; the seeds alone replay under plain `go test`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Cap pathological inputs: the fuzzer can grow strings without
		// bound and the parser is O(n) — the property of interest is
		// "no panic", not throughput on megabyte inputs.
		if len(input) > 1<<16 {
			t.Skip()
		}
		stmt, err := Parse(input)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned both a statement and %v", input, err)
			}
			return
		}
		// A statement that parsed must render without panicking, and the
		// rendering must itself be parsable (printer/parser closure).
		rendered := stmt.String()
		if _, err := Parse(rendered); err != nil {
			t.Fatalf("Parse(%q) succeeded but its rendering %q does not re-parse: %v",
				input, rendered, err)
		}
		if strings.TrimSpace(rendered) == "" {
			t.Fatalf("Parse(%q) rendered to empty", input)
		}
	})
}

// FuzzCanonicalKey drives the router's affinity key with arbitrary
// input (it reads request bytes before anything has parsed them): it
// must never panic, must fail exactly when the lexer does, and whenever
// the text lexes the key must ignore surrounding whitespace and — when
// no string literal is present — letter case. The key of a key is
// itself. key(x) == key(Parse(x).String()) is deliberately not checked:
// see CanonicalKey.
func FuzzCanonicalKey(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add("select a from t where a between -1 and -2")
	f.Add("SELECT a FROM t WHERE a -1 < 3 AND b = 'It''s'")
	f.Add("SELECT\tA\r\nFROM T WHERE A<=-.5")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip()
		}
		key, err := CanonicalKey(input)
		if _, lexErr := lex(input); (err == nil) != (lexErr == nil) ||
			(err != nil && err.Error() != lexErr.Error()) {
			t.Fatalf("CanonicalKey(%q) error %v, lexer error %v", input, err, lexErr)
		}
		if err != nil {
			if key != "" {
				t.Fatalf("CanonicalKey(%q) returned both a key and %v", input, err)
			}
			return
		}
		for name, variant := range map[string]string{
			"padded": " " + input + "\n",
			"key":    key,
		} {
			if got, err := CanonicalKey(variant); err != nil || got != key {
				t.Fatalf("CanonicalKey(%q) = %q, but the %s form %q gives %q, %v",
					input, key, name, variant, got, err)
			}
		}
		if !strings.Contains(input, "'") {
			upper := strings.ToUpper(input)
			if got, err := CanonicalKey(upper); err != nil || got != key {
				t.Fatalf("CanonicalKey(%q) = %q, but upper-cased %q gives %q, %v",
					input, key, upper, got, err)
			}
		}
	})
}
