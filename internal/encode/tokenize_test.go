package encode

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestTokenizeNonASCII: byte classes are ASCII, so a non-ASCII literal
// survives as one intact UTF-8 token and distinct literals stay distinct.
func TestTokenizeNonASCII(t *testing.T) {
	cases := map[string][]string{
		`Filter (t.title LIKE '%é%')`: {"filter", "t.title", "like", "é"},
		`Filter (t.title LIKE '%à%')`: {"filter", "t.title", "like", "à"},
		`'Ünïcode'`:                   {"Ünïcode"}, // only ASCII letters are folded
	}
	for stmt, want := range cases {
		if got := Tokenize(stmt); !slices.Equal(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", stmt, got, want)
		}
	}
}

// FuzzTokenize: on any bytes, tokenising neither panics nor yields an
// empty token, turns no valid UTF-8 into replacement characters, and the encoder's into-row
// embedding is, bit for bit, the average of the vectors of Tokenize's
// tokens.
func FuzzTokenize(f *testing.F) {
	enc, _ := fitEncoder(f, Word2Vec)
	m := enc.w2v
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokenize(%q) yields an empty token: %q", s, toks)
			}
			// ContainsRune(x, RuneError) also matches invalid UTF-8 in x.
			if !strings.ContainsRune(s, utf8.RuneError) && strings.ContainsRune(tok, utf8.RuneError) {
				t.Fatalf("Tokenize(%q) mangles UTF-8: %q", s, toks)
			}
		}

		want := make([]float64, m.Dim)
		n := 0
		for _, tok := range toks {
			if v := m.Vector(tok); v != nil {
				for d := range want {
					want[d] += v[d]
				}
				n++
			}
		}
		if n > 0 {
			for d := range want {
				want[d] /= float64(n)
			}
		}
		got := make([]float64, m.Dim)
		enc.embedStatement(got, s, &tokenScanner{})
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("embedding of %q differs at %d: %v, want %v (tokens %q)", s, d, got[d], want[d], toks)
			}
		}
	})
}
