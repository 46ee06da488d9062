// Package sql implements a lexer, AST, and recursive-descent parser for the
// GPSJ (generalized projection / selection / join) query class the paper
// evaluates on: single-block SELECT statements with aggregates, inner
// equi-joins, conjunctive predicates over numeric and string attributes,
// GROUP BY, ORDER BY, and LIMIT.
package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // identifiers are lowercased; keywords compare lowercased
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// scanner yields the tokens of input one at a time, so a caller that only
// folds the stream (CanonicalKey) never materialises it.
type scanner struct {
	input string
	pos   int
	// valueNext: the next position can begin a value, so a '-' there
	// starts a negative number rather than being a binary operator.
	valueNext bool
}

func newScanner(input string) scanner { return scanner{input: input, valueNext: true} }

// next returns the next token, tokEOF at the end of input. Identifier
// text is returned as written; lex lowercases it.
func (s *scanner) next() (token, error) {
	input, n := s.input, len(s.input)
	i := s.pos
	for i < n && (input[i] == ' ' || input[i] == '\t' || input[i] == '\n' || input[i] == '\r') {
		i++
	}
	if i >= n {
		s.pos = n
		return token{tokEOF, "", n}, nil
	}
	start := i
	c := input[i]
	var kind tokenKind
	switch {
	case isIdentStart(c):
		for i < n && isIdentByte(input[i]) {
			i++
		}
		kind = tokIdent
	case isASCIIDigit(c) || (c == '-' && i+1 < n && isASCIIDigit(input[i+1]) && s.valueNext):
		if c == '-' {
			i++
		}
		for i < n && (isASCIIDigit(input[i]) || input[i] == '.') {
			i++
		}
		kind = tokNumber
	case c == '\'':
		i++
		for i < n && input[i] != '\'' {
			i++
		}
		if i >= n {
			return token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		}
		i++ // closing quote
		kind = tokString
	case c == '<' || c == '>' || c == '!':
		i++
		if i < n && input[i] == '=' {
			i++
		} else if c == '<' && i < n && input[i] == '>' {
			i++
		} else if c == '!' {
			return token{}, fmt.Errorf("sql: unexpected '!' at offset %d (use != or <>)", start)
		}
		kind = tokSymbol
	case strings.IndexByte("=,().*;+-/%", c) >= 0:
		i++
		kind = tokSymbol
	default:
		return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
	}
	t := token{kind, input[start:i], start}
	if kind == tokString {
		t.text = input[start+1 : i-1] // without the quotes
	}
	s.pos, s.valueNext = i, startsValue(t)
	return t, nil
}

// lex splits input into tokens. Identifiers and keywords are lowercased;
// string literals keep their case.
func lex(input string) ([]token, error) {
	var toks []token
	s := newScanner(input)
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		if t.kind == tokIdent {
			t.text = strings.ToLower(t.text)
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// CanonicalKey folds the token stream of input into one string: tokens
// joined by a single space, identifiers and keywords lowercased, string
// literals kept raw inside their quotes. Two texts that differ only in
// whitespace or identifier/keyword case get the same key; it fails
// exactly when the lexer does, with the error Parse would return.
//
// It is an affinity key (the fleet router hashes it to pick the replica
// that has this query's plan cached), not an equivalence: it is taken
// before parsing, so texts the parser normalises to one statement
// (BETWEEN against two comparisons, a trailing ';', redundant
// parentheses, "!=" against "<>") keep different keys, and
// key(x) == key(Parse(x).String()) does not hold in general. A miss costs
// one cold plan on another replica, never a wrong answer.
func CanonicalKey(input string) (string, error) {
	var b strings.Builder
	b.Grow(len(input))
	s := newScanner(input)
	for {
		t, err := s.next()
		if err != nil {
			return "", err
		}
		if t.kind == tokEOF {
			return b.String(), nil
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokIdent:
			for i := 0; i < len(t.text); i++ {
				c := t.text[i]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				b.WriteByte(c)
			}
		case tokString:
			b.WriteByte('\'')
			b.WriteString(t.text)
			b.WriteByte('\'')
		default:
			b.WriteString(t.text)
		}
	}
}

// Identifier bytes are strictly ASCII. Classifying raw bytes with the
// unicode package is a trap: rune(0xdf) is the letter 'ß', so a stray
// non-UTF-8 byte used to lex as an identifier whose ToLower rendering was
// no longer lexable — parse(render(parse(x))) diverged. Bytes ≥ 0x80 now
// fall through to the lexer's "unexpected character" error (they remain
// legal inside string literals, which are kept raw).
func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentByte(c byte) bool { return isIdentStart(c) || isASCIIDigit(c) }

func isASCIIDigit(c byte) bool { return '0' <= c && c <= '9' }

// startsValue reports whether the position after t can begin a value
// (so '-' starts a negative number rather than being a binary operator).
// t's identifier text may be in any case. It runs on every token of both
// Parse and CanonicalKey, so an identifier is matched by length first and
// then folded byte by byte, never through strings.EqualFold.
func startsValue(t token) bool {
	switch t.kind {
	case tokSymbol:
		return t.text != ")" && t.text != "*"
	case tokIdent:
		s := t.text
		switch len(s) {
		case 2:
			return foldedIs(s, "in") || foldedIs(s, "or")
		case 3:
			return foldedIs(s, "and")
		case 4:
			return foldedIs(s, "like")
		case 5:
			return foldedIs(s, "where") || foldedIs(s, "limit")
		case 7:
			return foldedIs(s, "between")
		}
	}
	return false
}

// foldedIs reports whether s equals the lowercase keyword kw once its
// ASCII letters are lowercased. Setting bit 0x20 lowercases 'A'–'Z' and
// maps no other byte onto a lowercase letter, so any byte of s is safe.
func foldedIs(s, kw string) bool {
	if len(s) != len(kw) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != kw[i] {
			return false
		}
	}
	return true
}
