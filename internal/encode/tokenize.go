// Package encode turns physical plans, resource allocations, and catalog
// statistics into the tensors the deep cost models consume, implementing
// the paper's Sec. IV-C feature encoding:
//
//   - node-semantic embedding: each operator's execution statement is
//     tokenized and embedded with word2vec (one-hot is kept as the
//     ablation alternative);
//   - plan-structure embedding: a signed adjacency vector per node
//     (+1 for children, −1 for the parent);
//   - resource embedding: Table-I features normalized to [0,1] by the
//     cluster maxima (Eq. 1);
//   - other features: normalized cardinality statistics.
package encode

import (
	"math"
	"strconv"
	"strings"
)

// Tokenize splits a physical-plan execution statement into word2vec
// tokens. Identifiers and keywords become lowercase tokens, comparison
// operators survive as their own tokens, and numeric literals are bucketed
// by order of magnitude (num0, num1, …) so that similar-magnitude
// constants share a token — the trick that lets word2vec place similar
// predicates near each other, which one-hot encoding cannot do.
//
// Byte classes are ASCII: a byte from 0x80 up is a word byte, so non-ASCII
// text in a literal stays one intact UTF-8 token, and only ASCII letters
// are lowercased.
func Tokenize(statement string) []string {
	return appendTokens(nil, &tokenScanner{s: statement}, nil)
}

// appendTokens appends the tokens sc yields to toks. A token that folding
// left unchanged shares the statement's bytes; a folded one comes from
// intern when it holds the token, else it is made, and kept in intern
// when intern is not nil.
func appendTokens(toks []string, sc *tokenScanner, intern map[string]string) []string {
	for tok, ok := sc.next(); ok; tok, ok = sc.next() {
		if raw := sc.s[sc.start:sc.end]; string(tok) == raw {
			toks = append(toks, raw)
		} else if s, ok := intern[string(tok)]; ok {
			toks = append(toks, s)
		} else {
			s = string(tok)
			if intern != nil {
				intern[s] = s
			}
			toks = append(toks, s)
		}
	}
	return toks
}

// tokenScanner yields the tokens of one statement in order. It is the one
// tokeniser: Tokenize and Fit's corpus collect its tokens as strings for
// word2vec training, and the encoder embeds them straight from buf
// without making any.
type tokenScanner struct {
	s          string
	start, end int    // the last token's source bytes are s[start:end]
	buf        []byte // the last token, folded or bucketed; the next call overwrites it
}

// next returns the next token, false when the statement is used up. The
// slice is buf's and is only valid until the next call.
func (t *tokenScanner) next() ([]byte, bool) {
	s := t.s
	for t.end < len(s) {
		start, c := t.end, s[t.end]
		end := start + 1
		switch {
		case c == '&' || c == '|':
			for end < len(s) && (s[end] == '&' || s[end] == '|') {
				end++
			}
		case c == '<' || c == '>' || c == '=' || c == '!':
			if end < len(s) && (s[end] == '=' || s[end] == '>') {
				end++
			}
		case isDigit(c) || c == '-' && end < len(s) && isDigit(s[end]):
			for end < len(s) && isDigit(s[end]) {
				end++
			}
			t.start, t.end = start, end
			t.buf = appendNumberBucket(t.buf[:0], s[start:end])
			return t.buf, true
		case isWordStart(c):
			for end < len(s) && (isWordStart(s[end]) || isDigit(s[end]) || s[end] == '.') {
				end++
			}
		default: // a separator, or punctuation no token uses
			t.end = end
			continue
		}
		t.start, t.end = start, end
		t.buf = t.buf[:0]
		for i := start; i < end; i++ {
			c := s[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			t.buf = append(t.buf, c)
		}
		return t.buf, true
	}
	return nil, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isWordStart reports whether c starts an identifier or keyword token: an
// ASCII letter, '_', or any byte of a multi-byte UTF-8 sequence.
func isWordStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c >= 0x80
}

// appendNumberBucket appends the magnitude-bucket token of a numeric
// literal to dst.
func appendNumberBucket(dst []byte, lit string) []byte {
	dst = append(dst, "num"...)
	v, err := strconv.ParseFloat(strings.TrimPrefix(lit, "-"), 64)
	if err != nil || v < 1 {
		return append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(math.Log10(v)), 10)
}
