package engine

import (
	"fmt"
	"strings"

	"raal/internal/sql"
)

// rowPred evaluates one predicate against the physical row r of a batch.
// Predicates receive physical indices (pre-selection) so a filter can
// narrow an already-selected batch by composing selection vectors.
type rowPred func(b *Batch, r int) bool

// compileStreamPreds compiles the conjunction for a static layout: column
// references resolve to layout positions once, at iterator-construction
// time, never per row.
func compileStreamPreds(l *layout, preds []sql.Predicate) ([]rowPred, error) {
	fns := make([]rowPred, len(preds))
	for i, p := range preds {
		f, err := compileStreamPred(l, p)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return fns, nil
}

func (l *layout) intPos(name string) (int, bool) {
	p, ok := l.find(name)
	return p, ok && !l.cols[p].isStr
}

func (l *layout) strPos(name string) (int, bool) {
	p, ok := l.find(name)
	return p, ok && l.cols[p].isStr
}

func compileStreamPred(l *layout, p sql.Predicate) (rowPred, error) {
	switch pred := p.(type) {
	case *sql.Comparison:
		name := pred.Left.String()
		if pred.RightCol != nil {
			lp, lok := l.intPos(name)
			rp, rok := l.intPos(pred.RightCol.String())
			if !lok || !rok {
				return nil, fmt.Errorf("engine: column comparison %s needs int columns", pred)
			}
			op := pred.Op
			return func(b *Batch, r int) bool { return cmpInt(b.ints[lp][r], b.ints[rp][r], op) }, nil
		}
		if pred.Lit.IsStr {
			cp, ok := l.strPos(name)
			if !ok {
				return nil, fmt.Errorf("engine: missing string column %q", name)
			}
			lit, op := pred.Lit.S, pred.Op
			return func(b *Batch, r int) bool { return cmpStr(b.strs[cp][r], lit, op) }, nil
		}
		cp, ok := l.intPos(name)
		if !ok {
			return nil, fmt.Errorf("engine: missing int column %q", name)
		}
		lit, op := pred.Lit.I, pred.Op
		return func(b *Batch, r int) bool { return cmpInt(b.ints[cp][r], lit, op) }, nil

	case *sql.Between:
		cp, ok := l.intPos(pred.Col.String())
		if !ok {
			return nil, fmt.Errorf("engine: missing int column %q", pred.Col)
		}
		lo, hi := pred.Lo, pred.Hi
		return func(b *Batch, r int) bool { v := b.ints[cp][r]; return v >= lo && v <= hi }, nil

	case *sql.In:
		name := pred.Col.String()
		if cp, ok := l.intPos(name); ok {
			set := map[int64]bool{}
			for _, v := range pred.Values {
				set[v.I] = true
			}
			return func(b *Batch, r int) bool { return set[b.ints[cp][r]] }, nil
		}
		if cp, ok := l.strPos(name); ok {
			set := map[string]bool{}
			for _, v := range pred.Values {
				set[v.S] = true
			}
			return func(b *Batch, r int) bool { return set[b.strs[cp][r]] }, nil
		}
		return nil, fmt.Errorf("engine: missing column %q", name)

	case *sql.Like:
		cp, ok := l.strPos(pred.Col.String())
		if !ok {
			return nil, fmt.Errorf("engine: missing string column %q", pred.Col)
		}
		match := compileLike(pred.Pattern)
		return func(b *Batch, r int) bool { return match(b.strs[cp][r]) }, nil

	case *sql.NullCheck:
		// Generated data is NULL-free: IS NOT NULL is vacuously true.
		not := pred.Not
		return func(*Batch, int) bool { return not }, nil
	}
	return nil, fmt.Errorf("engine: unsupported predicate %T", p)
}

func cmpInt(a, b int64, op sql.CmpOp) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

func cmpStr(a, b string, op sql.CmpOp) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

// compileLike supports SQL LIKE with % wildcards (no _): the pattern is
// split on % and segments must appear in order, anchored at the ends when
// the pattern does not start/end with %.
func compileLike(pattern string) func(string) bool {
	segs := strings.Split(pattern, "%")
	anchoredStart := !strings.HasPrefix(pattern, "%")
	anchoredEnd := !strings.HasSuffix(pattern, "%")
	// Drop empty segments produced by consecutive or boundary %.
	var parts []string
	for _, s := range segs {
		if s != "" {
			parts = append(parts, s)
		}
	}
	return func(s string) bool {
		if len(parts) == 0 {
			return pattern != "" || s == "" // all wildcards, or empty
		}
		if anchoredStart {
			if !strings.HasPrefix(s, parts[0]) {
				return false
			}
			s = s[len(parts[0]):]
			rest := parts[1:]
			if len(rest) == 0 {
				return !anchoredEnd || s == ""
			}
			return likeTail(s, rest, anchoredEnd)
		}
		return likeTail(s, parts, anchoredEnd)
	}
}

func likeTail(s string, parts []string, anchoredEnd bool) bool {
	for i, p := range parts {
		last := i == len(parts)-1
		if last && anchoredEnd {
			return strings.HasSuffix(s, p)
		}
		idx := strings.Index(s, p)
		if idx < 0 {
			return false
		}
		s = s[idx+len(p):]
	}
	return true
}
