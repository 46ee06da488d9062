// Package cardest estimates cardinalities from catalog statistics using
// the textbook assumptions (attribute independence, uniform buckets, join
// containment). These estimates drive the physical planner's choices and
// the GPSJ analytical baseline, and they feed the learned cost models as
// "other features" (Sec. IV-C). They are deliberately imperfect on skewed,
// correlated data — that is precisely the gap learned models exploit.
package cardest

import (
	"fmt"
	"strings"

	"raal/internal/catalog"
	"raal/internal/logical"
	"raal/internal/sql"
)

// Estimator caches per-table statistics for a database.
type Estimator struct {
	db    *catalog.Database
	stats map[string]*catalog.TableStats
}

// New computes statistics for every table of db. buckets controls
// histogram resolution; topK the common-string-value lists.
func New(db *catalog.Database, buckets, topK int) (*Estimator, error) {
	e := &Estimator{db: db, stats: map[string]*catalog.TableStats{}}
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		ts, err := catalog.ComputeStats(t, buckets, topK)
		if err != nil {
			return nil, fmt.Errorf("cardest: stats for %s: %w", name, err)
		}
		e.stats[name] = ts
	}
	return e, nil
}

// DB returns the underlying database (schemas and data).
func (e *Estimator) DB() *catalog.Database { return e.db }

// TableStats returns the cached stats for a table.
func (e *Estimator) TableStats(name string) (*catalog.TableStats, error) {
	ts, ok := e.stats[name]
	if !ok {
		return nil, fmt.Errorf("cardest: no stats for table %q", name)
	}
	return ts, nil
}

// TableRows returns a table's row count (0 if unknown).
func (e *Estimator) TableRows(name string) float64 {
	if ts, ok := e.stats[name]; ok {
		return float64(ts.Rows)
	}
	return 0
}

// ColumnNDV returns the distinct-value count of table.col (1 if unknown).
func (e *Estimator) ColumnNDV(table, col string) float64 {
	if ts, ok := e.stats[table]; ok {
		if cs, ok := ts.Columns[col]; ok && cs.NDV > 0 {
			return float64(cs.NDV)
		}
	}
	return 1
}

// Selectivity estimates the fraction of a table's rows satisfying pred.
// Unknown constructs fall back to conservative constants.
func (e *Estimator) Selectivity(table string, pred sql.Predicate) float64 {
	ts, ok := e.stats[table]
	if !ok {
		return defaultSel
	}
	col := func(name string) *catalog.ColumnStats { return ts.Columns[name] }

	switch p := pred.(type) {
	case *sql.Comparison:
		cs := col(p.Left.Name)
		if cs == nil {
			return defaultSel
		}
		if p.RightCol != nil {
			// same-table column comparison: 1/max NDV, per the
			// containment assumption applied within a row.
			other := col(p.RightCol.Name)
			ndv := float64(cs.NDV)
			if other != nil && float64(other.NDV) > ndv {
				ndv = float64(other.NDV)
			}
			if ndv < 1 {
				ndv = 1
			}
			return clampSel(1 / ndv)
		}
		if p.Lit.IsStr {
			switch p.Op {
			case sql.OpEq:
				return clampSel(cs.SelectivityEqStr(p.Lit.S))
			case sql.OpNe:
				return clampSel(1 - cs.SelectivityEqStr(p.Lit.S))
			default:
				return defaultSel
			}
		}
		switch p.Op {
		case sql.OpEq:
			return clampSel(cs.SelectivityEqInt(p.Lit.I))
		case sql.OpNe:
			return clampSel(1 - cs.SelectivityEqInt(p.Lit.I))
		case sql.OpLt:
			return clampSel(cs.SelectivityLess(p.Lit.I, false))
		case sql.OpLe:
			return clampSel(cs.SelectivityLess(p.Lit.I, true))
		case sql.OpGt:
			return clampSel(1 - cs.SelectivityLess(p.Lit.I, true))
		case sql.OpGe:
			return clampSel(1 - cs.SelectivityLess(p.Lit.I, false))
		}
		return defaultSel

	case *sql.Between:
		cs := col(p.Col.Name)
		if cs == nil {
			return defaultSel
		}
		return clampSel(cs.SelectivityLess(p.Hi, true) - cs.SelectivityLess(p.Lo, false))

	case *sql.In:
		cs := col(p.Col.Name)
		if cs == nil {
			return defaultSel
		}
		var s float64
		for _, v := range p.Values {
			if v.IsStr {
				s += cs.SelectivityEqStr(v.S)
			} else {
				s += cs.SelectivityEqInt(v.I)
			}
		}
		return clampSel(s)

	case *sql.Like:
		// No string histograms: use the classic heuristics.
		pat := p.Pattern
		switch {
		case !strings.Contains(pat, "%"):
			cs := col(p.Col.Name)
			if cs == nil {
				return defaultSel
			}
			return clampSel(cs.SelectivityEqStr(pat))
		case strings.HasSuffix(pat, "%") && !strings.HasPrefix(pat, "%"):
			return 0.05 // prefix match
		default:
			return 0.1 // contains / suffix match
		}

	case *sql.NullCheck:
		// The synthetic data is NULL-free.
		if p.Not {
			return 1
		}
		return 0
	}
	return defaultSel
}

// FilterSelectivity multiplies per-predicate selectivities under the
// independence assumption.
func (e *Estimator) FilterSelectivity(table string, preds []sql.Predicate) float64 {
	s := 1.0
	for _, p := range preds {
		s *= e.Selectivity(table, p)
	}
	return s
}

// ScanRows estimates output rows of scanning table with preds applied.
func (e *Estimator) ScanRows(table string, preds []sql.Predicate) float64 {
	return e.TableRows(table) * e.FilterSelectivity(table, preds)
}

// JoinRows estimates |L ⋈ R| under the containment assumption:
// |L|·|R| / max(ndv(L.key), ndv(R.key)).
func (e *Estimator) JoinRows(leftRows, rightRows float64, left, right logical.BoundCol) float64 {
	ndv := e.ColumnNDV(left.Table, left.Name)
	if r := e.ColumnNDV(right.Table, right.Name); r > ndv {
		ndv = r
	}
	out := leftRows * rightRows / ndv
	if out < 0 {
		out = 0
	}
	return out
}

// GroupRows estimates the number of groups a GROUP BY produces from
// inputRows: the product of the key columns' NDVs (independence), capped
// by the input cardinality. No keys means one global group.
func (e *Estimator) GroupRows(inputRows float64, cols []logical.BoundCol) float64 {
	if len(cols) == 0 {
		return 1
	}
	ndv := 1.0
	for _, col := range cols {
		ndv *= e.ColumnNDV(col.Table, col.Name)
	}
	if inputRows < ndv {
		return inputRows
	}
	return ndv
}

const defaultSel = 1.0 / 3

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
