package catalog

import (
	"fmt"
	"sort"
)

// Bucket is one equi-depth histogram bucket: Count values fall in
// (previous bucket's Upper, Upper].
type Bucket struct {
	Upper int64
	Count int
}

// ColumnStats summarizes one column for cardinality estimation.
type ColumnStats struct {
	Min, Max int64    // int columns only
	NDV      int      // number of distinct values
	Hist     []Bucket // equi-depth histogram, int columns only
	TopVals  []string // most common string values (string columns only)
	TopFreqs []int    // frequencies matching TopVals
	// MCVs are the most common integer values with their frequencies —
	// essential for equality selectivity on zipf-skewed foreign keys,
	// where 1/NDV underestimates hot keys by orders of magnitude.
	MCVs     []int64
	MCVFreqs []int
	Rows     int
}

// TableStats summarizes a table.
type TableStats struct {
	Rows      int
	SizeBytes int64 // simulated on-disk footprint
	Columns   map[string]*ColumnStats
}

// bytesPerIntCol is the simulated storage width of an int64 column value,
// and bytesPerStrCol an average string value (Parquet-ish, uncompressed).
const (
	bytesPerIntCol = 8
	bytesPerStrCol = 24
)

// ComputeStats scans a table and builds per-column statistics. buckets is
// the histogram resolution for int columns (≥1); topK bounds the common
// value list for string columns.
func ComputeStats(t *Table, buckets, topK int) (*TableStats, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("catalog: need at least 1 histogram bucket, got %d", buckets)
	}
	ts := &TableStats{Rows: t.NumRows, Columns: map[string]*ColumnStats{}}
	for _, c := range t.Schema.Columns {
		switch c.Type {
		case Int64:
			ts.Columns[c.Name] = intStats(t.IntCol(c.Name), buckets, topK)
			ts.SizeBytes += int64(t.NumRows) * bytesPerIntCol
		case String:
			ts.Columns[c.Name] = strStats(t.StrCol(c.Name), topK)
			ts.SizeBytes += int64(t.NumRows) * bytesPerStrCol
		}
	}
	return ts, nil
}

func intStats(vals []int64, buckets, topK int) *ColumnStats {
	cs := &ColumnStats{Rows: len(vals)}
	if len(vals) == 0 {
		return cs
	}
	sorted := make([]int64, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cs.Min = sorted[0]
	cs.Max = sorted[len(sorted)-1]
	ndv := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			ndv++
		}
	}
	cs.NDV = ndv

	// Most common values: a single pass over the sorted data finds run
	// lengths; keep the topK longest.
	if topK > 0 {
		type run struct {
			v int64
			n int
		}
		var runs []run
		start := 0
		for i := 1; i <= len(sorted); i++ {
			if i == len(sorted) || sorted[i] != sorted[start] {
				runs = append(runs, run{sorted[start], i - start})
				start = i
			}
		}
		sort.Slice(runs, func(a, b int) bool {
			if runs[a].n != runs[b].n {
				return runs[a].n > runs[b].n
			}
			return runs[a].v < runs[b].v
		})
		if topK > len(runs) {
			topK = len(runs)
		}
		for _, r := range runs[:topK] {
			cs.MCVs = append(cs.MCVs, r.v)
			cs.MCVFreqs = append(cs.MCVFreqs, r.n)
		}
	}

	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	per := len(sorted) / buckets
	rem := len(sorted) % buckets
	idx := 0
	for b := 0; b < buckets; b++ {
		n := per
		if b < rem {
			n++
		}
		if n == 0 {
			continue
		}
		idx += n
		upper := sorted[idx-1]
		// Merge buckets that share an upper bound (heavy hitters).
		if len(cs.Hist) > 0 && cs.Hist[len(cs.Hist)-1].Upper == upper {
			cs.Hist[len(cs.Hist)-1].Count += n
		} else {
			cs.Hist = append(cs.Hist, Bucket{Upper: upper, Count: n})
		}
	}
	return cs
}

func strStats(vals []string, topK int) *ColumnStats {
	cs := &ColumnStats{Rows: len(vals)}
	freq := map[string]int{}
	for _, v := range vals {
		freq[v]++
	}
	cs.NDV = len(freq)
	type kv struct {
		k string
		v int
	}
	all := make([]kv, 0, len(freq))
	for k, v := range freq {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if topK > len(all) {
		topK = len(all)
	}
	for _, e := range all[:topK] {
		cs.TopVals = append(cs.TopVals, e.k)
		cs.TopFreqs = append(cs.TopFreqs, e.v)
	}
	return cs
}

// SelectivityLess estimates the fraction of rows with value < x (or ≤ x
// when orEqual) using the histogram, assuming uniformity within buckets.
func (cs *ColumnStats) SelectivityLess(x int64, orEqual bool) float64 {
	if cs.Rows == 0 || len(cs.Hist) == 0 {
		return 0.1
	}
	if x < cs.Min {
		return 0
	}
	bound := cs.Max
	if x >= bound {
		return 1
	}
	var count float64
	lower := cs.Min - 1
	for _, b := range cs.Hist {
		if x > b.Upper {
			count += float64(b.Count)
			lower = b.Upper
			continue
		}
		// x falls inside this bucket; interpolate.
		width := float64(b.Upper - lower)
		if width <= 0 {
			width = 1
		}
		frac := float64(x-lower) / width
		if !orEqual {
			frac = float64(x-lower-1) / width
		}
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		count += float64(frac * float64(b.Count))
		break
	}
	s := count / float64(cs.Rows)
	if s < 0 {
		s = 0
	} else if s > 1 {
		s = 1
	}
	return s
}

// SelectivityEq estimates equality selectivity for an unknown literal:
// the uniform 1/NDV assumption.
func (cs *ColumnStats) SelectivityEq() float64 {
	if cs.NDV == 0 {
		return 0
	}
	return 1 / float64(cs.NDV)
}

// SelectivityEqInt estimates the fraction of rows equal to v, using the
// most-common-value list when v is in it and the uniform assumption over
// the remainder otherwise.
func (cs *ColumnStats) SelectivityEqInt(v int64) float64 {
	if cs.Rows == 0 {
		return 0
	}
	if v < cs.Min || v > cs.Max {
		return 0
	}
	var mcvTotal int
	for i, mv := range cs.MCVs {
		if mv == v {
			return float64(cs.MCVFreqs[i]) / float64(cs.Rows)
		}
		mcvTotal += cs.MCVFreqs[i]
	}
	rare := cs.NDV - len(cs.MCVs)
	if rare <= 0 {
		return 0
	}
	rest := cs.Rows - mcvTotal
	if rest <= 0 {
		return 0
	}
	return float64(rest) / float64(rare) / float64(cs.Rows)
}

// SelectivityEqStr estimates equality selectivity for a string literal,
// using the common-value list when the literal is in it.
func (cs *ColumnStats) SelectivityEqStr(v string) float64 {
	for i, tv := range cs.TopVals {
		if tv == v {
			return float64(cs.TopFreqs[i]) / float64(cs.Rows)
		}
	}
	// Not a common value: assume it is one of the remaining distinct values.
	rare := cs.NDV - len(cs.TopVals)
	if rare <= 0 {
		return 0
	}
	var topTotal int
	for _, f := range cs.TopFreqs {
		topTotal += f
	}
	rest := cs.Rows - topTotal
	if rest <= 0 {
		return 0
	}
	return float64(rest) / float64(rare) / float64(cs.Rows)
}
