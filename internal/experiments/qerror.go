package experiments

import (
	"io"
	"math"
	"sort"

	"raal/internal/physical"
)

// QErrorRow summarizes cardinality estimation quality at one join depth.
type QErrorRow struct {
	Joins  int
	Plans  int
	Median float64
	P90    float64
	Max    float64
}

// QErrorResult analyzes the optimizer's cardinality estimates against
// runtime truth per join count — the error source that cripples GPSJ
// (Table VI) and that the learned models absorb. This is the standard
// analysis of the learned-cardinality literature (Leis et al.'s "How Good
// Are Query Optimizers, Really?"), run on our substrate.
type QErrorResult struct {
	Rows []QErrorRow
}

// QError computes the q-error of every executed join operator in the
// lab's plans, grouped by the number of joins below it.
func QError(lab *Lab) (*QErrorResult, error) {
	if len(lab.Dataset.Plans) == 0 {
		return nil, errNoRecords
	}
	byDepth := map[int][]float64{}
	plansAt := map[int]map[*physical.Plan]bool{}
	for _, p := range lab.Dataset.Plans {
		joins := 0
		for _, n := range p.Nodes {
			switch n.Op {
			case physical.SortMergeJoin, physical.BroadcastHashJoin,
				physical.ShuffledHashJoin, physical.BroadcastNestedLoopJoin:
				joins++
				if n.ActRows > 0 && n.EstRows > 0 {
					q := n.EstRows / n.ActRows
					if q < 1 {
						q = 1 / q
					}
					byDepth[joins] = append(byDepth[joins], q)
					if plansAt[joins] == nil {
						plansAt[joins] = map[*physical.Plan]bool{}
					}
					plansAt[joins][p] = true
				}
			}
		}
	}
	out := &QErrorResult{}
	var depths []int
	for d := range byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		qs := byDepth[d]
		sort.Float64s(qs)
		out.Rows = append(out.Rows, QErrorRow{
			Joins:  d,
			Plans:  len(plansAt[d]),
			Median: quantile(qs, 0.5),
			P90:    quantile(qs, 0.9),
			Max:    qs[len(qs)-1],
		})
	}
	return out, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Print renders the q-error table.
func (r *QErrorResult) Print(w io.Writer) {
	fprintf(w, "Cardinality q-error of join estimates by join depth\n")
	fprintf(w, "%-8s %8s %10s %10s %12s\n", "joins", "plans", "median", "p90", "max")
	for _, row := range r.Rows {
		fprintf(w, "%-8d %8d %10.2f %10.2f %12.2f\n", row.Joins, row.Plans, row.Median, row.P90, row.Max)
	}
	fprintf(w, "(estimation error compounds with join depth — the gap learned cost models absorb)\n")
}
