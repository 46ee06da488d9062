// Package engine executes physical plans over in-memory columnar data.
//
// It is the single-node "truth oracle" of the reproduction: executing a
// plan yields both the query result and the *actual* per-operator
// cardinalities, which the cluster simulator (internal/sparksim) turns
// into a wall-clock cost and the feature encoder exposes to the learned
// models. Join-algorithm choices (SMJ vs BHJ) produce identical relations
// here — their cost difference materializes only in the simulator, exactly
// as in Spark.
package engine

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is a query result: columns keyed by alias-qualified name
// ("t.id").
type Relation struct {
	N    int
	Ints map[string][]int64
	Strs map[string][]string
}

// NewRelation returns an empty relation.
func NewRelation() *Relation {
	return &Relation{Ints: map[string][]int64{}, Strs: map[string][]string{}}
}

// ColNames returns all column names, sorted.
func (r *Relation) ColNames() []string {
	var names []string
	for n := range r.Ints {
		names = append(names, n)
	}
	for n := range r.Strs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders a compact debug view.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(%d rows: %s)", r.N, strings.Join(r.ColNames(), ","))
}
