package physical_test

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"raal/internal/cardest"
	"raal/internal/datagen"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
)

// checkAgainstReference reports the first way p's statements or key differ
// from the fmt-based reference renderer's, "" when they agree byte for byte.
func checkAgainstReference(p *physical.Plan) string {
	stmts := p.Statements()
	if len(stmts) != len(p.Nodes) {
		return "Statements is not parallel to Nodes"
	}
	for i, n := range p.Nodes {
		want := physical.ReferenceStatement(n)
		if stmts[i] != want {
			return fmt.Sprintf("Statements()[%d] = %q, want %q", i, stmts[i], want)
		}
		if got := n.Statement(); got != want {
			return fmt.Sprintf("node %d: Statement() = %q, want %q", i, got, want)
		}
	}
	if got, want := p.Key(), physical.ReferenceKey(p); got != want {
		return fmt.Sprintf("Key() = %q, want %q", got, want)
	}
	return ""
}

// TestStatementsMatchReference: on the IMDB and TPC-H generated corpora,
// under every planner and with no cap on the candidates, every plan's
// statements and key are the reference renderer's, byte for byte.
func TestStatementsMatchReference(t *testing.T) {
	plans := 0
	for _, c := range corpora(t, 120) {
		for _, pl := range planners(t, c.db) {
			pl.MaxPlans = math.MaxInt
			for _, q := range c.queries {
				got, err := pl.Enumerate(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range got {
					if diff := checkAgainstReference(p); diff != "" {
						t.Fatalf("%s: %s (%s): %s", c.name, q.Stmt, p.Sig, diff)
					}
					plans++
				}
			}
		}
	}
	t.Logf("%d plans", plans)
}

// TestPlanNodesAreOneSlab: a built plan's nodes are one array in execution
// order, allocated at its exact size, and its children one array of
// capacity-capped rows, so an append to a node's Children never reaches
// another node's.
func TestPlanNodesAreOneSlab(t *testing.T) {
	size := unsafe.Sizeof(physical.Node{})
	ptrSize := unsafe.Sizeof((*physical.Node)(nil))
	for _, c := range corpora(t, 60) {
		pl := planners(t, c.db)[1]
		pl.MaxPlans = math.MaxInt
		for _, q := range c.queries {
			plans, err := pl.Enumerate(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				if cap(p.Nodes) != len(p.Nodes) {
					t.Fatalf("%s: %s (%s): Nodes sized %d for %d nodes", c.name, q.Stmt, p.Sig, cap(p.Nodes), len(p.Nodes))
				}
				base := uintptr(unsafe.Pointer(p.Nodes[0]))
				var kids uintptr // where the next node's Children must start
				for i, n := range p.Nodes {
					if uintptr(unsafe.Pointer(n)) != base+uintptr(i)*size {
						t.Fatalf("%s: %s (%s): node %d is not element %d of the plan's slab", c.name, q.Stmt, p.Sig, i, i)
					}
					if len(n.Children) == 0 {
						continue
					}
					if cap(n.Children) != len(n.Children) {
						t.Fatalf("%s: %s (%s): node %d's Children has room to grow", c.name, q.Stmt, p.Sig, i)
					}
					at := uintptr(unsafe.Pointer(&n.Children[0]))
					if kids != 0 && at != kids {
						t.Fatalf("%s: %s (%s): node %d's Children is not next in the plan's children slab", c.name, q.Stmt, p.Sig, i)
					}
					kids = at + uintptr(len(n.Children))*ptrSize
				}
			}
		}
	}
}

// FuzzStatements takes arbitrary query text through parse, bind and
// Enumerate (no cap on candidates) on a tiny IMDB catalog, and holds every
// candidate's Statements and Key to the reference renderer.
func FuzzStatements(f *testing.F) {
	for _, q := range handWritten["imdb"] {
		f.Add(q)
	}
	db := datagen.IMDB(0.001, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		f.Fatal(err)
	}
	pl := physical.NewPlanner(est)
	pl.MaxPlans = math.MaxInt
	binder := logical.NewBinder(db)
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 {
			t.Skip() // the property is exact rendering, not throughput on huge inputs
		}
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		q, err := binder.Bind(stmt)
		if err != nil {
			return
		}
		plans, err := pl.Enumerate(q)
		if err != nil {
			return
		}
		for _, p := range plans {
			if diff := checkAgainstReference(p); diff != "" {
				t.Fatalf("%q (%s): %s", text, p.Sig, diff)
			}
		}
	})
}
