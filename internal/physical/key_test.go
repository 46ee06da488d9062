package physical

import (
	"slices"
	"sync"
	"testing"

	"raal/internal/sql"
)

// TestPlanKeyRenderedOnce: concurrent first calls of Statements and Key on a
// shared plan all return the one rendering (race-free under -race), and
// later calls allocate nothing.
func TestPlanKeyRenderedOnce(t *testing.T) {
	query := `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50`
	plans := plansFor(t, query)
	fresh := plansFor(t, query)[0]
	want := fresh.renderKey()
	var wantStmts []string
	for _, n := range fresh.Nodes {
		wantStmts = append(wantStmts, n.Statement())
	}

	p := plans[0]
	start := make(chan struct{})
	got := make([]string, 8)
	gotStmts := make([][]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Half the goroutines reach the statements through Key.
			if i%2 == 0 {
				gotStmts[i] = p.Statements()
				got[i] = p.Key()
			} else {
				got[i] = p.Key()
				gotStmts[i] = p.Statements()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, k := range got {
		if k != want {
			t.Fatalf("goroutine %d got key %q, want %q", i, k, want)
		}
		if !slices.Equal(gotStmts[i], wantStmts) {
			t.Fatalf("goroutine %d got statements %q, want %q", i, gotStmts[i], wantStmts)
		}
		if &gotStmts[i][0] != &gotStmts[0][0] {
			t.Fatalf("goroutine %d got its own rendering of the statements", i)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _ = p.Key() }); a != 0 {
		t.Fatalf("a memoised Key allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = p.Statements() }); a != 0 {
		t.Fatalf("memoised Statements allocate %v times per call, want 0", a)
	}
	if plans[1].Key() == want {
		t.Fatal("distinct candidate plans must have distinct keys")
	}
}

// TestPlanKeyAllocsBounded: once the statements exist, rendering the key
// is one buffer, sized up front, and one string.
func TestPlanKeyAllocsBounded(t *testing.T) {
	var plans []*Plan
	for i := 0; i < 8; i++ {
		plans = append(plans, plansFor(t, threeJoinQuery)...)
	}
	for _, p := range plans {
		p.Statements()
	}
	i := 0
	// AllocsPerRun calls the function once more than it averages over, and
	// every call must render a key not rendered yet.
	if a := testing.AllocsPerRun(len(plans)-1, func() { _ = plans[i].Key(); i++ }); a > 2 {
		t.Fatalf("Key after Statements allocates %v times per plan, want <= 2", a)
	}
}

// threeJoinQuery joins four tables.
const threeJoinQuery = `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk, company_name cn
	WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND cn.id = mc.company_id AND mk.keyword_id < 100`

// TestEnumerateAllocsBounded pins that enumeration renders nothing and
// allocates per plan, not per node: statements and keys are rendered on
// first use, and most candidates never see one, and each plan's nodes and
// children come from one slab each. Enumerate makes 112 allocations here;
// the bound is that plus 10%.
func TestEnumerateAllocsBounded(t *testing.T) {
	pl, binder := newPlanner(t)
	stmt, err := sql.Parse(threeJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, err := binder.Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(20, func() {
		if _, err := pl.Enumerate(q); err != nil {
			t.Fatal(err)
		}
	})
	if a > 123 {
		t.Fatalf("Enumerate of a 3-join query allocates %v times, want <= 123", a)
	}
}
