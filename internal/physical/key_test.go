package physical

import (
	"sync"
	"testing"
)

// TestPlanKeyRenderedOnce: concurrent first calls of Key on a shared plan
// all return the one rendering (race-free under -race), and later calls
// allocate nothing.
func TestPlanKeyRenderedOnce(t *testing.T) {
	query := `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50`
	plans := plansFor(t, query)
	want := plansFor(t, query)[0].renderKey()

	p := plans[0]
	start := make(chan struct{})
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = p.Key()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, k := range got {
		if k != want {
			t.Fatalf("goroutine %d got key %q, want %q", i, k, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _ = p.Key() }); a != 0 {
		t.Fatalf("a memoised Key allocates %v times per call, want 0", a)
	}
	if plans[1].Key() == want {
		t.Fatal("distinct candidate plans must have distinct keys")
	}
}
