package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"raal/internal/physical"
	"raal/internal/telemetry"
)

// countingPlanner answers one fresh plan per call (so a shared pointer
// proves the handler kept it), fails "SELECT nope", returns no plan for
// "SELECT empty", and counts calls per text.
type countingPlanner struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingPlanner) plan(query string) ([]*physical.Plan, error) {
	c.mu.Lock()
	c.calls[query]++
	c.mu.Unlock()
	switch query {
	case "SELECT nope":
		return nil, fmt.Errorf("logical: unknown table %q", "nope")
	case "SELECT empty":
		return nil, nil
	}
	return []*physical.Plan{{Sig: query}}, nil
}

func (c *countingPlanner) count(query string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[query]
}

func newMemoHandler(t *testing.T) (*Handler, *countingPlanner, *Metrics) {
	t.Helper()
	cp := &countingPlanner{calls: map[string]int{}}
	met := NewMetrics(telemetry.NewRegistry())
	h, err := NewHandler(mustServer(t, Config{Deep: constEstimator(42)}),
		HTTPConfig{Planner: cp.plan, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	return h, cp, met
}

// TestHandlerPlansEachCanonicalTextOnce: texts with one sql.CanonicalKey
// are planned once and share the kept plan objects; distinct texts are
// planned separately; the counters say which requests planned.
func TestHandlerPlansEachCanonicalTextOnce(t *testing.T) {
	h, cp, met := newMemoHandler(t)
	variants := []string{"SELECT a FROM t", "select A from T", "  SELECT\ta\nFROM t  "}
	var first []*physical.Plan
	for i, q := range variants {
		plans, err := h.plan(q)
		if err != nil || len(plans) != 1 {
			t.Fatalf("%q: %v, %v", q, plans, err)
		}
		if i == 0 {
			first = plans
		} else if plans[0] != first[0] {
			t.Fatalf("%q: got a new plan object; the variants share one canonical key", q)
		}
	}
	if n := cp.count(variants[0]); n != 1 || cp.count(variants[1]) != 0 {
		t.Fatalf("planner called %d times for the first spelling (want 1) and %d for the second (want 0)",
			n, cp.count(variants[1]))
	}
	if plans, _ := h.plan("SELECT b FROM t"); plans[0] == first[0] {
		t.Fatal("a different text must not share plans")
	}
	if h, m := met.PlanMemoHits.Value(), met.PlanMemoMisses.Value(); h != 2 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 2 and 2", h, m)
	}
}

// TestHandlerNeverKeepsFailures: a planner error answers 400 on every
// request and is re-planned each time; so is an empty plan list and text
// the lexer rejects (it has no key).
func TestHandlerNeverKeepsFailures(t *testing.T) {
	h, cp, met := newMemoHandler(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, q := range []string{"SELECT nope", "SELECT empty", "SELECT a @ b"} {
		for i := 0; i < 3; i++ {
			resp, _, body := postEstimate(t, ts, "/estimate", fmt.Sprintf(`{"sql":%q}`, q))
			if q == "SELECT a @ b" {
				// The stub planner accepts anything but its two failures:
				// unkeyed text is planned (and answered) every time.
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%q request %d: status %d (%s)", q, i, resp.StatusCode, body)
				}
				continue
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%q request %d: status %d, want 400 (%s)", q, i, resp.StatusCode, body)
			}
		}
		if n := cp.count(q); n != 3 {
			t.Fatalf("%q planned %d times in 3 requests, want 3 (nothing kept)", q, n)
		}
	}
	if hits := met.PlanMemoHits.Value(); hits != 0 {
		t.Fatalf("%d memo hits, want 0", hits)
	}
}

// TestHandlerPlanEntryIsBounded: the entry holds planMemoCap texts and
// evicts the least recently used one.
func TestHandlerPlanEntryIsBounded(t *testing.T) {
	h, cp, _ := newMemoHandler(t)
	query := func(i int) string { return fmt.Sprintf("SELECT c%d FROM t", i) }
	for i := 0; i <= planMemoCap; i++ { // one more than fits: query(0) is evicted
		if _, err := h.plan(query(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.plan(query(planMemoCap)) // still held
	h.plan(query(0))           // evicted, planned again
	if a, b := cp.count(query(planMemoCap)), cp.count(query(0)); a != 1 || b != 2 {
		t.Fatalf("newest planned %d times (want 1), evicted oldest %d times (want 2)", a, b)
	}
}
