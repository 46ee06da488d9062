package raal

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"raal/internal/encode"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

func TestEncodeCacheLRUEviction(t *testing.T) {
	c := newEncodeCache(2)
	a, b, d := new(encode.Sample), new(encode.Sample), new(encode.Sample)
	c.add("a", a)
	c.add("b", b)
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a should be cached")
	}
	c.add("d", d) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if s, ok := c.get("a"); !ok || s != a {
		t.Fatal("a should have survived the eviction")
	}
	if s, ok := c.get("d"); !ok || s != d {
		t.Fatal("d should be cached")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Re-adding an existing key must update in place, not grow.
	c.add("d", a)
	if s, _ := c.get("d"); s != a {
		t.Fatal("re-add should replace the stored sample")
	}
	if c.len() != 2 {
		t.Fatalf("len after re-add = %d, want 2", c.len())
	}
}

func TestPlanKeyFingerprint(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("want multiple candidate plans, got %d", len(plans))
	}
	res := DefaultResources()

	if plans[0].Key() != plans[0].Key() {
		t.Fatal("identical inputs must produce identical keys")
	}
	if plans[0].Key() == plans[1].Key() {
		t.Fatal("different candidate plans must produce different keys")
	}
	// The allocation is outside the cache key and inside the router's
	// affinity key, which is the plan key plus an allocation part.
	res2 := res
	res2.ExecMemMB *= 2
	fp, fp2 := PlanFingerprint(plans[0], res), PlanFingerprint(plans[0], res2)
	if fp == fp2 {
		t.Fatal("different resources must produce different fingerprints")
	}
	if PlanFingerprint(plans[0], res) == PlanFingerprint(plans[1], res) {
		t.Fatal("different candidate plans must produce different fingerprints")
	}
	key := PlanOnlyFingerprint(plans[0])
	if key != plans[0].Key() || !strings.HasPrefix(fp, key) || !strings.HasPrefix(fp2, key) || len(fp) == len(key) {
		t.Fatal("PlanFingerprint must be the plan-only fingerprint followed by the allocation")
	}
	// Fields the encoder never reads must not defeat caching: annotating
	// actual rows after execution keeps the fingerprint stable.
	plans2, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].Key() != plans2[0].Key() {
		t.Fatal("re-planning the same SQL must produce the same key")
	}
	// The key is memoised, so annotate a plan whose key is not rendered yet.
	plans3, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	plans3[0].Nodes[0].ActRows = 12345
	plans3[0].Nodes[0].Skew = 0.9
	if plans[0].Key() != plans3[0].Key() || PlanFingerprint(plans3[0], res) != fp {
		t.Fatal("ActRows/Skew are not encoder inputs and must not change the key")
	}
}

func TestEstimateUsesEncodeCache(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	p, res := plans[0], DefaultResources()

	res2 := res
	res2.Executors = 8
	base, base2 := cm.Estimate(p, res), cm.Estimate(p, res2) // uncached references

	reg := telemetry.NewRegistry()
	cm.Instrument(reg)
	cm.EnableEncodeCache(8)
	t.Cleanup(func() { cm.EnableEncodeCache(0) })

	if got := cm.Estimate(p, res); got != base {
		t.Fatalf("first cached estimate %v != uncached %v", got, base)
	}
	if got := cm.Estimate(p, res); got != base {
		t.Fatalf("repeat cached estimate %v != uncached %v", got, base)
	}
	if h, m := cm.api.encHits.Value(), cm.api.encMisses.Value(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 hit and 1 miss after two identical estimates", h, m)
	}

	// The allocation is outside the key: the same plan under a new
	// allocation is a hit on the same entry, priced as if encoded afresh.
	if got := cm.Estimate(p, res2); got != base2 {
		t.Fatalf("cached estimate under a new allocation %v != uncached %v", got, base2)
	}
	if h, m := cm.api.encHits.Value(), cm.api.encMisses.Value(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2 hits and still 1 miss", h, m)
	}
	if n := cm.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries for one plan under two allocations, want 1", n)
	}
}

// TestEncodeCacheBitIdenticalAcrossAPIs: Estimate, EstimateEachCtx (mixed
// plans and allocations in one batch), EstimateBatch, SelectPlanCtx and
// RecommendResourcesCtx return the same bits with the cache off, with it on
// and cold (every plan encoded, every prefix computed and parked), and
// with it warm (every plan a hit, every prefix reused).
func TestEncodeCacheBitIdenticalAcrossAPIs(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	query := `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50`
	plans, err := sys.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultResourceGrid()[:10]

	plain := probeAll(t, cm, plans, grid)

	cm.EnableEncodeCache(64)
	t.Cleanup(func() { cm.EnableEncodeCache(0) })
	mustEqualBits(t, "cold cache", probeAll(t, cm, plans, grid), plain)
	mustEqualBits(t, "warm cache", probeAll(t, cm, plans, grid), plain)
}

// TestServeEncodeCacheSkipsReencode drives the HTTP serving stack end to
// end. Three requests: a text, the same text with a trailing ';' (another
// sql.CanonicalKey, so the handler plans it afresh into new plan objects),
// and the first text again (the handler's plan entry answers). The second
// and third must hit the encode cache — the second proves the cache is
// keyed on the plan's fingerprint, not on pointer identity — and the
// answers must be byte-identical. The cache and plan-entry counters must
// be visible in the /metrics exposition.
func TestServeEncodeCacheSkipsReencode(t *testing.T) {
	sys, _, cm := sharedSystem(t)

	reg := telemetry.NewRegistry()
	met := serve.NewMetrics(reg)
	cm.Instrument(reg)
	cm.EnableEncodeCache(32)
	t.Cleanup(func() { cm.EnableEncodeCache(0) })

	srv, err := serve.New(serve.Config{
		Deep: func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			return cm.EstimateCtx(ctx, p, res)
		},
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := serve.NewHandler(srv, serve.HTTPConfig{
		Planner: sys.Plan,
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}

	query := "SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100"
	var costs []string
	for i, q := range []string{query, query + ";", query} {
		req := httptest.NewRequest("POST", "/estimate", strings.NewReader(`{"sql": "`+q+`"}`))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		costs = append(costs, rr.Body.String())
	}
	if costs[0] != costs[1] || costs[0] != costs[2] {
		t.Fatalf("cached requests changed the response: %q", costs)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	for name, want := range map[string]float64{
		"raal_encode_cache_misses_total":    1, // the first request encodes
		"raal_encode_cache_hits_total":      2, // the re-planned and the remembered plan do not
		"raal_serve_plan_memo_misses_total": 2, // two canonical texts
		"raal_serve_plan_memo_hits_total":   1, // the repeat
	} {
		if got := metricValue(t, rr.Body.String(), name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// metricValue extracts a counter's value from a Prometheus text exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		if err != nil {
			t.Fatalf("parsing %s from %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, exposition)
	return 0
}
