package raal

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/sql"
	"raal/internal/workload"
)

// outsideLiterals rewrites every byte of q outside string literals with f
// (given the byte's index among those bytes), keeping literals verbatim.
func outsideLiterals(q string, f func(i int, c byte) string) string {
	var b strings.Builder
	in, n := false, 0
	for i := 0; i < len(q); i++ {
		c := q[i]
		if c == '\'' {
			in = !in
		}
		if in || c == '\'' {
			b.WriteByte(c)
			continue
		}
		b.WriteString(f(n, c))
		n++
	}
	return b.String()
}

// spellings returns q in keyword/identifier case and whitespace variants
// that all share q's sql.CanonicalKey.
func spellings(q string) []string {
	upper := func(c byte) byte {
		if 'a' <= c && c <= 'z' {
			return c - 'a' + 'A'
		}
		return c
	}
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c - 'A' + 'a'
		}
		return c
	}
	return []string{
		outsideLiterals(q, func(_ int, c byte) string { return string(lower(c)) }),
		outsideLiterals(q, func(_ int, c byte) string { return string(upper(c)) }),
		outsideLiterals(q, func(i int, c byte) string {
			if i%2 == 0 {
				return string(upper(c))
			}
			return string(lower(c))
		}),
		"\n " + outsideLiterals(q, func(_ int, c byte) string {
			if c == ' ' {
				return " \t\n  "
			}
			return string(c)
		}) + " \r\n",
	}
}

func planKeys(plans []*Plan) []string {
	keys := make([]string, len(plans))
	for i, p := range plans {
		keys[i] = p.Key()
	}
	return keys
}

// TestPlanIsPureFunctionOfCanonicalSQL pins the contract the serving
// handler's plan entry rests on (DESIGN §5o): over a generated corpus,
// every spelling with one sql.CanonicalKey plans to the same Key()s, a
// fresh plan of the same text renders the memoised key, and executing a
// plan (which writes ActRows and Skew) leaves its key unchanged, whether
// the key was rendered before the run or after it.
func TestPlanIsPureFunctionOfCanonicalSQL(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	gen, err := workload.NewIMDBGenerator(sys.db, 26)
	if err != nil {
		t.Fatal(err)
	}
	planned, executed := 0, 0
	for _, q := range gen.Generate(24) {
		plans, err := sys.Plan(q)
		if err != nil {
			continue // the generator may draw a query the binder refuses
		}
		planned++
		key, err := sql.CanonicalKey(q)
		if err != nil {
			t.Fatal(err)
		}
		want := planKeys(plans)
		for _, v := range spellings(q) {
			if k, err := sql.CanonicalKey(v); err != nil || k != key {
				t.Fatalf("spelling %q of %q: key %q, %v; want %q", v, q, k, err, key)
			}
			vp, err := sys.Plan(v)
			if err != nil {
				t.Fatalf("spelling %q of %q: %v", v, q, err)
			}
			if got := planKeys(vp); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("spelling %q of %q planned different plans", v, q)
			}
		}

		fresh, err := sys.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if fresh[0].Key() != want[0] {
			t.Fatalf("%q: re-planning rendered a different key", q)
		}
		fresh, err = sys.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		// The engine refuses runs past its row cap; those plans are
		// priced, never executed, so only the executable ones count.
		if _, err := sys.Execute(plans[0]); err != nil { // key rendered before the run
			continue
		}
		if _, err := sys.Execute(fresh[0]); err != nil { // key first rendered after it
			t.Fatal(err)
		}
		if plans[0].Key() != want[0] || fresh[0].Key() != want[0] {
			t.Fatalf("%q: executing the plan changed its key", q)
		}
		executed++
	}
	t.Logf("%d of 24 generated queries planned, %d executed", planned, executed)
	if planned < 12 || executed < 8 {
		t.Fatalf("%d of 24 generated queries planned and %d executed; the corpus is too thin", planned, executed)
	}
}

// replica is a serve.Handler over its own copy of the shared trained
// model (encode cache on), planning on the shared System behind a mutex
// as raalserve does.
type replica struct {
	cm  *CostModel
	met *serve.Metrics
	h   *serve.Handler
}

func newReplica(t *testing.T, cfg serve.Config) *replica {
	t.Helper()
	sys, _, shared := sharedSystem(t)
	r := &replica{cm: &CostModel{enc: shared.enc, model: shared.model.Clone()}}
	r.cm.EnableEncodeCache(64)
	r.met = serve.NewMetrics(NewMetricsRegistry())
	cfg.Metrics = r.met
	cfg.Deep = r.cm.EstimateCtx
	cfg.DeepBatch = func(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) ([]float64, error) {
		return r.cm.EstimateBatchCtx(ctx, plans, res, PredictOpts{})
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var planMu sync.Mutex
	r.h, err = serve.NewHandler(srv, serve.HTTPConfig{
		Planner: func(q string) ([]*physical.Plan, error) {
			planMu.Lock()
			defer planMu.Unlock()
			return sys.Plan(q)
		},
		Metrics: r.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *replica) post(path, body string) (int, string) {
	rr := httptest.NewRecorder()
	r.h.ServeHTTP(rr, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rr.Code, rr.Body.String()
}

// TestHandlerPlanEntryConcurrentByteIdentical drives concurrent /estimate
// and /select requests through a real Handler over a trained model: four
// queries answered once before the storm (their plan-entry misses) and
// four first seen during it, each in several spellings and two
// allocations. Every answer for one (endpoint, query, allocation) must be
// byte-identical to every other — the miss and each hit — and SQL the
// binder rejects must answer 400 on every request and never be kept.
// Under `make race` this is also the race test for plans shared across
// requests (Plan.Key's lazy render, the encoder, the batch path).
func TestHandlerPlanEntryConcurrentByteIdentical(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	r := newReplica(t, serve.Config{Concurrency: 4, QueueDepth: 256})
	gen, err := workload.NewIMDBGenerator(sys.db, 27)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for len(queries) < 8 {
		q := gen.GenerateOne()
		if _, err := sys.Plan(q); err == nil {
			queries = append(queries, q)
		}
	}
	const bad = "SELECT COUNT(*) FROM nope"
	body := func(q string, executors int) string {
		return fmt.Sprintf(`{"sql":%q,"executors":%d}`, q, executors)
	}
	type reqKey struct {
		path      string
		query     int
		executors int
	}
	paths, allocs := []string{"/estimate", "/select"}, []int{2, 8}

	want := map[reqKey]string{}
	for qi, q := range queries[:4] {
		for _, p := range paths {
			for _, e := range allocs {
				code, b := r.post(p, body(q, e))
				if code != http.StatusOK {
					t.Fatalf("%s %q: %d %s", p, q, code, b)
				}
				want[reqKey{p, qi, e}] = b
			}
		}
	}
	misses0 := r.met.PlanMemoMisses.Value()

	const workers, rounds = 6, 2
	var mu sync.Mutex
	got := map[reqKey][]string{}
	var badCodes []int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range queries {
					qi := (i + w) % len(queries)
					spelled := spellings(queries[qi])[(w+round)%4]
					for _, p := range paths {
						e := allocs[(w+i)%2]
						code, b := r.post(p, body(spelled, e))
						mu.Lock()
						if code == http.StatusOK {
							k := reqKey{p, qi, e}
							got[k] = append(got[k], b)
						} else {
							t.Errorf("%s %q: %d %s", p, spelled, code, b)
						}
						mu.Unlock()
					}
				}
				code, _ := r.post("/estimate", body(bad, 4))
				mu.Lock()
				badCodes = append(badCodes, code)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for k, bodies := range got {
		ref, ok := want[k]
		if !ok {
			ref = bodies[0]
		}
		for _, b := range bodies {
			if b != ref {
				t.Fatalf("%s query %d executors %d: body %s, want %s", k.path, k.query, k.executors, b, ref)
			}
		}
	}
	for i, code := range badCodes {
		if code != http.StatusBadRequest {
			t.Fatalf("bad SQL request %d answered %d, want 400", i, code)
		}
	}
	// Each new good text misses at least once (more when first requests
	// race); each bad request misses every time.
	misses := r.met.PlanMemoMisses.Value() - misses0
	if misses < 4+workers*rounds {
		t.Fatalf("%d misses during the storm, want at least %d", misses, 4+workers*rounds)
	}
	if code, _ := r.post("/estimate", body(bad, 4)); code != http.StatusBadRequest ||
		r.met.PlanMemoMisses.Value() != misses0+misses+1 {
		t.Fatal("a planner error must be re-planned, never served from the plan entry")
	}
}

// TestSharedFreshPlansConcurrentEstimates: requests that share plan
// objects no one has priced yet race on the first Key render and the
// encode-cache fill; every answer must still be bit-equal to pricing a
// separately planned copy on a model without a cache.
func TestSharedFreshPlansConcurrentEstimates(t *testing.T) {
	sys, _, shared := sharedSystem(t)
	const q = `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50`
	ref, err := sys.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := sys.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	plain := &CostModel{enc: shared.enc, model: shared.model.Clone()}
	want := plain.EstimateBatch(ref, res)

	cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
	cm.EnableEncodeCache(64)
	start := make(chan struct{})
	got := make([]float64, 4*len(plans))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], _ = cm.EstimateCtx(context.Background(), plans[i%len(plans)], res)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if math.Float64bits(c) != math.Float64bits(want[i%len(plans)]) {
			t.Fatalf("estimate %d of plan %d: %v, want %v", i, i%len(plans), c, want[i%len(plans)])
		}
	}
}
