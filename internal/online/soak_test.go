package online

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"raal/internal/encode"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
)

// TestOnlineSoakNoTornSwap drives a real serve.Server whose deep path
// serves from Manager.Champion() — exactly the raalserve wiring — while
// the champion is promoted and rolled back under it, and proves the
// atomicity claim: every in-flight request sees one coherent model
// generation (its prediction bit-matches exactly one version's expected
// output, checked against the version number the request loaded), and
// zero requests are dropped or degraded across the churn. The served
// sample carries a prefix memo slot, as an encode-cache entry does, while
// the expected outputs come from a memo-less one: a prefix that one
// generation parked and another then read would show as a torn swap. Run
// under -race by `make online`.
func TestOnlineSoakNoTornSwap(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	champ, st := trainChampion(t, 6)
	mgr, err := NewManager(champ, st, Config{Registry: reg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Build three more generations with distinct weights (different
	// training lengths) so a torn read could not masquerade as a valid
	// prediction, and record each one's expected output on a probe.
	probe := synthDataset(1, 61, 1)
	expected := map[int]float64{1: predict(champ, probe)[0]}
	for v := 2; v <= 4; v++ {
		m, s := trainChampion(t, 6+4*v)
		if err := reg.Save(v, m, s); err != nil {
			t.Fatal(err)
		}
		expected[v] = predict(m, probe)[0]
	}
	cached := probe[0].WithResource(probe[0].Resource)
	cached.Memo = new(encode.PlanMemo)
	seen := map[float64]bool{}
	for v, p := range expected {
		if seen[p] {
			t.Fatalf("generation v%d predicts identically to another; the soak could not detect a torn swap", v)
		}
		seen[p] = true
	}

	// The serving closure loads the champion pointer ONCE and uses that
	// generation for the whole request — the invariant under test.
	var torn atomic.Int64
	srv, err := serve.New(serve.Config{
		Concurrency: 8,
		QueueDepth:  1 << 16, // nothing may be shed: every request must complete
		Deep: func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			v := mgr.Champion()
			pred := predict(v.Model, []*encode.Sample{cached})[0]
			if pred != expected[v.Num] {
				torn.Add(1)
				return 0, fmt.Errorf("torn swap: v%d predicted %v, want %v", v.Num, pred, expected[v.Num])
			}
			return pred, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 60
	var wg sync.WaitGroup
	var served, failed, degraded atomic.Int64
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				r, err := srv.Estimate(context.Background(), nil, sparksim.Resources{})
				if err != nil {
					failed.Add(1)
					continue
				}
				if r.Degraded {
					degraded.Add(1)
					continue
				}
				if !seen[r.Cost] {
					t.Errorf("request observed cost %v matching no generation", r.Cost)
				}
				served.Add(1)
			}
		}()
	}
	// Churn the champion through every generation, repeatedly, while the
	// swarm is in flight. Promote loads v2..v4 from the registry on first
	// use and atomically swaps the pointer each time.
	close(start)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 48; k++ {
			if err := mgr.Promote(k%4 + 1); err != nil {
				t.Errorf("promote v%d: %v", k%4+1, err)
				return
			}
			if k%7 == 3 {
				if err := mgr.Rollback(); err != nil {
					t.Errorf("rollback: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done

	if n := torn.Load(); n != 0 {
		t.Fatalf("%d request(s) observed a torn swap", n)
	}
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d request(s) dropped during promotion churn", f)
	}
	if d := degraded.Load(); d != 0 {
		t.Fatalf("%d request(s) degraded during promotion churn", d)
	}
	if s := served.Load(); s != goroutines*perG {
		t.Fatalf("served %d of %d requests", s, goroutines*perG)
	}
	// And the loop is still healthy: the final champion is a real
	// generation with coherent status.
	stat := mgr.Status()
	if _, ok := expected[stat.Champion]; !ok {
		t.Fatalf("final champion v%d is not a known generation", stat.Champion)
	}
}

// TestOnlineAdminEndpoints exercises the /models surface end to end
// against a live manager.
func TestOnlineAdminEndpoints(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	champ, st := trainChampion(t, 4)
	mgr, err := NewManager(champ, st, Config{Registry: reg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m2, s2 := trainChampion(t, 8)
	if err := reg.Save(2, m2, s2); err != nil {
		t.Fatal(err)
	}
	h := mgr.AdminHandler()

	do := func(method, path, body string) (int, Status) {
		t.Helper()
		rec := httptest.NewRecorder()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		var st Status
		if rec.Code == http.StatusOK {
			if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
				t.Fatalf("%s %s: bad JSON: %v", method, path, err)
			}
		}
		return rec.Code, st
	}
	get := func(path string) (int, Status) { return do("GET", path, "") }
	post := func(path, body string) (int, Status) { return do("POST", path, body) }

	if code, st := get("/models"); code != 200 || st.Champion != 1 {
		t.Fatalf("GET /models = %d, %+v", code, st)
	}
	if code, st := post("/models/promote", `{"version":2}`); code != 200 || st.Champion != 2 {
		t.Fatalf("promote = %d, %+v", code, st)
	}
	if code, _ := post("/models/promote", `{"version":99}`); code != 404 {
		t.Fatalf("promoting a ghost version = %d, want 404", code)
	}
	if code, _ := post("/models/promote", `{"version":0}`); code != 400 {
		t.Fatalf("promoting version 0 = %d, want 400", code)
	}
	if code, st := post("/models/rollback", ""); code != 200 || st.Champion != 1 {
		t.Fatalf("rollback = %d, %+v", code, st)
	}
	if code, st := post("/models/pin", `{"pinned":true}`); code != 200 || !st.Pinned {
		t.Fatalf("pin = %d, %+v", code, st)
	}
	if code, _ := post("/models/pin", `{}`); code != 400 {
		t.Fatalf("pin without a value = %d, want 400", code)
	}
	if code, st := post("/models/pin", `{"pinned":false}`); code != 200 || st.Pinned {
		t.Fatalf("unpin = %d, %+v", code, st)
	}
	// The manifest tracks the admin promotions.
	man, err := reg.ReadManifest()
	if err != nil || man.Champion != 1 {
		t.Fatalf("manifest = %+v, %v", man, err)
	}
}
