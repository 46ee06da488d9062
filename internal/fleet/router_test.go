package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/sql"
	"raal/internal/telemetry"
)

// testPlanner maps any SQL string to a single one-node plan whose Sig is
// the SQL itself, so tests control affinity keys directly. SQL starting
// with "bad" fails like a parse error.
func testPlanner(sql string) ([]*physical.Plan, error) {
	if strings.HasPrefix(sql, "bad") {
		return nil, errors.New("unparsable query")
	}
	return []*physical.Plan{{Sig: sql}}, nil
}

// stubReplica is a scriptable fake replica: swap its behavior mid-test
// with setMode. The default mode answers every estimate with a 200 and
// a readyz with 200. Its server's ConnState hook counts the connections
// accepted and still open.
type stubReplica struct {
	id       string
	ts       *httptest.Server
	hits     atomic.Int64
	accepted atomic.Int64
	open     atomic.Int64
	mode     atomic.Value // func(w http.ResponseWriter, r *http.Request) bool — returns handled
}

func okBody(id string) []byte {
	b, _ := json.Marshal(serve.EstimateResponse{CostSec: 1.5, Source: "model"})
	_ = id
	return b
}

// newStubReplica starts a stub replica; configure, when not nil, adjusts
// its server before it starts.
func newStubReplica(id string, configure func(*http.Server)) *stubReplica {
	s := &stubReplica{id: id}
	s.mode.Store(func(w http.ResponseWriter, r *http.Request) bool { return false })
	s.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			if handled := s.mode.Load().(func(http.ResponseWriter, *http.Request) bool)(w, r); handled {
				return
			}
			w.WriteHeader(http.StatusOK)
			return
		}
		s.hits.Add(1)
		if handled := s.mode.Load().(func(http.ResponseWriter, *http.Request) bool)(w, r); handled {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(okBody(s.id))
	}))
	s.ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			s.accepted.Add(1)
			s.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			s.open.Add(-1)
		}
	}
	if configure != nil {
		configure(s.ts.Config)
	}
	s.ts.Start()
	return s
}

// setMode installs a hook run for every request (readyz included); it
// reports whether it wrote the response.
func (s *stubReplica) setMode(fn func(w http.ResponseWriter, r *http.Request) bool) {
	s.mode.Store(fn)
}

// fleetUnderTest assembles a router over n stub replicas with fast,
// test-friendly timings.
type fleetUnderTest struct {
	replicas []*stubReplica
	router   *Router
	rs       *httptest.Server
	reg      *telemetry.Registry
	met      *Metrics
	moves    *transitionLog
}

func newFleet(t *testing.T, n int, mutate func(*Config)) *fleetUnderTest {
	t.Helper()
	stubs := make([]*stubReplica, n)
	for i := range stubs {
		stubs[i] = newStubReplica(fmt.Sprintf("r%d", i), nil)
	}
	return newFleetOf(t, stubs, mutate)
}

// newFleetOf is newFleet over the given stub replicas.
func newFleetOf(t *testing.T, stubs []*stubReplica, mutate func(*Config)) *fleetUnderTest {
	t.Helper()
	f := &fleetUnderTest{replicas: stubs, reg: telemetry.NewRegistry(), moves: &transitionLog{}}
	var reps []Replica
	var ids []string
	for _, sr := range stubs {
		reps = append(reps, Replica{ID: sr.id, URL: sr.ts.URL})
		ids = append(ids, sr.id)
	}
	f.met = NewMetrics(f.reg, ids)
	cfg := Config{
		Replicas:       reps,
		Planner:        testPlanner,
		HealthInterval: 20 * time.Millisecond,
		AttemptTimeout: time.Second,
		Metrics:        f.met,
		Logger:         slog.New(f.moves),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	router, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = router
	f.rs = httptest.NewServer(router)
	t.Cleanup(func() {
		f.rs.Close()
		f.router.Close()
		for _, r := range f.replicas {
			r.ts.Close()
		}
	})
	return f
}

// estimate posts one request and decodes the answer.
func (f *fleetUnderTest) estimate(t *testing.T, sql string) (int, serve.EstimateResponse, string) {
	t.Helper()
	body, _ := json.Marshal(serve.EstimateRequest{SQL: sql})
	resp, err := http.Post(f.rs.URL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("estimate(%q): %v", sql, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var er serve.EstimateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("estimate(%q): bad 200 body %q: %v", sql, raw, err)
		}
	}
	return resp.StatusCode, er, resp.Header.Get("X-Raal-Replica")
}

func TestRouterAffinityIsSticky(t *testing.T) {
	f := newFleet(t, 3, nil)
	owner := map[string]string{}
	for round := 0; round < 5; round++ {
		for k := 0; k < 20; k++ {
			sql := fmt.Sprintf("q%d", k)
			status, _, rep := f.estimate(t, sql)
			if status != http.StatusOK {
				t.Fatalf("key %s: status %d", sql, status)
			}
			if rep == "" {
				t.Fatal("missing X-Raal-Replica header")
			}
			if prev, ok := owner[sql]; ok && prev != rep {
				t.Fatalf("key %s moved from %s to %s with stable membership", sql, prev, rep)
			}
			owner[sql] = rep
		}
	}
	distinct := map[string]bool{}
	for _, rep := range owner {
		distinct[rep] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("20 keys all landed on one replica: %v", distinct)
	}
}

// ringOwner is the replica ID the ring assigns a query while the whole
// fleet is healthy — the router's own key function, no traffic.
func ringOwner(t *testing.T, rt *Router, sql string) string {
	t.Helper()
	key, err := affinityKey(sql)
	if err != nil {
		t.Fatalf("affinityKey(%q): %v", sql, err)
	}
	return rt.ring.Order(key)[0]
}

// findOwner locates which stub replica the ring assigns a query.
func (f *fleetUnderTest) findOwner(t *testing.T, sql string) *stubReplica {
	t.Helper()
	rep := ringOwner(t, f.router, sql)
	for _, r := range f.replicas {
		if r.id == rep {
			return r
		}
	}
	t.Fatalf("unknown replica %q", rep)
	return nil
}

// countingPlanner wraps testPlanner with a call counter, to pin when the
// router plans.
func countingPlanner(calls *atomic.Int64) serve.PlanFunc {
	return func(sql string) ([]*physical.Plan, error) {
		calls.Add(1)
		return testPlanner(sql)
	}
}

// TestRouterAffinityKeyIsTheTokenStream: routing looks at the SQL's
// tokens only. Spacing and keyword/identifier case do not move a query,
// the allocation does not either (the owner's encode-cache entry is per
// plan), and proxying never calls the router's planner.
func TestRouterAffinityKeyIsTheTokenStream(t *testing.T) {
	var planned atomic.Int64
	f := newFleet(t, 3, func(cfg *Config) { cfg.Planner = countingPlanner(&planned) })
	post := func(req serve.EstimateRequest) string {
		t.Helper()
		status, body, rep := postJSON(t, f.rs.URL+"/estimate", req)
		if status != http.StatusOK {
			t.Fatalf("%+v: status %d %s", req, status, body)
		}
		return rep
	}

	moved := 0
	for k := 0; k < 20; k++ {
		head := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.kind_id < %d AND t.title LIKE ", k)
		base := head + "'The %'"
		owner := post(serve.EstimateRequest{SQL: base})
		if want := ringOwner(t, f.router, base); owner != want {
			t.Fatalf("query %d answered by %s, ring owner is %s", k, owner, want)
		}
		for _, variant := range []string{
			strings.ToLower(head) + "'The %'",
			"  " + strings.ReplaceAll(head, " ", "\n\t ") + "'The %' \r\n",
			strings.ReplaceAll(head, "COUNT(*)", "count ( * )") + "'The %'",
		} {
			if got := post(serve.EstimateRequest{SQL: variant}); got != owner {
				t.Fatalf("variant %q went to %s, the query's owner is %s", variant, got, owner)
			}
		}
		for _, req := range []serve.EstimateRequest{
			{SQL: base, Executors: 2}, {SQL: base, Executors: 8, Cores: 4}, {SQL: base, MemMB: 8192},
		} {
			if got := post(req); got != owner {
				t.Fatalf("allocation %+v went to %s, the query's owner is %s", req, got, owner)
			}
		}
		// A literal's case is data: the key changes, so the owner may.
		if post(serve.EstimateRequest{SQL: head + "'THE %'"}) != owner {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("20 queries with a re-cased string literal all kept their owner: the literal is not in the key")
	}
	if n := planned.Load(); n != 0 {
		t.Fatalf("router planned %d time(s) while every request was proxied, want 0", n)
	}
}

// transitionLog is an slog.Handler that records the router's health
// transitions, so a test can count them per replica and target state.
type transitionLog struct {
	mu    sync.Mutex
	moves []string // "replica:from>to"
}

func (l *transitionLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *transitionLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *transitionLog) WithGroup(string) slog.Handler            { return l }

func (l *transitionLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "replica health transition" {
		return nil
	}
	attr := map[string]string{}
	r.Attrs(func(a slog.Attr) bool {
		attr[a.Key] = a.Value.String()
		return true
	})
	l.mu.Lock()
	l.moves = append(l.moves, attr["replica"]+":"+attr["from"]+">"+attr["to"])
	l.mu.Unlock()
	return nil
}

// count returns how many transitions of replica ended in state to, or
// every transition of replica when to is "".
func (l *transitionLog) count(replica, to string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, m := range l.moves {
		rep, move, _ := strings.Cut(m, ":")
		if rep == replica && (to == "" || strings.HasSuffix(move, ">"+to)) {
			n++
		}
	}
	return n
}

// TestRouterRequestFailuresTakeOwnerDown: an owner whose readyz stays
// green but which answers every request with a 500 leaves rotation on
// request outcomes alone, after at most downAfter failed attempts. It
// then sees no traffic until probes bring it back Recovered, and its
// first failed request sends it straight back Down. The test runs the
// probes itself, so none can land between requests.
func TestRouterRequestFailuresTakeOwnerDown(t *testing.T) {
	f := newFleet(t, 3, func(cfg *Config) { cfg.HealthInterval = time.Hour })
	owner := f.findOwner(t, "hot")
	owner.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false // probes stay green: only requests see the fault
		}
		w.WriteHeader(http.StatusInternalServerError)
		return true
	})
	rep := f.router.replicas[owner.id]
	served := func(i int) {
		t.Helper()
		status, er, from := f.estimate(t, "hot")
		if status != http.StatusOK || er.Degraded || from == owner.id {
			t.Fatalf("request %d: status %d from %q (degraded %v), want a clean 200 from a failover replica",
				i, status, from, er.Degraded)
		}
	}

	for i := 0; rep.health.State().Routable(); i++ {
		if i == downAfter {
			t.Fatalf("owner still routable after %d requests (%d failed attempts)", i, owner.hits.Load())
		}
		served(i)
	}
	if n := owner.hits.Load(); n > downAfter {
		t.Fatalf("owner took %d failed attempts to leave rotation, want at most %d", n, downAfter)
	}
	if f.met.Failovers.Value() == 0 {
		t.Fatal("the 5xx path must record failovers")
	}
	if f.met.ReplicaUp.With(owner.id).Value() != 0 || f.met.Rebalances.Value() != 1 ||
		f.moves.count(owner.id, "down") != 1 || f.met.ProbeFailures.With(owner.id).Value() != 0 {
		t.Fatal("request failures must take the owner down through the one transition path, with no probe failing")
	}

	before := owner.hits.Load()
	for i := 0; i < 5; i++ {
		served(i)
	}
	if owner.hits.Load() != before {
		t.Fatal("a down owner must receive no /estimate traffic")
	}
	for i := 0; i < upAfter; i++ {
		f.router.check(rep)
	}
	if got := rep.health.State(); got != Recovered {
		t.Fatalf("after %d green probes the owner is %v, want recovered", upAfter, got)
	}
	if owner.hits.Load() != before {
		t.Fatal("the owner received /estimate traffic before probes brought it back")
	}
	served(0)
	if got, hits := rep.health.State(), owner.hits.Load(); got != Down || hits != before+1 {
		t.Fatalf("recovered owner is %v after %d more attempt(s), want down after exactly 1", got, hits-before)
	}
}

// TestRouterLoadSignalsFailOverWithoutHealthPenalty: 429 (saturated) and
// 503 (draining) from /estimate are load states, not breakage. With the
// owner's readyz green, the request fails over and counts a failover, and
// the owner stays Healthy with no transition.
func TestRouterLoadSignalsFailOverWithoutHealthPenalty(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(strconv.Itoa(code), func(t *testing.T) {
			f := newFleet(t, 2, nil)
			owner := f.findOwner(t, "busy")
			owner.setMode(func(w http.ResponseWriter, r *http.Request) bool {
				if r.URL.Path == "/readyz" {
					return false
				}
				writeJSON(w, code, serve.ErrorResponse{Error: http.StatusText(code)})
				return true
			})
			for i := 0; i < downAfter+1; i++ {
				status, _, rep := f.estimate(t, "busy")
				if status != http.StatusOK || rep == owner.id {
					t.Fatalf("request %d: status %d from %q, want 200 via failover", i, status, rep)
				}
			}
			if n := f.met.Failovers.Value(); n != downAfter+1 {
				t.Fatalf("failovers = %d, want %d (one per request)", n, downAfter+1)
			}
			if got := f.router.replicas[owner.id].health.State(); got != Healthy || f.moves.count(owner.id, "") != 0 {
				t.Fatalf("owner is %v after %d transition(s), want healthy with none",
					got, f.moves.count(owner.id, ""))
			}
		})
	}
}

func TestRouterClientErrorRelayedWithoutFailover(t *testing.T) {
	f := newFleet(t, 2, nil)
	owner := f.findOwner(t, "cli")
	other := f.replicas[0]
	if other == owner {
		other = f.replicas[1]
	}
	owner.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "replica says no"})
		return true
	})
	otherBefore := other.hits.Load()
	status, _, _ := f.estimate(t, "cli")
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want the replica's 400 relayed", status)
	}
	if other.hits.Load() != otherBefore {
		t.Fatal("client errors are definitive: no failover allowed")
	}
}

// postJSON posts one request to url (router base URL plus endpoint) and
// returns status, trimmed raw body and the answering replica.
func postJSON(t *testing.T, url string, req serve.EstimateRequest) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s %s: %v", url, body, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(bytes.TrimSpace(raw)), resp.Header.Get("X-Raal-Replica")
}

// TestRouterRejectsBadEnvelopeAtTheRouter: what is wrong with the request
// itself — too large, unknown field, no SQL, impossible allocation — is
// answered by the router, before any proxying or planning, with the
// status and error a replica gives for the same body.
func TestRouterRejectsBadEnvelopeAtTheRouter(t *testing.T) {
	var planned atomic.Int64
	f := newFleet(t, 1, func(cfg *Config) {
		cfg.Planner = countingPlanner(&planned)
		cfg.MaxBodyBytes = 256
	})
	for name, c := range map[string]struct {
		body   string
		status int
		want   string
	}{
		"too large":         {`{"sql":"` + strings.Repeat("x", 300) + `"}`, http.StatusRequestEntityTooLarge, "exceeds 256 byte limit"},
		"unknown field":     {`{"sql":"q","bogus":1}`, http.StatusBadRequest, "bad request body"},
		"missing sql":       {`{"executors":2}`, http.StatusBadRequest, `missing \"sql\"`},
		"invalid resources": {`{"sql":"q","executors":-4}`, http.StatusBadRequest, "invalid resources"},
	} {
		resp, err := http.Post(f.rs.URL+"/estimate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || !strings.Contains(string(raw), c.want) {
			t.Errorf("%s: %d %s, want %d mentioning %q", name, resp.StatusCode, raw, c.status, c.want)
		}
	}
	if hits, n := f.replicas[0].hits.Load(), planned.Load(); hits != 0 || n != 0 {
		t.Fatalf("bad envelopes reached the replica %d time(s) and the planner %d time(s), want 0 and 0", hits, n)
	}
}

// TestRouterBadSQLAnsweredByReplicaPlanner: the router does not plan, so
// SQL that does not parse or bind is rejected by the owning replica's
// planner (a real serve.Handler here) and relayed — same status and
// error string a client got when the router planned, no failover, no
// health penalty, and the router's own planner is never called. With
// every replica down the lazy planner call in degrade gives the same
// answer; text the lexer rejects is answered at the router.
func TestRouterBadSQLAnsweredByReplicaPlanner(t *testing.T) {
	reps := []*chaosReplica{newChaosReplica(t, "r0", nil), newChaosReplica(t, "r1", nil)}
	var planned atomic.Int64
	met := NewMetrics(telemetry.NewRegistry(), []string{"r0", "r1"})
	router, err := New(Config{
		Replicas:       []Replica{{ID: "r0", URL: reps[0].ts.URL}, {ID: "r1", URL: reps[1].ts.URL}},
		Planner:        countingPlanner(&planned),
		HealthInterval: 20 * time.Millisecond,
		Metrics:        met,
		Fallback: func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
			return 9, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(router)
	defer func() {
		rs.Close()
		router.Close()
		for _, r := range reps {
			r.ts.Close()
		}
	}()
	const wantErr = `{"error":"unparsable query"}`

	status, body, rep := postJSON(t, rs.URL+"/estimate", serve.EstimateRequest{SQL: "bad query"})
	if status != http.StatusBadRequest || body != wantErr {
		t.Fatalf("bad SQL through a live fleet: %d %s, want 400 %s", status, body, wantErr)
	}
	if want := ringOwner(t, router, "bad query"); rep != want {
		t.Fatalf("400 relayed from %q, want the key's owner %q", rep, want)
	}
	if met.Failovers.Value() != 0 || router.replicas[rep].health.State() != Healthy {
		t.Fatal("a relayed 400 is definitive: no failover or health penalty")
	}
	if n := planned.Load(); n != 0 {
		t.Fatalf("router planned %d time(s) on a proxied request, want 0", n)
	}

	// Text the lexer rejects has no affinity key: the router answers it
	// itself, with the error the replica's parser would have given.
	_, perr := sql.Parse("SELECT a FROM t WHERE a @ 3")
	status, body, rep = postJSON(t, rs.URL+"/estimate", serve.EstimateRequest{SQL: "SELECT a FROM t WHERE a @ 3"})
	if status != http.StatusBadRequest || rep != "" || !strings.Contains(body, "unexpected character") ||
		body != fmt.Sprintf(`{"error":%q}`, perr.Error()) {
		t.Fatalf("unlexable SQL: %d %s from %q, want 400 %q from the router", status, body, rep, perr)
	}

	// Every replica gone: degrade plans lazily, exactly once per request.
	for _, r := range reps {
		r.ts.Close()
	}
	status, body, _ = postJSON(t, rs.URL+"/estimate", serve.EstimateRequest{SQL: "bad query"})
	if status != http.StatusBadRequest || body != wantErr {
		t.Fatalf("bad SQL with the fleet down: %d %s, want 400 %s", status, body, wantErr)
	}
	if n := planned.Load(); n != 1 {
		t.Fatalf("router planned %d time(s) for one degraded request, want 1", n)
	}
	status, body, _ = postJSON(t, rs.URL+"/estimate", serve.EstimateRequest{SQL: "good query"})
	if status != http.StatusOK || !strings.Contains(body, `"degraded":true`) {
		t.Fatalf("good SQL with the fleet down: %d %s, want a degraded 200", status, body)
	}
	if n := planned.Load(); n != 2 {
		t.Fatalf("router planned %d time(s) for two degraded requests, want 2", n)
	}
}

// TestRouterOversizedResponseFailsOver: a replica body one byte over the
// limit is a failed attempt, never a 200 with a cut JSON body. It counts
// against the replica's health and fails over; when every replica does it, the request
// degrades with the typed all-failed cause.
func TestRouterOversizedResponseFailsOver(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Fallback = func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
			return 7.5, nil
		}
	})
	prefix, suffix := `{"cost_sec":1.5,"source":"model","reason":"`, `"}`
	huge := prefix + strings.Repeat("x", 1<<20+1-len(prefix)-len(suffix)) + suffix
	oversized := func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, huge)
		return true
	}
	owner := f.findOwner(t, "big")
	owner.setMode(oversized)
	status, er, rep := f.estimate(t, "big")
	if status != http.StatusOK || er.Degraded || rep == owner.id {
		t.Fatalf("status %d from %q (degraded %v, %d-byte reason), want a clean 200 from the failover replica",
			status, rep, er.Degraded, len(er.Reason))
	}
	if f.moves.count(owner.id, "suspect") == 0 || f.met.Failovers.Value() == 0 {
		t.Fatal("an oversized body must count against the replica's health and fail over")
	}

	for _, r := range f.replicas {
		r.setMode(oversized)
	}
	status, er, _ = f.estimate(t, "big")
	if status != http.StatusOK || !er.Degraded || !strings.Contains(er.Reason, ErrAllFailed.Error()) ||
		!strings.Contains(er.Reason, "exceeds 1048576 byte limit") {
		t.Fatalf("status %d %+v, want a degraded 200 naming the all-failed cause and the limit", status, er)
	}
}

// TestRouterRelaysRedirect: a proxy relays a replica's 3xx as it relays
// any definitive answer; it never follows it with a second request.
func TestRouterRelaysRedirect(t *testing.T) {
	f := newFleet(t, 1, nil)
	rep := f.replicas[0]
	rep.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		w.Header().Set("Location", "/elsewhere")
		writeJSON(w, http.StatusTemporaryRedirect, serve.ErrorResponse{Error: "moved"})
		return true
	})
	status, body, from := postJSON(t, f.rs.URL+"/estimate", serve.EstimateRequest{SQL: "q"})
	if status != http.StatusTemporaryRedirect || body != `{"error":"moved"}` || from != rep.id {
		t.Fatalf("got %d %s from %q, want the replica's 307 relayed", status, body, from)
	}
	if n := rep.hits.Load(); n != 1 {
		t.Fatalf("replica saw %d requests, want 1: the redirect was followed", n)
	}
}

// TestRouterProxyAllocsBounded pins the allocations of one proxied
// /estimate on the benchmark's fleet shape (one replica), counted across
// the whole process: the recorder and request the
// test builds, the router, its hop and the stub replica's server.
// Through http.Client on a per-request forwarding goroutine it was 141;
// on the handler goroutine straight through http.Transport, 121; on the
// router's own pooled connections, read on the handler goroutine, 65; as
// one forwarding chain over the ring order, with no candidate list, 64.
func TestRouterProxyAllocsBounded(t *testing.T) {
	f := newFleet(t, 1, func(cfg *Config) {
		cfg.HealthInterval = time.Hour // keep probes out of the count
	})
	body, _ := json.Marshal(serve.EstimateRequest{
		SQL: "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50"})
	serve1 := func() *httptest.ResponseRecorder {
		req, _ := http.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		f.router.ServeHTTP(rec, req)
		return rec
	}
	rec := serve1()
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), okBody("r0")) ||
		rec.Header().Get("X-Raal-Replica") != "r0" || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("proxied answer %d %q %v, want the replica's body relayed byte for byte", rec.Code, rec.Body, rec.Header())
	}
	const bound = 72 // 65 plus ~10%
	if allocs := testing.AllocsPerRun(1000, func() { serve1() }); allocs > bound {
		t.Fatalf("one proxied /estimate allocates %.1f times, want at most %d", allocs, bound)
	}
}

func TestRouterDegradesWhenAllReplicasDown(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Fallback = func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
			return 7.5, nil
		}
	})
	for _, r := range f.replicas {
		r.ts.Close() // hard kill: connection refused from here on
	}
	status, er, _ := f.estimate(t, "orphan")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 degraded", status)
	}
	if !er.Degraded || er.Source != "fallback" || er.CostSec != 7.5 {
		t.Fatalf("answer = %+v, want degraded fallback at 7.5", er)
	}
	if !strings.Contains(er.Reason, "fleet:") {
		t.Fatalf("reason %q must carry the fleet failure", er.Reason)
	}
	if f.met.Degraded.Value() == 0 {
		t.Fatal("degrade counter must move")
	}
}

// TestRouterDegradeRanksFiniteCostsOnly: a NaN from the fallback can
// neither win the degraded /select (it compares false against
// everything) nor be written out; with no finite cost at all the degrade
// fails like a fallback error does.
func TestRouterDegradeRanksFiniteCostsOnly(t *testing.T) {
	costs := map[string]float64{"p0": math.NaN(), "p1": 5, "p2": 3}
	f := newFleet(t, 1, func(cfg *Config) {
		cfg.Planner = func(string) ([]*physical.Plan, error) {
			return []*physical.Plan{{Sig: "p0"}, {Sig: "p1"}, {Sig: "p2"}}, nil
		}
		cfg.Fallback = func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
			return costs[p.Sig], nil
		}
	})
	f.replicas[0].ts.Close()
	post := func(path string) (int, string) {
		t.Helper()
		status, body, _ := postJSON(t, f.rs.URL+path, serve.EstimateRequest{SQL: "q"})
		return status, body
	}

	status, body := post("/select")
	var er serve.EstimateResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil || status != http.StatusOK {
		t.Fatalf("/select: %d %q (%v), want a degraded 200", status, body, err)
	}
	if !er.Degraded || er.PlanIndex != 2 || er.PlanSig != "p2" || er.CostSec != 3 || er.Candidates != 3 {
		t.Fatalf("/select answer %+v, want plan 2 at cost 3 of 3 candidates", er)
	}
	// /estimate prices plan 0 alone, whose cost is NaN: a typed failure.
	status, body = post("/estimate")
	var fail serve.ErrorResponse
	if err := json.Unmarshal([]byte(body), &fail); err != nil || status != http.StatusServiceUnavailable ||
		!strings.Contains(fail.Error, "no finite cost") {
		t.Fatalf("/estimate: %d %q (%v), want a typed 503 naming the non-finite cost", status, body, err)
	}
}

func TestRouterTypedErrorWhenAllDownAndNoFallback(t *testing.T) {
	var planned atomic.Int64
	f := newFleet(t, 1, func(cfg *Config) { cfg.Planner = countingPlanner(&planned) })
	f.replicas[0].ts.Close()
	body, _ := json.Marshal(serve.EstimateRequest{SQL: "q"})
	resp, err := http.Post(f.rs.URL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var er serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("503 must carry a typed JSON error: %v", err)
	}
	if !strings.Contains(er.Error, "fleet:") {
		t.Fatalf("error %q must name the fleet failure", er.Error)
	}
	if n := planned.Load(); n != 0 {
		t.Fatalf("router planned %d time(s) with no fallback to price a plan, want 0", n)
	}
}

func TestRouterHealthDrivenMembership(t *testing.T) {
	f := newFleet(t, 2, nil)
	owner := f.findOwner(t, "movable")
	// The owner starts reporting not-ready (as a saturated or draining
	// replica would); the checker must take it out of rotation.
	owner.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return true
		}
		return false
	})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !f.router.replicas[owner.id].health.State().Routable() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f.router.replicas[owner.id].health.State().Routable() {
		t.Fatal("replica failing readyz stayed routable past the hysteresis window")
	}
	if f.met.Rebalances.Value() == 0 {
		t.Fatal("routable→down transition must count a rebalance")
	}
	// Requests now route around it without error or delay.
	estBefore := owner.hits.Load()
	status, _, rep := f.estimate(t, "movable")
	if status != http.StatusOK || rep == owner.id {
		t.Fatalf("status=%d rep=%s: keys must fail over to the live replica", status, rep)
	}
	if owner.hits.Load() != estBefore {
		t.Fatal("down replica must receive no estimate traffic")
	}
	// Recovery: readyz greens, the checker brings it back with
	// hysteresis (upAfter oks, then one more ok → healthy).
	owner.setMode(func(w http.ResponseWriter, r *http.Request) bool { return false })
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f.router.replicas[owner.id].health.State() == Healthy {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.router.replicas[owner.id].health.State(); got != Healthy {
		t.Fatalf("replica state = %v after recovery, want healthy", got)
	}
	status, _, rep = f.estimate(t, "movable")
	if status != http.StatusOK || rep != owner.id {
		t.Fatalf("status=%d rep=%s: recovered owner must get its keys back", status, rep)
	}
}

func TestRouterOperationalSurfaces(t *testing.T) {
	f := newFleet(t, 2, nil)
	f.estimate(t, "q1")

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(f.rs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(f.rs.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	var rows []fleetzReplica
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rows) != 2 || rows[0].Health != "healthy" || rows[1].Health != "healthy" {
		t.Fatalf("fleetz rows = %+v", rows)
	}

	resp, err = http.Get(f.rs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"raal_fleet_requests_total{endpoint=\"estimate\"}",
		"raal_fleet_replica_state{replica=\"r0\"}",
		"raal_fleet_failovers_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
	if _, err := New(Config{Replicas: []Replica{{ID: "a", URL: "http://x"}}}); err == nil {
		t.Fatal("missing planner must fail")
	}
	if _, err := New(Config{
		Replicas: []Replica{{ID: "a", URL: "http://x"}, {ID: "a", URL: "http://y"}},
		Planner:  testPlanner,
	}); err == nil {
		t.Fatal("duplicate replica IDs must fail")
	}
	if _, err := New(Config{Replicas: []Replica{{ID: "a", URL: "http://x\x7f"}}, Planner: testPlanner}); err == nil {
		t.Fatal("an unparsable replica URL must fail")
	}
	for _, u := range []string{"https://x:8443", "ftp://x", "x:8080"} {
		if _, err := New(Config{Replicas: []Replica{{ID: "a", URL: u}}, Planner: testPlanner}); !errors.Is(err, ErrScheme) {
			t.Fatalf("replica URL %q: error %v, want ErrScheme", u, err)
		}
	}
	if _, err := New(Config{Replicas: []Replica{{ID: "a", URL: "http:///path"}}, Planner: testPlanner}); err == nil {
		t.Fatal("a replica URL without a host must fail")
	}
}
