package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
)

// The connection drills hold the router's hop to adversarial replicas:
// ones that close idle connections, close after every answer, frame
// bodies every way HTTP/1.1 allows, answer garbage, stall, or lose their
// caller mid-body. They run under the race detector in `make chaos`.

// rawReply is a stub mode for /estimate that reads the request and
// writes reply byte for byte on the hijacked connection, then closes it.
func rawReply(reply string) func(http.ResponseWriter, *http.Request) bool {
	return func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		io.Copy(io.Discard, r.Body)
		c, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return true
		}
		buf.WriteString(reply)
		buf.Flush()
		c.Close()
		return true
	}
}

// paddedBody is a valid EstimateResponse of exactly n bytes.
func paddedBody(n int) string {
	prefix, suffix := `{"cost_sec":1.5,"source":"model","reason":"`, `"}`
	return prefix + strings.Repeat("x", n-len(prefix)-len(suffix)) + suffix
}

// waitOpen waits up to 2s for the replica's server to hold want open
// connections.
func waitOpen(t *testing.T, s *stubReplica, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.open.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica %s holds %d open connection(s), want %d", s.id, s.open.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// idleConns returns how many connections the router keeps idle for id.
func (f *fleetUnderTest) idleConns(id string) int {
	h := f.router.replicas[id].hop
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.idle)
}

// withFallback prices every degraded request at 7.5.
func withFallback(cfg *Config) {
	cfg.Fallback = func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
		return 7.5, nil
	}
}

// TestConnReplicaClosesIdleConnections: a replica that closes every
// connection a few milliseconds after answering leaves the router a
// stale pooled connection for each next request. The router redials it
// without a failed attempt, a failover or a health transition.
func TestConnReplicaClosesIdleConnections(t *testing.T) {
	stubs := make([]*stubReplica, 2)
	for i := range stubs {
		stubs[i] = newStubReplica(fmt.Sprintf("r%d", i), func(s *http.Server) { s.IdleTimeout = 5 * time.Millisecond })
	}
	f := newFleetOf(t, stubs, func(cfg *Config) { cfg.HealthInterval = time.Hour })
	owner := f.findOwner(t, "idle")
	const requests = 5
	for i := 0; i < requests; i++ {
		if i > 0 {
			waitOpen(t, owner, 0) // the replica closed the pooled connection
		}
		if status, er, from := f.estimate(t, "idle"); status != http.StatusOK || er.Degraded || from != owner.id {
			t.Fatalf("request %d: status %d from %q (degraded %v), want the owner's clean 200", i, status, from, er.Degraded)
		}
	}
	if n := owner.accepted.Load(); n != requests {
		t.Fatalf("owner accepted %d connections for %d requests, want one each", n, requests)
	}
	if f.met.Failovers.Value() != 0 || f.moves.count(owner.id, "") != 0 {
		t.Fatalf("failovers %d, owner transitions %d: a stale idle connection must cost nothing",
			f.met.Failovers.Value(), f.moves.count(owner.id, ""))
	}
}

// TestConnReplicaAnswersConnectionClose: an answer with Connection: close
// is relayed, and its connection is closed, not pooled.
func TestConnReplicaAnswersConnectionClose(t *testing.T) {
	f := newFleet(t, 1, func(cfg *Config) { cfg.HealthInterval = time.Hour })
	rep := f.replicas[0]
	rep.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set("Connection", "close")
		return false // the stub's 200
	})
	for i := 0; i < 3; i++ {
		status, body, from := postJSON(t, f.rs.URL+"/estimate", serve.EstimateRequest{SQL: "q"})
		if status != http.StatusOK || body != string(okBody(rep.id)) || from != rep.id {
			t.Fatalf("request %d: %d %s from %q, want the replica's 200 relayed", i, status, body, from)
		}
	}
	waitOpen(t, rep, 0)
	if n := rep.accepted.Load(); n != 3 || f.idleConns(rep.id) != 0 {
		t.Fatalf("replica accepted %d connections for 3 requests, router keeps %d idle; want 3 and 0",
			n, f.idleConns(rep.id))
	}
	if f.moves.count(rep.id, "") != 0 {
		t.Fatal("a Connection: close answer is a clean answer")
	}
}

// TestConnBodyFraming: chunked, close-delimited and HTTP/1.0 answers are
// read whole and relayed when they fit MaxBodyBytes; over it, they fail
// the attempt, count against the replica and fail over. None is pooled.
func TestConnBodyFraming(t *testing.T) {
	const limit = 512
	under, over := paddedBody(limit), paddedBody(limit+1)
	chunked := func(body string) func(http.ResponseWriter, *http.Request) bool {
		return func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/readyz" {
				return false
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body[:100])
			w.(http.Flusher).Flush() // headers go out without a Content-Length
			io.WriteString(w, body[100:])
			return true
		}
	}
	closeDelimited := func(body string) func(http.ResponseWriter, *http.Request) bool {
		return rawReply("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + body)
	}
	http10 := func(body string) func(http.ResponseWriter, *http.Request) bool {
		return rawReply(fmt.Sprintf("HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	}
	for _, tc := range []struct {
		name string
		mode func(string) func(http.ResponseWriter, *http.Request) bool
	}{{"chunked", chunked}, {"close-delimited", closeDelimited}, {"http1.0", http10}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 2, func(cfg *Config) {
				cfg.MaxBodyBytes = limit
				cfg.HealthInterval = time.Hour
			})
			owner := f.findOwner(t, "framed")
			owner.setMode(tc.mode(under))
			status, body, from := postJSON(t, f.rs.URL+"/estimate", serve.EstimateRequest{SQL: "framed"})
			if status != http.StatusOK || body != under || from != owner.id {
				t.Fatalf("under the limit: %d (%d bytes) from %q, want the owner's %d-byte body relayed",
					status, len(body), from, len(under))
			}
			if f.idleConns(owner.id) != 0 || f.moves.count(owner.id, "") != 0 {
				t.Fatal("a body not framed by Content-Length must be read whole and its connection closed")
			}

			owner.setMode(tc.mode(over))
			status, body, from = postJSON(t, f.rs.URL+"/estimate", serve.EstimateRequest{SQL: "framed"})
			if status != http.StatusOK || from == owner.id || body != string(okBody(from)) {
				t.Fatalf("over the limit: %d from %q, want the failover replica's 200", status, from)
			}
			if f.moves.count(owner.id, "suspect") == 0 || f.met.Failovers.Value() != 1 {
				t.Fatal("an oversized body must count against the owner and fail over")
			}
		})
	}
}

// TestConnMalformedAnswersFailOver: an answer that is not HTTP/1.1 as
// the router reads it fails the attempt like a 5xx: it counts against
// the replica and fails over; with every replica malformed the request
// degrades with ErrAllFailed.
func TestConnMalformedAnswersFailOver(t *testing.T) {
	for _, tc := range []struct{ name, reply string }{
		{"status line", "HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}"},
		{"protocol", "HTTP/2.0 200 OK\r\nContent-Length: 2\r\n\r\n{}"},
		{"informational", "HTTP/1.1 100 Continue\r\n\r\n"},
		{"bare LF", "HTTP/1.1 200 OK\nContent-Length: 2\n\n{}"},
		{"conflicting length", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}"},
		{"bad length", "HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}"},
		{"length and chunked", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"},
		{"header without colon", "HTTP/1.1 200 OK\r\nContent-Length 2\r\n\r\n{}"},
		{"folded header", "HTTP/1.1 200 OK\r\nX-A: a\r\n b\r\nContent-Length: 2\r\n\r\n{}"},
		{"header over bound", "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("p", maxHeaderBytes) + "\r\nContent-Length: 2\r\n\r\n{}"},
		{"garbage", "\x00\x01 not http at all"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 2, func(cfg *Config) {
				withFallback(cfg)
				cfg.HealthInterval = time.Hour
			})
			owner := f.findOwner(t, "junk")
			owner.setMode(rawReply(tc.reply))
			status, er, from := f.estimate(t, "junk")
			if status != http.StatusOK || er.Degraded || from == owner.id {
				t.Fatalf("status %d from %q (degraded %v), want a clean 200 from the failover replica", status, from, er.Degraded)
			}
			if f.moves.count(owner.id, "suspect") == 0 || f.met.Failovers.Value() != 1 {
				t.Fatal("a malformed answer must count against the owner and fail over")
			}
			for _, r := range f.replicas {
				r.setMode(rawReply(tc.reply))
			}
			status, er, _ = f.estimate(t, "junk")
			if status != http.StatusOK || !er.Degraded || !strings.Contains(er.Reason, ErrAllFailed.Error()) ||
				!strings.Contains(er.Reason, `Post "http://`) {
				t.Fatalf("status %d %+v, want a degraded 200 naming the all-failed cause in url.Error words", status, er)
			}
		})
	}
}

// TestConnStallAfterHeadersFailsAtAttemptTimeout: a replica that sends
// its headers and then nothing fails the attempt at AttemptTimeout, not
// later.
func TestConnStallAfterHeadersFailsAtAttemptTimeout(t *testing.T) {
	const attemptTimeout = 150 * time.Millisecond
	f := newFleet(t, 1, func(cfg *Config) {
		withFallback(cfg)
		cfg.HealthInterval = time.Hour
		cfg.AttemptTimeout = attemptTimeout
	})
	f.replicas[0].setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		return true
	})
	start := time.Now()
	status, er, _ := f.estimate(t, "stall")
	if elapsed := time.Since(start); elapsed < attemptTimeout || elapsed > 10*attemptTimeout {
		t.Fatalf("the stalled attempt ended after %v, want about AttemptTimeout (%v)", elapsed, attemptTimeout)
	}
	if status != http.StatusOK || !er.Degraded || !strings.Contains(er.Reason, "timeout") {
		t.Fatalf("status %d %+v, want a degraded 200 naming the timeout", status, er)
	}
	waitOpen(t, f.replicas[0], 0)
}

// TestConnCallerCancelClosesNotPooled: the router has read the owner's
// answer's headers and half its body when its caller leaves. The read is
// cut at once and the connection closed, never pooled; the router fails
// over to no other replica and counts nothing against the owner.
func TestConnCallerCancelClosesNotPooled(t *testing.T) {
	f := censusedFleet(t, 2, func(cfg *Config) {
		cfg.HealthInterval = time.Hour
		cfg.AttemptTimeout = 5 * time.Second
	})
	owner := f.findOwner(t, "left")
	midway, cancelled := make(chan struct{}), make(chan struct{})
	owner.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		io.Copy(io.Discard, r.Body) // only then does the server watch the connection
		w.Header().Set("Content-Length", "1000")
		io.WriteString(w, strings.Repeat(" ", 500))
		w.(http.Flusher).Flush()
		close(midway)
		<-r.Context().Done()
		close(cancelled)
		return true
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(serve.EstimateRequest{SQL: "left"})
	req := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.router.ServeHTTP(rec, req)
	}()
	waitFor(t, "the owner to send half its answer", midway)
	start := time.Now()
	cancel()
	waitFor(t, "the router to return after its caller cancelled", done)
	if elapsed := time.Since(start); rec.Code != http.StatusRequestTimeout || elapsed > time.Second {
		t.Fatalf("status %d after %v, want a prompt 408 without waiting out the owner", rec.Code, elapsed)
	}
	waitFor(t, "the owner's connection to be closed", cancelled)
	waitOpen(t, owner, 0)
	if n := f.idleConns(owner.id); n != 0 {
		t.Fatalf("router keeps %d idle connection(s) to the owner, want 0", n)
	}
	if n := f.met.Failovers.Value(); n != 0 || f.moves.count(owner.id, "") != 0 {
		t.Fatalf("%d failover(s), %d owner transition(s): a caller that left is no replica's failure",
			n, f.moves.count(owner.id, ""))
	}
}

// TestConnRouterCloseReleasesConnections: Router.Close closes every idle
// replica connection, and a connection whose request was in flight
// during Close is closed when the request ends instead of being pooled.
// The goroutine census cannot see these: the router's connections own
// no goroutine.
func TestConnRouterCloseReleasesConnections(t *testing.T) {
	f := newFleet(t, 2, nil)
	serve1 := func(sql string) int {
		body, _ := json.Marshal(serve.EstimateRequest{SQL: sql})
		rec := httptest.NewRecorder()
		f.router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)))
		return rec.Code
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serve1(fmt.Sprintf("q%d", i))
		}(i)
	}
	wg.Wait()
	owner := f.findOwner(t, "inflight")
	arrived, release := make(chan struct{}), make(chan struct{})
	owner.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		close(arrived)
		<-release
		return false // the stub's 200
	})
	done := make(chan int)
	go func() { done <- serve1("inflight") }()
	waitFor(t, "the in-flight request to reach its replica", arrived)
	for _, r := range f.replicas {
		if r.open.Load() == 0 {
			t.Fatalf("replica %s holds no router connection before Close", r.id)
		}
	}

	f.router.Close()
	close(release)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("the request in flight during Close ended with %d, want 200", status)
	}
	for _, r := range f.replicas {
		waitOpen(t, r, 0)
		if n := f.idleConns(r.id); n != 0 {
			t.Fatalf("router keeps %d idle connection(s) to %s after Close", n, r.id)
		}
	}
}
