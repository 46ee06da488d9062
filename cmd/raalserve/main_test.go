package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"raal"
	"raal/internal/census"
)

// The census fails the package if any run leaves a goroutine behind: a
// listener, the router's probes, or the -online feedback worker.
func TestMain(m *testing.M) {
	census.Main(m, http.DefaultTransport.(*http.Transport).CloseIdleConnections)
}

const joinSQL = "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id"

// logBuffer is the stderr run logs to, read by the test while run writes.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// server is one raalserve run on its own goroutine, as main launches it.
type server struct {
	log    logBuffer
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func start(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.err = run(ctx, args, io.Discard, &s.log)
	}()
	t.Cleanup(func() { s.stop() })
	return s
}

// addr waits for the "<name> addr=host:port" line a bound surface logs.
func (s *server) addr(t *testing.T, name string) string {
	t.Helper()
	re := regexp.MustCompile(`msg="?` + name + `"? addr=(\S+)`)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(s.log.String()); m != nil {
			return "http://" + m[1]
		}
		select {
		case <-s.done:
			t.Fatalf("run returned %v before %s:\n%s", s.err, name, s.log.String())
		default:
		}
	}
	t.Fatalf("no %q line:\n%s", name, s.log.String())
	return ""
}

// stop cancels run's ctx, as SIGTERM does, and returns run's error.
func (s *server) stop() error {
	s.cancel()
	<-s.done
	return s.err
}

// post sends an estimate request and decodes the answer.
func post(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"sql": "`+joinSQL+`", "executors": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %v", url, resp.StatusCode, body)
	}
	return resp, body
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return string(b)
}

// tinyModel writes what `raaltrain -scale 0.03 -queries 12 -epochs 1
// -out` writes: the library calls that command makes, at its defaults.
func tinyModel(t *testing.T) string {
	t.Helper()
	sys, err := raal.Open(raal.IMDB, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sys.Collect(raal.CollectOptions{NumQueries: 12, ResStatesPerPlan: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{Epochs: 1, LR: 3e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.raal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := cm.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// A replica on a trained model answers both endpoints from the model,
// with the online loop and the admin listener armed, and a cancelled ctx
// drains it and ends the feedback worker (the census checks that).
func TestReplicaServesTrainedModel(t *testing.T) {
	s := start(t, "-addr", "127.0.0.1:0", "-scale", "0.03", "-model", tinyModel(t),
		"-online", "-online-dir", t.TempDir(), "-admin", "127.0.0.1:0", "-pprof")
	base, admin := s.addr(t, "listening"), s.addr(t, "admin listening")
	for _, endpoint := range []string{"/estimate", "/select"} {
		if _, body := post(t, base+endpoint); body["source"] != "model" {
			t.Errorf("%s answered %v, want source model", endpoint, body)
		}
	}
	if m := get(t, admin+"/metrics"); !strings.Contains(m, "raal_serve_") {
		t.Errorf("admin /metrics lacks the serving metrics:\n%.300s", m)
	}
	if models := get(t, admin+"/models"); !strings.Contains(models, "champion") {
		t.Errorf("admin /models = %.300s", models)
	}
	get(t, admin+"/debug/pprof/")
	get(t, base+"/cachez")
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
}

// raalserve -route over two replicas answers both endpoints through one
// of them, then drains within -drain once its ctx is cancelled.
func TestRouterOverTwoReplicas(t *testing.T) {
	r0 := start(t, "-addr", "127.0.0.1:0", "-scale", "0.03")
	r1 := start(t, "-addr", "127.0.0.1:0", "-scale", "0.03")
	spec := "r0=" + r0.addr(t, "listening") + ",r1=" + r1.addr(t, "listening")
	const drain = 2 * time.Second
	router := start(t, "-addr", "127.0.0.1:0", "-scale", "0.03", "-drain", drain.String(), "-route", spec)
	base := router.addr(t, "listening")
	for _, endpoint := range []string{"/estimate", "/select"} {
		resp, body := post(t, base+endpoint)
		if id := resp.Header.Get("X-Raal-Replica"); id != "r0" && id != "r1" {
			t.Errorf("%s answered by %q, want a replica: %v", endpoint, id, body)
		}
		if body["degraded"] != false {
			t.Errorf("%s degraded: %v", endpoint, body)
		}
	}
	if fleetz := get(t, base+"/fleetz"); !strings.Contains(fleetz, "r1") {
		t.Errorf("/fleetz = %s", fleetz)
	}
	begin := time.Now()
	if err := router.stop(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > drain {
		t.Errorf("router took %v to drain, budget %v", took, drain)
	}
}

// Every invalid flag combination returns an error naming the problem;
// none exits the process. The ctx is cancelled from the start, so a case
// that wrongly reaches serving returns nil at once instead of hanging.
func TestInvalidFlagsReturnErrors(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	cases := map[string][]string{
		"-pprof requires -admin":                {"-pprof"},
		"-online requires -model":               {"-online"},
		"-on-deadline must be fallback or fail": {"-on-deadline", "never"},
		"-log-level must be":                    {"-log-level", "loud"},
		"-route needs at least one replica":     {"-route", ""},
		"flag provided but not defined":         {"-fault-seed", "42"},
		"address already in use":                {"-addr", busy.Addr().String()},
	}
	for _, name := range replicaOnly {
		cases["-"+name+" configures a replica"] = []string{"-route", "http://127.0.0.1:1", "-" + name + "=" + map[string]string{
			"online": "true", "pprof": "true", "encode-cache": "0", "concurrency": "1",
			"queue": "1", "deadline": "1s", "on-deadline": "fail",
		}[name]}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for want, args := range cases {
		args = append([]string{"-addr", "127.0.0.1:0", "-scale", "0.03"}, args...)
		if err := run(ctx, args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("raalserve %q: error %v, want one containing %q", args, err, want)
		}
	}
}
