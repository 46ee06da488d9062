package serve

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain is the package's goroutine census: once every test has run and
// torn down its servers, the goroutine count must return to what it was
// before the first one. An abandoned estimator call or a connection that
// outlives its test fails the package, whichever test started it.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	// A fuzzing run leaves the fuzz engine's signal handler running, so
	// the census counts only plain test runs.
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		code = goroutineCensus(baseline, 2*time.Second)
	}
	os.Exit(code)
}

// goroutineCensus waits up to budget for the goroutine count to fall back
// to baseline. The tests' clients share http.DefaultTransport, whose idle
// keep-alive connections each hold a reader and a writer goroutine, so
// those are closed first. On failure it dumps every goroutine's stack
// and returns a non-zero exit code.
func goroutineCensus(baseline int, budget time.Duration) int {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(budget)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n\n%s\n",
				runtime.NumGoroutine(), baseline, buf)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0
}
