// Package census is the goroutine census that packages run from their
// TestMain: once every test has run and torn down what it started, the
// goroutine count must fall back to what it was before the first one. A
// goroutine that outlives its test fails the package, whichever test
// started it.
package census

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs m's tests and then the census, and exits with the result.
// settle, if non-nil, runs before the count is taken: the serving
// packages close http.DefaultTransport's idle keep-alive connections
// there, each of which holds a reader and a writer goroutine.
func Main(m *testing.M, settle func()) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	// A fuzzing run leaves the fuzz engine's signal handler running, so
	// the census counts only plain test runs.
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		if settle != nil {
			settle()
		}
		code = wait(baseline, 2*time.Second)
	}
	os.Exit(code)
}

// wait waits up to budget for the goroutine count to fall back to
// baseline. On failure it dumps every goroutine's stack and returns a
// non-zero exit code.
func wait(baseline int, budget time.Duration) int {
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
