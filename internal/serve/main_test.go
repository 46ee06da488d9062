package serve

import (
	"net/http"
	"testing"

	"raal/internal/census"
)

// TestMain is the package's goroutine census (package census): an
// abandoned estimator call or a connection that outlives its test fails
// the package.
func TestMain(m *testing.M) {
	census.Main(m, http.DefaultTransport.(*http.Transport).CloseIdleConnections)
}
