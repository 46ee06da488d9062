package fleet

import (
	"net/http"
	"testing"

	"raal/internal/census"
)

// TestMain is the package's goroutine census (package census): a probe
// loop or hedge chain that outlives Router.Close fails the package.
func TestMain(m *testing.M) {
	census.Main(m, http.DefaultTransport.(*http.Transport).CloseIdleConnections)
}
