package online

import (
	"net/http"
	"testing"

	"raal/internal/census"
)

// TestMain is the package's goroutine census (package census): a
// retrain, shadow or serving goroutine that outlives its test fails the
// package.
func TestMain(m *testing.M) {
	census.Main(m, http.DefaultTransport.(*http.Transport).CloseIdleConnections)
}
