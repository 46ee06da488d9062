package autodiff

import (
	"testing"

	"raal/internal/census"
)

// TestMain is the package's goroutine census (package census): a
// Backward's leaf worker that outlives the call fails the package.
func TestMain(m *testing.M) { census.Main(m, nil) }
