package word2vec

import (
	"testing"

	"raal/internal/census"
)

// TestMain is the package's goroutine census (package census): a Train
// whose producer outlives the call fails the package.
func TestMain(m *testing.M) { census.Main(m, nil) }
