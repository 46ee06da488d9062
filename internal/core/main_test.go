package core

import (
	"testing"

	"raal/internal/census"
)

// TestMain is the package's goroutine census (package census): a
// training shard, a Backward's leaf worker or a scoring goroutine that
// outlives its call fails the package.
func TestMain(m *testing.M) { census.Main(m, nil) }
