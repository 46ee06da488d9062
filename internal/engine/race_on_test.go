//go:build race

package engine

// RaceEnabled: the race detector's sync.Pool drops a quarter of what is put
// back, so allocation counts that rely on a warm pool do not hold under it.
// It is exported for the external test package.
const RaceEnabled = true
