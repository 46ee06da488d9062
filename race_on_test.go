//go:build race

package raal

// raceEnabled: the race detector's sync.Pool drops a quarter of what is put
// back, so allocation counts that rely on a warm pool do not hold under it.
const raceEnabled = true
