//go:build !race

package physical

const raceEnabled = false
