//go:build !race

package raal

const raceEnabled = false
