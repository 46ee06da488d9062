//go:build !race

package engine

const RaceEnabled = false
