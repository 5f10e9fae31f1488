//go:build race

package halo

// raceEnabled: the race detector is on, and with it sync.Pool's random drops.
const raceEnabled = true
