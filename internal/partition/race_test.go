//go:build race

package partition

// raceEnabled: the race detector is on, and with it sync.Pool's random drops.
const raceEnabled = true
