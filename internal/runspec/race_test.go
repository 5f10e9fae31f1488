//go:build race

package runspec

// raceEnabled: the race detector is on, and with it allocations of its own.
const raceEnabled = true
