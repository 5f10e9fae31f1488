//go:build race

package service

// raceEnabled: the race detector is on, and with it sync.Pool's random drops.
const raceEnabled = true
