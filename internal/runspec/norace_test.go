//go:build !race

package runspec

const raceEnabled = false
