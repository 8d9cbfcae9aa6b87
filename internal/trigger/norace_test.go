//go:build !race

package trigger

const raceEnabled = false
