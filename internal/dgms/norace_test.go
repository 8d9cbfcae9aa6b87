//go:build !race

package dgms

const raceEnabled = false
