//go:build !race

package provenance

const raceEnabled = false
