//go:build !race

package tenant

const raceEnabled = false
