//go:build !race

package namespace

const raceEnabled = false
