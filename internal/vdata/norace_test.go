//go:build !race

package vdata

const raceEnabled = false
