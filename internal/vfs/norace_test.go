//go:build !race

package vfs

const raceEnabled = false
