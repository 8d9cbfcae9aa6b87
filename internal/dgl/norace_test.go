//go:build !race

package dgl

const raceEnabled = false
