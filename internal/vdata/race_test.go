//go:build race

package vdata

// raceEnabled: the detector's instrumentation allocates, so the
// allocation budgets are skipped under -race.
const raceEnabled = true
