//go:build race

package dgms

// raceEnabled: the detector's instrumentation allocates, so the
// allocation budgets are skipped under -race.
const raceEnabled = true
