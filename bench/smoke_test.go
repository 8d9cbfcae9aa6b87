package main

import (
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload end to end at toy sizes:
// three set-ups, a 2 s window, the correctness check, every end-to-end
// metric present and positive.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up four in-process fleets")
	}
	start := time.Now()
	for _, w := range workloads {
		rep, err := runOne(w.scaled(0.05), options{workload: w.name, seed: 42, seconds: 2, tmp: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < minP90Ops {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := rep.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (present %v)", w.name, d.Name, v, ok)
			}
		}
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("smoke run took %v, budget 20s", took)
	}
}
