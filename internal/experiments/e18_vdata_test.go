package experiments

import (
	"testing"
	"time"
)

// TestRunVdataSmoke runs a tiny vdata phase end to end and checks the
// claims E18 asserts, plus the two speedups it only prints (at this
// scale a miss is a 5 ms sleep and a hit a map read, so > 1 is safe).
func TestRunVdataSmoke(t *testing.T) {
	rep, err := runVdata(4, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.hitRate < 1 {
		t.Errorf("hit rate = %.2f, want 1.00 on the warm pass", rep.hitRate)
	}
	if rep.warmSpeedup <= 1 {
		t.Errorf("warm speedup = %.2f, want > 1", rep.warmSpeedup)
	}
	if rep.replayedEntries != rep.entries || rep.entries != 4 {
		t.Errorf("durability: entries=%d replayed=%d, want 4/4", rep.entries, rep.replayedEntries)
	}
	if rep.remoteHits != 4 {
		t.Errorf("remote hits = %d, want 4", rep.remoteHits)
	}
	if rep.remoteSpeedup <= 1 {
		t.Errorf("remote speedup = %.2f, want > 1", rep.remoteSpeedup)
	}
}
