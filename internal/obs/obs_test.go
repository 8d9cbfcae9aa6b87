package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/sim"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 32, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Re-resolve through the registry each time to exercise
				// the lookup path under contention, not just the atomic.
				r.Counter("c_total", "k", "v").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "k", "v").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (negative add ignored)", got)
	}
}

func TestGaugeUpDown(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(10)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Histogram("h_seconds", "op", "x").Observe(float64(w%4) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms in snapshot = %d, want 1", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	if hp.Count != workers*per {
		t.Fatalf("count = %d, want %d", hp.Count, workers*per)
	}
	if hp.Min != 0.5 || hp.Max != 3.5 {
		t.Fatalf("min/max = %v/%v, want 0.5/3.5", hp.Min, hp.Max)
	}
	var total int64
	for _, c := range hp.Counts {
		total += c
	}
	if total != hp.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, hp.Count)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("depth", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 2, 3, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hp := snap.Histograms[0]
	// <=1: 0.5 and 1; <=2: 2; <=4: 3; +Inf: 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hp.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hp.Counts[i], w, hp.Counts)
		}
	}
}

func TestLabelsSeparateSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "op", "a").Inc()
	r.Counter("ops_total", "op", "b").Add(2)
	if got := r.Counter("ops_total", "op", "a").Value(); got != 1 {
		t.Fatalf("series a = %d, want 1", got)
	}
	if got := r.Counter("ops_total", "op", "b").Value(); got != 2 {
		t.Fatalf("series b = %d, want 2", got)
	}
	// Label order must not mint a new series.
	r.Counter("multi_total", "a", "1", "b", "2").Inc()
	r.Counter("multi_total", "b", "2", "a", "1").Inc()
	if got := r.Counter("multi_total", "a", "1", "b", "2").Value(); got != 2 {
		t.Fatalf("label-order-insensitive series = %d, want 2", got)
	}
}

// TestSnapshotDeterministicVirtualClock is the sim-time contract: two
// registries fed the same operations on the same virtual clock produce
// byte-identical snapshot JSON, regardless of registration order.
func TestSnapshotDeterministicVirtualClock(t *testing.T) {
	build := func(order []string) []byte {
		clock := sim.NewVirtualClock(sim.Epoch)
		r := NewRegistry()
		r.SetNow(clock.Now)
		for _, name := range order {
			r.Counter(name, "k", "v").Inc()
		}
		clock.Sleep(90 * time.Minute)
		r.Gauge("running").Set(4)
		r.Histogram("lat_seconds").Observe(clock.Now().Sub(sim.Epoch).Seconds())
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := build([]string{"c1_total", "c2_total", "c3_total"})
	b := build([]string{"c3_total", "c1_total", "c2_total"})
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.At.Equal(sim.Epoch.Add(90 * time.Minute)) {
		t.Fatalf("snapshot At = %v, want virtual %v", snap.At, sim.Epoch.Add(90*time.Minute))
	}
	if snap.Histograms[0].Sum != (90 * time.Minute).Seconds() {
		t.Fatalf("histogram sum = %v, want %v", snap.Histograms[0].Sum, (90 * time.Minute).Seconds())
	}
}
