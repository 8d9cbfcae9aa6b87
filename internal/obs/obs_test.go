package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestExpositionGolden pins the text a registry leaves a process as
// (testdata/exposition.txt): a family's one TYPE line even where the
// canonical key order would interleave it with another that shares its
// prefix, a label value holding a quote, a backslash and a newline,
// cumulative buckets up to +Inf, then _sum, _count, _min and _max. It
// is also the sim-time contract: two registries fed the same
// operations in another registration order on the same virtual clock
// render byte-identical text, stamped with the virtual instant.
func TestExpositionGolden(t *testing.T) {
	build := func(order []string) []byte {
		clock := sim.NewVirtualClock(sim.Epoch)
		r := NewRegistry()
		r.SetNow(clock.Now)
		for _, kv := range order {
			switch kv {
			case "plain":
				r.Counter("flows_total").Add(3)
			case "labelled":
				r.Counter("flows_total", "user", "say \"hi\" \\ then\nbye").Inc()
			case "prefixed":
				r.Counter("flows_total_failed").Inc()
			}
		}
		h := r.HistogramBuckets("step_seconds", []float64{1, 60, 3600}, "op", "ingest")
		h.Observe(0.5)
		h.Observe(30)
		clock.Sleep(90 * time.Minute)
		r.Gauge("running", "peer", "A").Set(4)
		h.Observe(clock.Now().Sub(sim.Epoch).Seconds())
		return r.Exposition()
	}
	got := build([]string{"plain", "labelled", "prefixed"})
	if again := build([]string{"prefixed", "labelled", "plain"}); !bytes.Equal(got, again) {
		t.Fatalf("expositions differ:\n%s\n%s", got, again)
	}
	path := filepath.Join("testdata", "exposition.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` after an intentional format change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition diverges from %s:\n%s\nwant\n%s", path, got, want)
	}
	if at := "# at " + sim.Epoch.Add(90*time.Minute).Format(time.RFC3339Nano) + "\n"; !bytes.HasPrefix(got, []byte(at)) {
		t.Fatalf("exposition does not open with the virtual instant %q", at)
	}
}
