package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/sim"
)

func TestTraceRingWraps(t *testing.T) {
	tb := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		tb.emit(sim.Epoch, EventStart, "flow", "n", "x", nil)
	}
	evs := tb.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	// Oldest-first, holding the last 4 of 10 emissions (seqs 7..10).
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestRegistrySpansStampVirtualTime(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	r := NewRegistry()
	r.StartSpan(clock.Now(), "flow", "f", "id-1", Attr{"control", "sequential"})
	clock.Sleep(2 * time.Hour)
	r.EndSpan(clock.Now(), "flow", "f", "id-1", Attr{"state", "succeeded"})
	evs := r.Trace().Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if !evs[0].Time.Equal(sim.Epoch) {
		t.Fatalf("start time = %v, want %v", evs[0].Time, sim.Epoch)
	}
	if got := evs[1].Time.Sub(evs[0].Time); got != 2*time.Hour {
		t.Fatalf("span duration = %v, want 2h", got)
	}
	if evs[0].Type != EventStart || evs[1].Type != EventEnd {
		t.Fatalf("types = %q/%q, want start/end", evs[0].Type, evs[1].Type)
	}
	if evs[1].attrs != [maxAttrs]Attr{{"state", "succeeded"}} {
		t.Fatalf("end event = %+v", evs[1])
	}
}

// TestEventLineShape pins the form /trace serves an event in: one
// logfmt line, the fields in a fixed order and then the attributes in
// key order, a value quoted when it is empty or holds a space, '=' or
// '"'.
func TestEventLineShape(t *testing.T) {
	r := NewRegistry()
	r.StartSpan(sim.Epoch, "request", "dgl", "127.0.0.1:9")
	r.EndSpan(sim.Epoch, "step", "put", "dgf-000001/f/put", Attr{"state", "succeeded"}, Attr{"op", "ingest"})
	r.EndSpan(sim.Epoch.Add(time.Millisecond), "flow", `a "b"=c`, "", Attr{"state", "x y"})
	var got []byte
	for _, ev := range r.Trace().Events() {
		got = appendEvent(got, &ev)
	}
	want := `seq=1 time=2005-08-01T00:00:00Z type=start scope=request name=dgl id=127.0.0.1:9
seq=2 time=2005-08-01T00:00:00Z type=end scope=step name=put id=dgf-000001/f/put op=ingest state=succeeded
seq=3 time=2005-08-01T00:00:00.001Z type=end scope=flow name="a \"b\"=c" id="" state="x y"
`
	if string(got) != want {
		t.Fatalf("events render as\n%s\nwant\n%s", got, want)
	}
}

// TestSpanAllocs: emitting a span allocates nothing — the attributes
// ride inline in the ring's own slot.
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	r := NewRegistry()
	op, state := "ingest", "succeeded"
	emit := func() {
		r.StartSpan(sim.Epoch, "step", "put", "dgf-000001/f/put", Attr{"op", op})
		r.EndSpan(sim.Epoch, "step", "put", "dgf-000001/f/put", Attr{"op", op}, Attr{"state", state})
	}
	if got := testing.AllocsPerRun(100, emit); got != 0 {
		t.Errorf("two span events: %.0f allocations, want 0", got)
	}
}

// TestTraceConcurrentUse: emitters and readers use one ring at once,
// and every read sees consecutive sequence numbers.
func TestTraceConcurrentUse(t *testing.T) {
	tb := NewTraceBuffer(64)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				tb.emit(sim.Epoch, EventStart, "flow", "n", strings.Repeat("x", j%200), nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		evs := tb.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				t.Fatalf("a read holds seq %d after %d", evs[i].Seq, evs[i-1].Seq)
			}
		}
	}
	if n := len(tb.Events()); n != 64 {
		t.Fatalf("the ring holds %d events, want 64", n)
	}
}

// BenchmarkSpanEmit is what watching a node costs the trace: a step's
// start and end spans emitted into a full default ring, each op one
// event (ns and allocations per event), and the ring read back whole.
func BenchmarkSpanEmit(b *testing.B) {
	r := NewRegistry()
	at := time.Now()
	const id = "matrixA:dgf-000001/dag-3/fan[17]/put/ingest"
	start := func() { r.StartSpan(at, "step", "ingest", id, Attr{"op", "ingest"}) }
	end := func() {
		r.EndSpan(at, "step", "ingest", id, Attr{"op", "ingest"}, Attr{"state", "succeeded"})
	}
	for i := 0; i < DefaultTraceCap; i++ {
		end()
	}
	b.Run("start", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start()
		}
	})
	b.Run("end", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			end()
		}
	})
	b.Run("events", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(r.Trace().Events()) != DefaultTraceCap {
				b.Fatal("the ring is not full")
			}
		}
	})
}
