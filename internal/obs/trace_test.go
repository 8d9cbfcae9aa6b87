package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/sim"
)

func TestTraceRingWraps(t *testing.T) {
	tb := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		tb.Emit(Event{Type: EventPoint, Scope: "flow", Name: "n", ID: "x"})
	}
	evs := tb.Events()
	if len(evs) != 4 {
		t.Fatalf("Len = %d, want 4", len(evs))
	}
	// Oldest-first, holding the last 4 of 10 emissions (seqs 7..10).
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tb.Len())
	}
}

func TestTraceSubscribe(t *testing.T) {
	tb := NewTraceBuffer(16)
	ch, cancel := tb.Subscribe(8)
	defer cancel()
	tb.Emit(Event{Type: EventStart, Scope: "flow", Name: "f", ID: "1"})
	tb.Emit(Event{Type: EventEnd, Scope: "flow", Name: "f", ID: "1"})
	for _, want := range []string{EventStart, EventEnd} {
		select {
		case ev := <-ch:
			if ev.Type != want {
				t.Fatalf("got %q, want %q", ev.Type, want)
			}
		case <-time.After(time.Second):
			t.Fatal("timed out waiting for subscribed event")
		}
	}
	cancel()
	// After cancel, emissions must not panic or block.
	tb.Emit(Event{Type: EventPoint, Scope: "flow", Name: "f", ID: "1"})
}

func TestTraceSlowSubscriberDrops(t *testing.T) {
	tb := NewTraceBuffer(64)
	_, cancel := tb.Subscribe(1) // nobody reading
	defer cancel()
	for i := 0; i < 5; i++ {
		tb.Emit(Event{Type: EventPoint, Scope: "flow", Name: "n", ID: "x"})
	}
	// Buffer of 1 absorbs one event; the rest are dropped, never blocking.
	if got := tb.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if tb.Len() != 5 {
		t.Fatalf("ring Len = %d, want 5 (drops only affect subscribers)", tb.Len())
	}
}

func TestRegistrySpansStampVirtualTime(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	r := NewRegistry()
	r.SetNow(clock.Now)
	r.StartSpan("flow", "f", "id-1", Attr{"control", "sequential"})
	clock.Advance(2 * time.Hour)
	r.EndSpan("flow", "f", "id-1", Attr{"state", "succeeded"})
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
	if evs[1].Attr("state") != "succeeded" || evs[1].Attr("control") != "" {
		t.Fatalf("end event = %+v", evs[1])
	}
}

// TestEventJSONShape pins the wire form of an event: attrs are one JSON
// object keyed by attribute, absent when the event has none — what the
// /trace endpoint served when attributes were a map — and decoding
// restores them.
func TestEventJSONShape(t *testing.T) {
	r := NewRegistry()
	r.SetNow(func() time.Time { return sim.Epoch })
	r.StartSpan("request", "dgl", "127.0.0.1:9")
	r.EndSpan("step", "put", "dgf-000001/f/put", Attr{"state", "succeeded"}, Attr{"op", "ingest"})
	got, err := json.Marshal(r.Trace().Events())
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Epoch.Format(time.RFC3339Nano)
	want := `[{"seq":1,"time":"` + at + `","type":"start","scope":"request","name":"dgl","id":"127.0.0.1:9"},` +
		`{"seq":2,"time":"` + at + `","type":"end","scope":"step","name":"put","id":"dgf-000001/f/put","attrs":{"op":"ingest","state":"succeeded"}}]`
	if string(got) != want {
		t.Fatalf("events marshal as\n%s\nwant\n%s", got, want)
	}
	var back []Event
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Attr("op") != "ingest" || back[1].Attr("state") != "succeeded" || back[1].Seq != 2 {
		t.Fatalf("decoded events = %+v", back)
	}
}

// TestSpanAllocs: emitting a span allocates nothing, with or without a
// subscriber — the attributes ride inline in the ring's own slot.
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	r := NewRegistry()
	op, state := "ingest", "succeeded"
	emit := func() {
		r.StartSpan("step", "put", "dgf-000001/f/put", Attr{"op", op})
		r.EndSpan("step", "put", "dgf-000001/f/put", Attr{"op", op}, Attr{"state", state})
		r.Point("flow", "f", "dgf-000001/f")
	}
	if got := testing.AllocsPerRun(100, emit); got != 0 {
		t.Errorf("three span events, no subscriber: %.0f allocations, want 0", got)
	}
	ch, cancel := r.Trace().Subscribe(1024)
	defer cancel()
	if got := testing.AllocsPerRun(100, emit); got != 0 {
		t.Errorf("three span events, one subscriber: %.0f allocations, want 0", got)
	}
	if len(ch) == 0 {
		t.Error("the subscriber was sent nothing")
	}
}

// TestTraceConcurrentUse: emitters, readers and subscribers that come
// and go use one ring at once. A cancel never closes a channel an Emit
// is sending on, every read sees consecutive sequence numbers, and a
// subscription's events arrive in order.
func TestTraceConcurrentUse(t *testing.T) {
	tb := NewTraceBuffer(64)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				tb.Emit(Event{Type: EventPoint, Scope: "flow", Name: "n", ID: strings.Repeat("x", j%200)})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			ch, cancel := tb.Subscribe(8)
			var prev uint64
			for k := 0; k < 4; k++ {
				select {
				case ev := <-ch:
					if ev.Seq <= prev {
						t.Errorf("a subscription got seq %d after %d", ev.Seq, prev)
					}
					prev = ev.Seq
				default:
				}
			}
			cancel()
		}
	}()
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
	if tb.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tb.Len())
	}
}

// BenchmarkTraceEmit emits a step's end span into a full default ring,
// and reads the ring back whole.
func BenchmarkTraceEmit(b *testing.B) {
	r := NewRegistry()
	emit := func() {
		r.EndSpan("step", "put", "dgf-000001/f/put", Attr{"op", "ingest"}, Attr{"state", "succeeded"})
	}
	for i := 0; i < DefaultTraceCap; i++ {
		emit()
	}
	b.Run("emit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			emit()
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
