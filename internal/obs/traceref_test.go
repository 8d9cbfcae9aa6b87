package obs

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"datagridflow/internal/sim"
)

// refRing is the ring TraceBuffer replaced, kept as the reference its
// byte storage is held to: a slice of events, overwritten in place.
type refRing struct {
	ring     []Event
	start, n int
	seq      uint64
}

func newRefRing(capacity int) *refRing { return &refRing{ring: make([]Event, max(capacity, 1))} }

func (b *refRing) emit(ev Event) {
	b.seq++
	ev.Seq = b.seq
	if b.n < len(b.ring) {
		b.ring[(b.start+b.n)%len(b.ring)] = ev
		b.n++
		return
	}
	b.ring[b.start] = ev
	b.start = (b.start + 1) % len(b.ring)
}

func (b *refRing) events() []Event {
	out := make([]Event, 0, b.n)
	for i := 0; i < b.n; i++ {
		out = append(out, b.ring[(b.start+i)%len(b.ring)])
	}
	return out
}

// sameEvents reports whether got, read back from a TraceBuffer, are the
// reference's events: every field, the reference's times read as their
// UTC instants, and the attributes in order wherever in the event they
// sat.
func sameEvents(t *testing.T, got, ref []Event) bool {
	t.Helper()
	if len(got) != len(ref) {
		t.Errorf("%d events, the reference holds %d", len(got), len(ref))
		return false
	}
	attrs := func(ev Event) (out []Attr) {
		for _, a := range ev.attrs {
			if a.Key != "" {
				out = append(out, a)
			}
		}
		return out
	}
	for i := range got {
		g, want := got[i], ref[i]
		if !g.Time.Equal(want.Time) || g.Time.Location() != time.UTC {
			t.Errorf("event %d: time %v, want %v in UTC", i, g.Time, want.Time.UTC())
			return false
		}
		if g.Seq != want.Seq || g.Type != want.Type || g.Scope != want.Scope || g.Name != want.Name || g.ID != want.ID ||
			!slices.Equal(attrs(g), attrs(want)) {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, g, want)
			return false
		}
	}
	return true
}

// FuzzTraceMatchesReference: a TraceBuffer holds what the reference ring
// holds — after every emit, with the ring wrapping many times over, with
// strings long enough to take chunks of their own, with types outside
// the three constants and times in any zone and year.
func FuzzTraceMatchesReference(f *testing.F) {
	f.Add(uint8(4), []byte("start flow f dgf-1 end step s dgf-1/s"), int64(0), uint16(0))
	f.Add(uint8(1), []byte("a\x00b\x01c\x02dd\x03"), int64(-1e18), uint16(5000))
	f.Add(uint8(7), []byte(strings.Repeat("xyz\x7f", 40)), int64(1e18), uint16(19999))
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte, nanos int64, long uint16) {
		tb, ref := NewTraceBuffer(int(capacity)), newRefRing(int(capacity))
		zone := time.FixedZone("x", 5*3600)
		big := strings.Repeat("L", int(long)%20000) // past traceChunkMax: a chunk of its own
		word := func(i int) string {
			if i >= len(script) {
				return ""
			}
			n := int(script[i] % 12)
			return string(script[i:min(len(script), i+n)])
		}
		for i := 0; i < len(script); i++ {
			c := script[i]
			ev := Event{
				Time:  time.Unix(nanos/1e9+int64(i), nanos%1e9).In(zone),
				Type:  []string{EventStart, EventEnd, "point", word(i + 1)}[c%4],
				Scope: word(i + 2), Name: word(i + 3), ID: word(i + 4),
			}
			if c&0x10 != 0 {
				ev.ID = big
			}
			switch c >> 5 % 4 {
			case 1:
				ev.attrs[0] = Attr{"op", word(i + 5)}
			case 2:
				ev.attrs[0], ev.attrs[1] = Attr{word(i + 5), word(i + 6)}, Attr{"state", big}
			case 3:
				ev.attrs[1] = Attr{"k", "only the second slot"}
			}
			tb.emit(ev.Time, ev.Type, ev.Scope, ev.Name, ev.ID, ev.attrs[:])
			ref.emit(ev)
			if !sameEvents(t, tb.Events(), ref.events()) {
				t.Fatalf("after emit %d", i)
			}
		}
	})
}

// TestTraceFootprint: a full default ring of events about 50 bytes long
// takes at most 320 KB (the ring of Event slots it replaced took 640 KB
// however few it held), and a ring that never emits allocates nothing
// beyond its header. The heap is process-wide, so the test first waits
// for goroutines earlier tests left running (a server's connections
// closing, a store's linger) and then counts on one P, where nothing
// else runs between its two readings unless it blocks: an idle ring
// once read 5112 bytes in a full run on a loaded 2-core box.
func TestTraceFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var keep *TraceBuffer
	idle := heapGrowth(func() { keep = NewTraceBuffer(DefaultTraceCap) })
	runtime.KeepAlive(keep)
	if idle > 1<<10 {
		t.Errorf("an idle ring takes %d bytes, want only its header", idle)
	}
	attrs := []Attr{{"op", "ingest"}, {"state", "ok"}}
	emit := func(tb *TraceBuffer) { tb.emit(sim.Epoch, EventEnd, "step", "put", "dgf-000001/f/put", attrs) }
	one := NewTraceBuffer(1)
	emit(one)
	size := len(one.chunks[0])
	if size < 45 || size > 55 {
		t.Fatalf("the test event is %d bytes, want about 50", size)
	}
	full := heapGrowth(func() {
		keep = NewTraceBuffer(DefaultTraceCap)
		for i := 0; i < 3*DefaultTraceCap; i++ {
			emit(keep)
		}
	})
	runtime.KeepAlive(keep)
	t.Logf("a full default ring of %d-byte events takes %d KB", size, full>>10)
	if n := len(keep.Events()); n != DefaultTraceCap || full > 320<<10 {
		t.Errorf("a full ring (%d events) takes %d KB, want at most 320", n, full>>10)
	}
}

// heapGrowth returns how much more heap is live after fn than before it.
func heapGrowth(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestTraceKeepsNoCallerString: a ring copies what it keeps, so a string
// an emitter cut from a large buffer does not keep that buffer alive
// once the emitter drops it.
func TestTraceKeepsNoCallerString(t *testing.T) {
	tb := NewTraceBuffer(16)
	collected := make(chan struct{})
	func() {
		buf := strings.Repeat("b", 1<<20)
		runtime.SetFinalizer(unsafe.StringData(buf), func(*byte) { close(collected) })
		r := NewRegistry()
		r.trace = tb
		r.StartSpan(sim.Epoch, buf[:4], buf[4:8], buf[8:20], Attr{buf[20:22], buf[22:30]})
	}()
	if !collectedAfterGC(collected) {
		t.Fatal("a 1 MB string the emitter dropped is still reachable after GC")
	}
	if evs := tb.Events(); len(evs) != 1 || evs[0].ID != strings.Repeat("b", 12) {
		t.Fatalf("the ring holds %+v", evs)
	}
}

// collectedAfterGC runs the collector until done is closed, or gives up.
func collectedAfterGC(done <-chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}
