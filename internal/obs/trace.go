package obs

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"sync"
	"time"
)

// DefaultTraceCap is the default trace ring-buffer capacity.
const DefaultTraceCap = 4096

// Trace event types.
const (
	// EventStart opens a span (a flow node entering running, a wire
	// request beginning).
	EventStart = "start"
	// EventEnd closes a span; Attrs carry the outcome.
	EventEnd = "end"
)

// Event is one structured trace event. Span pairs share Scope and ID:
// an EventStart followed (eventually) by an EventEnd with the same
// (Scope, ID) brackets one lifecycle.
type Event struct {
	// Seq is a monotonically increasing sequence number, assigned at
	// emission.
	Seq uint64
	// Time is the emission instant on the emitting component's clock
	// (virtual under simulation).
	Time time.Time
	// Type is EventStart or EventEnd.
	Type string
	// Scope names the lifecycle kind: "flow", "step" or "request".
	Scope string
	// Name is the human name (flow name, step name, request kind).
	Name string
	// ID is the hierarchical identifier (execution/node id, connection
	// address) correlating start and end.
	ID string
	// attrs carry scope-specific details (operation type, outcome state),
	// inline: emitting a span builds no map whether or not anyone reads
	// it. An empty Key marks an unused slot.
	attrs [maxAttrs]Attr
}

// Attr is one key/value detail of a trace event.
type Attr struct {
	Key, Value string
}

// maxAttrs is the most attributes one event carries; no span documented
// in docs/METRICS.md has more.
const maxAttrs = 2

// TraceBuffer is a fixed-capacity ring of recent events. Emission never
// blocks: the ring overwrites its oldest event when full. This keeps the
// observability path incapable of stalling the engine it observes.
//
// The ring holds its events as bytes (emit) in chunks it owns:
// the garbage collector never scans them, no string an emitter passed
// stays alive in them, and the chunks grow with what the ring holds, so
// a ring that never emits costs only its header. Events decodes them
// back.
type TraceBuffer struct {
	mu  sync.Mutex
	max int // the most events the ring holds
	// chunks hold the events, oldest first, each chunk filled up to its
	// length; an event never spans two chunks. head is where the oldest
	// event starts in chunks[0].
	chunks [][]byte
	head   int
	// spare is an emptied chunk, kept for the next one the ring starts,
	// so that a full ring emits without allocating.
	spare []byte
	n     int    // events currently in the ring
	seq   uint64 // the sequence number of the newest event
}

// A ring's first chunk takes traceChunkMin bytes, some sixty events,
// and each chunk after it twice the one before, up to traceChunkMax: a
// default ring fills in about sixteen allocations. An event larger than
// that gets a chunk of its own size, which is not kept for reuse.
const (
	traceChunkMin = 4 << 10
	traceChunkMax = 16 << 10
)

// NewTraceBuffer returns a ring holding the last `capacity` events
// (minimum 1). It allocates nothing until the first event.
func NewTraceBuffer(capacity int) *TraceBuffer {
	return &TraceBuffer{max: max(capacity, 1)}
}

// emit appends one event, its fields encoded straight into the ring
// under the lock: no Event is built and nothing is copied twice. Keys
// left empty in attrs are not written.
func (b *TraceBuffer) emit(at time.Time, typ, scope, name, id string, attrs []Attr) {
	code, kept := typeCode(typ), byte(0)
	sec, ns := zigzag(at.Unix()), uint64(at.Nanosecond())
	size := 1 + uvarintLen(sec) + uvarintLen(ns) + strLen(scope) + strLen(name) + strLen(id)
	if code == 0 {
		size += strLen(typ)
	}
	for i := range attrs {
		if a := &attrs[i]; a.Key != "" {
			kept++
			size += strLen(a.Key) + strLen(a.Value)
		}
	}
	if kept > maxAttrs {
		panic("obs: too many attributes for one trace event")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	if b.n == b.max {
		b.dropOldest()
	}
	last := b.room(uvarintLen(uint64(size)) + size)
	c := binary.AppendUvarint(b.chunks[last], uint64(size))
	c = append(c, code|kept<<2)
	c = binary.AppendUvarint(c, sec)
	c = binary.AppendUvarint(c, ns)
	if code == 0 {
		c = appendStr(c, typ)
	}
	c = appendStr(appendStr(appendStr(c, scope), name), id)
	for i := range attrs {
		if a := &attrs[i]; a.Key != "" {
			c = appendStr(appendStr(c, a.Key), a.Value)
		}
	}
	b.chunks[last] = c
	b.n++
}

// room returns the index of the chunk that has room for size more
// bytes, starting a chunk when the last one lacks it. Caller holds b.mu.
func (b *TraceBuffer) room(size int) int {
	if k := len(b.chunks); k > 0 && cap(b.chunks[k-1])-len(b.chunks[k-1]) >= size {
		return k - 1
	}
	var c []byte
	if cap(b.spare) >= size {
		c, b.spare = b.spare, nil
	} else {
		next := traceChunkMin
		if k := len(b.chunks); k > 0 {
			next = min(2*cap(b.chunks[k-1]), traceChunkMax)
		}
		c = make([]byte, 0, max(size, next))
	}
	b.chunks = append(b.chunks, c)
	return len(b.chunks) - 1
}

// dropOldest forgets the oldest event, and its chunk once nothing of it
// is left. Caller holds b.mu.
func (b *TraceBuffer) dropOldest() {
	c := b.chunks[0]
	size, k := binary.Uvarint(c[b.head:])
	b.head += k + int(size)
	b.n--
	if b.head < len(c) {
		return
	}
	b.head = 0
	if cap(c) <= traceChunkMax {
		b.spare = c[:0]
	}
	copy(b.chunks, b.chunks[1:])
	b.chunks[len(b.chunks)-1] = nil
	b.chunks = b.chunks[:len(b.chunks)-1]
}

// Events snapshots the buffered events, oldest first. Their strings are
// slices of one copy of the ring's bytes.
func (b *TraceBuffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, b.n)
	if b.n == 0 {
		return out
	}
	total := -b.head
	for _, c := range b.chunks {
		total += len(c)
	}
	var all strings.Builder
	all.Grow(total)
	all.Write(b.chunks[0][b.head:])
	for _, c := range b.chunks[1:] {
		all.Write(c)
	}
	r := eventReader{s: all.String()}
	seq := b.seq - uint64(b.n)
	for i := range out {
		seq++
		r.event(&out[i])
		out[i].Seq = seq
	}
	return out
}

// An event's bytes in the ring: the length of the rest, then a code
// byte, the time as Unix seconds (zigzag) and nanoseconds, and the
// strings, each a uvarint length and its bytes — the type's own text
// only when the code does not name it, then scope, name, id and each
// attribute's key and value. Varints are little-endian base 128, as
// encoding/binary writes them. The sequence number is not stored: the
// ring's events are consecutive, ending at its newest.
//
// The code's low two bits name the type (typeCodes), 0 for any other;
// the bits above them count the attributes.
var typeCodes = [...]string{1: EventStart, 2: EventEnd}

func typeCode(typ string) byte {
	for c := byte(1); c < byte(len(typeCodes)); c++ {
		if typeCodes[c] == typ {
			return c
		}
	}
	return 0
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// strLen is how many bytes appendStr writes for s.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uvarintLen is how many bytes the uvarint of v takes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// eventReader decodes events from a copy of the ring's bytes.
type eventReader struct {
	s string
	i int
}

func (r *eventReader) uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		c := r.s[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

func (r *eventReader) str() string {
	n := int(r.uvarint())
	r.i += n
	return r.s[r.i-n : r.i]
}

// event decodes the next event into ev, all but its sequence number.
func (r *eventReader) event(ev *Event) {
	r.uvarint() // the length: the fields delimit themselves
	code := r.s[r.i]
	r.i++
	u := r.uvarint()
	sec := int64(u>>1) ^ -int64(u&1)
	ev.Time = time.Unix(sec, int64(r.uvarint())).UTC()
	if ev.Type = typeCodes[code&3]; code&3 == 0 {
		ev.Type = r.str()
	}
	ev.Scope, ev.Name, ev.ID = r.str(), r.str(), r.str()
	for i := 0; i < int(code>>2); i++ {
		ev.attrs[i].Key = r.str()
		ev.attrs[i].Value = r.str()
	}
}

// StartSpan emits an EventStart at the instant at, read by the caller
// from its own clock (virtual under simulation): the one reading it
// also stamps its state or metrics with.
func (r *Registry) StartSpan(at time.Time, scope, name, id string, attrs ...Attr) {
	r.trace.emit(at, EventStart, scope, name, id, attrs)
}

// EndSpan emits an EventEnd at the instant at, as StartSpan does.
func (r *Registry) EndSpan(at time.Time, scope, name, id string, attrs ...Attr) {
	r.trace.emit(at, EventEnd, scope, name, id, attrs)
}
