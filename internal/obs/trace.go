package obs

import (
	"encoding/binary"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	// EventPoint is an instantaneous event with no duration.
	EventPoint = "point"
)

// Event is one structured trace event. Span pairs share Scope and ID:
// an EventStart followed (eventually) by an EventEnd with the same
// (Scope, ID) brackets one lifecycle.
type Event struct {
	// Seq is a monotonically increasing sequence number, assigned at
	// emission; subscribers use it to detect gaps after drops.
	Seq uint64 `json:"seq"`
	// Time is the emission instant on the emitting component's clock
	// (virtual under simulation).
	Time time.Time `json:"time"`
	// Type is EventStart, EventEnd or EventPoint.
	Type string `json:"type"`
	// Scope names the lifecycle kind: "flow", "step" or "request".
	Scope string `json:"scope"`
	// Name is the human name (flow name, step name, request kind).
	Name string `json:"name"`
	// ID is the hierarchical identifier (execution/node id, connection
	// address) correlating start and end.
	ID string `json:"id"`
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

// Attr returns the value of the event's attribute key, "" when unset.
func (e *Event) Attr(key string) string {
	for _, a := range e.attrs {
		if a.Key == key && key != "" {
			return a.Value
		}
	}
	return ""
}

// eventJSON is the wire shape of an Event: its exported fields, and the
// attrs as one JSON object, absent when empty.
type eventJSON struct {
	eventFields
	Attrs map[string]string `json:"attrs,omitempty"`
}

// eventFields is Event without its methods, so that encoding/json
// handles the exported fields itself.
type eventFields Event

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	out := eventJSON{eventFields: eventFields(e)}
	for _, a := range e.attrs {
		if a.Key == "" {
			continue
		}
		if out.Attrs == nil {
			out.Attrs = make(map[string]string, maxAttrs)
		}
		out.Attrs[a.Key] = a.Value
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. Attributes beyond the
// event's inline capacity are dropped.
func (e *Event) UnmarshalJSON(data []byte) error {
	var in eventJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*e = Event(in.eventFields)
	i := 0
	for k, v := range in.Attrs {
		if i < maxAttrs {
			e.attrs[i] = Attr{Key: k, Value: v}
			i++
		}
	}
	return nil
}

// TraceBuffer is a fixed-capacity ring of recent events with a
// non-blocking subscriber fan-out. Emission never blocks: the ring
// overwrites its oldest event when full, and a subscriber whose channel
// is full loses the event (counted in Dropped). This keeps the
// observability path incapable of stalling the engine it observes.
//
// The ring holds its events as bytes (appendEvent) in chunks it owns:
// the garbage collector never scans them, no string an emitter passed
// stays alive in them, and the chunks grow with what the ring holds, so
// a ring that never emits costs only its header. Events decodes them
// back; a subscriber is sent the event as emitted.
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
	// subs is rebuilt, never edited, by Subscribe and cancel.
	subs    []chan Event
	dropped atomic.Uint64
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

// Emit appends the event, assigning its sequence number (and stamping
// Time with the wall clock only if the caller left it zero). The
// completed event is returned, its Time as the UTC instant the ring
// keeps.
func (b *TraceBuffer) Emit(ev Event) Event {
	b.emit(&ev)
	return ev
}

// emit is Emit completing the caller's event in place.
func (b *TraceBuffer) emit(ev *Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	ev.Time = ev.Time.UTC()
	bound := eventBound(ev)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	if b.n == b.max {
		b.dropOldest()
	}
	last := b.room(bound)
	b.chunks[last] = appendEvent(b.chunks[last], ev)
	b.n++
	// The fan-out runs under the lock, so a cancel cannot close a
	// channel between reading the list and sending on it.
	for _, ch := range b.subs {
		select {
		case ch <- *ev:
		default:
			b.dropped.Add(1)
		}
	}
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

// Len returns how many events the ring currently holds.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Subscribe registers a live event channel with the given buffer size
// (minimum 1). The returned cancel function unregisters and closes the
// channel; events emitted while the channel is full are dropped, never
// blocked on.
func (b *TraceBuffer) Subscribe(buf int) (<-chan Event, func()) {
	ch := make(chan Event, max(buf, 1))
	b.mu.Lock()
	b.subs = append(slices.Clip(b.subs), ch)
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if i := slices.Index(b.subs, ch); i >= 0 {
			b.subs = slices.Delete(slices.Clone(b.subs), i, i+1)
			close(ch)
		}
	}
	return ch, cancel
}

// Dropped returns how many events were lost to full subscriber channels.
func (b *TraceBuffer) Dropped() uint64 { return b.dropped.Load() }

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
var typeCodes = [...]string{1: EventStart, 2: EventEnd, 3: EventPoint}

func typeCode(typ string) byte {
	for c := byte(1); c < byte(len(typeCodes)); c++ {
		if typeCodes[c] == typ {
			return c
		}
	}
	return 0
}

// eventBound is at least the number of bytes appendEvent writes for ev:
// the code byte, the strings, and the most a varint takes for the
// length, the two time fields and each string's length.
func eventBound(ev *Event) int {
	n := 1 + 7*binary.MaxVarintLen64 + len(ev.Type) + len(ev.Scope) + len(ev.Name) + len(ev.ID)
	for i := range ev.attrs {
		n += 2*binary.MaxVarintLen64 + len(ev.attrs[i].Key) + len(ev.attrs[i].Value)
	}
	return n
}

// appendEvent appends ev's bytes to b, which has room for them
// (eventBound).
func appendEvent(b []byte, ev *Event) []byte {
	code, attrs := typeCode(ev.Type), byte(0)
	for i := range ev.attrs {
		if ev.attrs[i].Key != "" {
			attrs++
		}
	}
	at := len(b)
	b = append(b, 0, code|attrs<<2) // the length, patched below
	b = binary.AppendUvarint(b, zigzag(ev.Time.Unix()))
	b = binary.AppendUvarint(b, uint64(ev.Time.Nanosecond()))
	if code == 0 {
		b = appendStr(b, ev.Type)
	}
	b = appendStr(appendStr(appendStr(b, ev.Scope), ev.Name), ev.ID)
	for i := range ev.attrs {
		if a := &ev.attrs[i]; a.Key != "" {
			b = appendStr(appendStr(b, a.Key), a.Value)
		}
	}
	n := len(b) - at - 1
	if n < 0x80 {
		b[at] = byte(n)
		return b
	}
	// A length past one byte: move the event up to make room for it.
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], uint64(n))
	b = append(b, tmp[1:k]...)
	copy(b[at+k:], b[at+1:at+1+n])
	copy(b[at:], tmp[:k])
	return b
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

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

// span emits one event stamped with the registry's clock. attrs are
// copied into the event, so a caller's argument list stays on its stack.
func (r *Registry) span(typ, scope, name, id string, attrs []Attr) {
	ev := Event{Time: r.Now(), Type: typ, Scope: scope, Name: name, ID: id}
	if copy(ev.attrs[:], attrs) < len(attrs) {
		panic("obs: too many attributes for one trace event")
	}
	r.trace.emit(&ev)
}

// StartSpan emits an EventStart stamped with the registry's clock.
func (r *Registry) StartSpan(scope, name, id string, attrs ...Attr) {
	r.span(EventStart, scope, name, id, attrs)
}

// EndSpan emits an EventEnd stamped with the registry's clock.
func (r *Registry) EndSpan(scope, name, id string, attrs ...Attr) {
	r.span(EventEnd, scope, name, id, attrs)
}

// Point emits an instantaneous event stamped with the registry's clock.
func (r *Registry) Point(scope, name, id string, attrs ...Attr) {
	r.span(EventPoint, scope, name, id, attrs)
}
