package obs

import (
	"encoding/json"
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
type TraceBuffer struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of oldest event
	n       int // events currently in ring
	seq     uint64
	subs    map[int]chan Event
	nextSub int
	dropped atomic.Uint64
}

// NewTraceBuffer returns a ring holding the last `capacity` events
// (minimum 1).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceBuffer{ring: make([]Event, capacity), subs: make(map[int]chan Event)}
}

// Emit appends the event, assigning its sequence number (and stamping
// Time with the wall clock only if the caller left it zero). The
// completed event is returned.
func (b *TraceBuffer) Emit(ev Event) Event {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if b.n < len(b.ring) {
		b.ring[(b.start+b.n)%len(b.ring)] = ev
		b.n++
	} else {
		b.ring[b.start] = ev
		b.start = (b.start + 1) % len(b.ring)
	}
	subs := make([]chan Event, 0, len(b.subs))
	for _, ch := range b.subs {
		subs = append(subs, ch)
	}
	b.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
	return ev
}

// Events snapshots the buffered events, oldest first.
func (b *TraceBuffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, b.n)
	for i := 0; i < b.n; i++ {
		out = append(out, b.ring[(b.start+i)%len(b.ring)])
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
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	b.mu.Lock()
	id := b.nextSub
	b.nextSub++
	b.subs[id] = ch
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(ch)
		}
		b.mu.Unlock()
	}
	return ch, cancel
}

// Dropped returns how many events were lost to full subscriber channels.
func (b *TraceBuffer) Dropped() uint64 { return b.dropped.Load() }

// span emits one event stamped with the registry's clock. attrs are
// copied into the event, so a caller's argument list stays on its stack.
func (r *Registry) span(typ, scope, name, id string, attrs []Attr) {
	ev := Event{Time: r.Now(), Type: typ, Scope: scope, Name: name, ID: id}
	if copy(ev.attrs[:], attrs) < len(attrs) {
		panic("obs: too many attributes for one trace event")
	}
	r.trace.Emit(ev)
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
