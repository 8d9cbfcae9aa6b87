// Package dgms implements the Data Grid Management System — the SRB
// analog the paper builds datagridflows on. It federates physical storage
// resources (vfs) under a logical namespace (namespace), records every
// operation (provenance), charges simulated cost (sim) and publishes
// namespace-change events that datagrid triggers subscribe to.
package dgms

import (
	"sync"
	"time"

	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
)

// EventType names a namespace-changing operation.
type EventType string

// Namespace event types published by the grid.
const (
	EventIngest     EventType = "ingest"
	EventReplicate  EventType = "replicate"
	EventMigrate    EventType = "migrate"
	EventTrim       EventType = "trim"
	EventDelete     EventType = "delete"
	EventCollection EventType = "collection"
	EventMetaSet    EventType = "meta-set"
	EventMove       EventType = "move"
	// EventAccess fires after a successful read (Get). It is not a
	// namespace *change*, but ILM's domain-value model feeds on it:
	// "as the domain value of certain data grows" is observed through
	// access patterns.
	EventAccess EventType = "access"
)

// Phase distinguishes pre- and post-operation delivery; the paper notes
// "datagrid triggers could be triggered before or after events complete".
type Phase int

// Delivery phases.
const (
	// Before fires prior to the operation; a handler error vetoes it.
	Before Phase = iota
	// After fires once the operation has completed successfully.
	After
)

// String returns "before" or "after".
func (p Phase) String() string {
	if p == Before {
		return "before"
	}
	return "after"
}

// Event describes one namespace change.
type Event struct {
	Type  EventType
	Phase Phase
	Path  string
	User  string
	Time  time.Time
	// detail is the change's context — resource names, sizes, attribute
	// values — held inline: no grid operation sets more than two pairs,
	// so an event costs no allocation to build or to publish.
	detail  [2]provenance.Attr
	ndetail int
}

// Details returns the event's detail pairs in the order the operation
// set them.
func (e *Event) Details() []provenance.Attr {
	return e.detail[:e.ndetail:e.ndetail]
}

// set adds a detail pair.
func (e *Event) set(key, value string) {
	e.detail[e.ndetail] = provenance.Attr{Key: key, Value: value}
	e.ndetail++
}

// Handler receives events. Returning a non-nil error from a Before
// handler vetoes the operation; errors from After handlers are ignored,
// since they cannot undo the operation (datagrid processes are not
// transactional — paper §2.2).
type Handler func(Event) error

// DeliveryOrder controls the order in which multiple subscribers see the
// same event. The paper flags this as an open issue ("different results
// might be produced based on the order in which triggers defined by
// multiple users are processed"); experiment E8 measures exactly that, so
// the order is pluggable.
type DeliveryOrder int

// Delivery orders.
const (
	// OrderSubscription delivers in subscription order (deterministic).
	OrderSubscription DeliveryOrder = iota
	// OrderReverse delivers in reverse subscription order.
	OrderReverse
	// OrderShuffled delivers in a seeded pseudo-random order per event.
	OrderShuffled
)

type subscription struct {
	id      int64
	types   map[EventType]bool // nil = all types
	phase   Phase
	handler Handler
}

// Bus is the event bus. It is safe for concurrent use; delivery happens
// synchronously on the publisher's goroutine so Before handlers can veto.
type Bus struct {
	mu     sync.RWMutex
	nextID int64
	subs   []subscription
	order  DeliveryOrder
	rng    *sim.Rand
}

// NewBus returns a bus with deterministic subscription-order delivery.
func NewBus() *Bus {
	return &Bus{order: OrderSubscription, rng: sim.NewRand(1)}
}

// SetDeliveryOrder changes how concurrent subscribers are ordered; the
// seed feeds OrderShuffled.
func (b *Bus) SetDeliveryOrder(o DeliveryOrder, seed int64) {
	b.mu.Lock()
	b.order = o
	b.rng = sim.NewRand(seed)
	b.mu.Unlock()
}

// Subscribe registers a handler for the given phase and event types (no
// types = all). It returns an id for Unsubscribe.
func (b *Bus) Subscribe(phase Phase, handler Handler, types ...EventType) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	sub := subscription{id: b.nextID, phase: phase, handler: handler}
	if len(types) > 0 {
		sub.types = make(map[EventType]bool, len(types))
		for _, t := range types {
			sub.types[t] = true
		}
	}
	b.subs = append(b.subs, sub)
	return b.nextID
}

// Unsubscribe removes the handler with the given id; unknown ids are
// ignored.
func (b *Bus) Unsubscribe(id int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s.id == id {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			return
		}
	}
}

// Publish delivers ev to matching subscribers in the configured order.
// For Before events the first handler error stops delivery and is
// returned (the veto). For After events all handlers run and their
// errors are ignored.
func (b *Bus) Publish(ev Event) error {
	b.mu.RLock()
	matching := make([]subscription, 0, len(b.subs))
	for _, s := range b.subs {
		if s.phase != ev.Phase {
			continue
		}
		if s.types != nil && !s.types[ev.Type] {
			continue
		}
		matching = append(matching, s)
	}
	order := b.order
	rng := b.rng
	b.mu.RUnlock()

	switch order {
	case OrderReverse:
		for i, j := 0, len(matching)-1; i < j; i, j = i+1, j-1 {
			matching[i], matching[j] = matching[j], matching[i]
		}
	case OrderShuffled:
		perm := rng.Perm(len(matching))
		shuffled := make([]subscription, len(matching))
		for i, p := range perm {
			shuffled[i] = matching[p]
		}
		matching = shuffled
	}

	for _, s := range matching {
		if err := s.handler(ev); err != nil && ev.Phase == Before {
			return err
		}
	}
	return nil
}
