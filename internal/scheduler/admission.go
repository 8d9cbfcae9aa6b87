package scheduler

// The admission scheduler is the server-side counterpart of the broker:
// where the broker places tasks on grid resources, the admission
// scheduler places inbound requests on the DfMS server's own compute.
// The paper's DfMS is "a broker managing concurrent long-run processes
// on behalf of many users" (§3.1); once the wire layer pipelines many
// requests per connection, a single chatty client could monopolize the
// request workers. Admission enforces two properties:
//
//   - bounded concurrency: at most `capacity` requests execute at once
//     (the wire server's worker pool size);
//   - weighted fairness: waiting requests queue FIFO per tenant, and a
//     freed slot is granted by deficit round-robin over the waiter
//     ring, so each backlogged tenant receives slots in proportion to
//     its weight (flat 1:1 when no weight function is installed) and
//     no tenant starves: every ring pass credits every waiter.
//
// The deficit round-robin (docs/TENANCY.md): each waiting tenant holds
// a deficit counter. A freed slot goes to the cursor tenant if its
// deficit covers one grant; otherwise the tenant earns its weight and
// the cursor advances. Weights are clamped to [1/64, 64] so one pass of
// the ring always makes progress and a single tenant's weight cannot
// flatten everyone else's share.
//
// A tenant whose private queue is full is rejected immediately with a
// capacity-class typed error rather than queued without bound — the
// client sees errors.Is(err, dgferr.ErrCapacity) and can back off.
// The empty user maps to the reserved anonymous tenant (tenant.Anon),
// so anonymous traffic shares one queue instead of minting a colliding
// ""-keyed entry.
//
// Admission emits `sched_admitted_total`, `sched_rejected_total` and
// the `sched_waiting` gauge per the docs/METRICS.md contract.

import (
	"context"
	"fmt"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
)

// ErrAdmission is the sentinel for admission rejections (a full
// per-user queue). It belongs to the capacity class, so it survives the
// wire as a typed error.
var ErrAdmission = dgferr.Mark(dgferr.ErrCapacity, "scheduler: admission queue full")

// Weight clamp bounds: one ring pass always accumulates at least
// minWeight per waiter (termination), and no tenant outweighs another
// by more than maxWeight/minWeight.
const (
	minWeight = 1.0 / 64
	maxWeight = 64.0
)

// userQueue is one tenant's waiter lane: FIFO grants plus the deficit
// round-robin credit. The deficit resets when the lane drains — an
// idle tenant banks nothing.
type userQueue struct {
	grants  []chan struct{}
	deficit float64
}

// Admission is a weighted-fair admission scheduler. The zero value is
// not usable; call NewAdmission. All methods are safe for concurrent
// use.
type Admission struct {
	capacity int
	maxQueue int
	reg      *obs.Registry

	// Channel-free design: every waiter gets a buffered grant channel;
	// Release hands its slot to the next waiter in deficit round-robin
	// order, or frees it when nobody waits.
	mu       chan struct{} // 1-buffered mutex (select-friendly)
	inflight int
	queues   map[string]*userQueue
	ring     []string // users with non-empty queues, in arrival order
	next     int      // round-robin cursor into ring
	weightFn func(user string) float64
}

// NewAdmission builds a scheduler admitting at most capacity concurrent
// requests, queueing at most maxQueue waiters per user beyond that.
// capacity <= 0 defaults to 64; maxQueue <= 0 defaults to 256. A nil
// registry falls back to obs.Default().
func NewAdmission(capacity, maxQueue int, reg *obs.Registry) *Admission {
	if capacity <= 0 {
		capacity = 64
	}
	if maxQueue <= 0 {
		maxQueue = 256
	}
	if reg == nil {
		reg = obs.Default()
	}
	a := &Admission{
		capacity: capacity,
		maxQueue: maxQueue,
		reg:      reg,
		mu:       make(chan struct{}, 1),
		queues:   make(map[string]*userQueue),
	}
	a.mu <- struct{}{}
	return a
}

// Capacity returns the concurrency bound.
func (a *Admission) Capacity() int { return a.capacity }

// SetWeightFn installs the per-tenant weight source for the deficit
// round-robin (typically tenant.Registry.Weight). A nil fn (or no call)
// weighs every tenant equally. Weights are clamped to [1/64, 64].
func (a *Admission) SetWeightFn(fn func(user string) float64) {
	a.lock()
	a.weightFn = fn
	a.unlock()
}

// weightOf resolves a tenant's clamped weight. Caller holds the lock.
func (a *Admission) weightOf(user string) float64 {
	w := 1.0
	if a.weightFn != nil {
		w = a.weightFn(user)
	}
	if !(w >= minWeight) { // also catches NaN
		w = minWeight
	}
	if w > maxWeight {
		w = maxWeight
	}
	return w
}

// lock acquires the internal mutex.
func (a *Admission) lock() { <-a.mu }

// unlock releases the internal mutex.
func (a *Admission) unlock() { a.mu <- struct{}{} }

// Acquire blocks until the request is admitted, the user's queue is
// full (ErrAdmission, immediately), or ctx is done (the ctx error,
// wrapped in the cancelled class). The empty user queues under the
// reserved anonymous tenant. Every successful Acquire must be paired
// with exactly one Release.
func (a *Admission) Acquire(ctx context.Context, user string) error {
	user = tenant.Canonical(user)
	a.lock()
	if a.inflight < a.capacity && len(a.ring) == 0 {
		// Free slot and nobody queued ahead: admit immediately.
		a.inflight++
		a.unlock()
		a.reg.Counter("sched_admitted_total").Inc()
		return nil
	}
	q := a.queues[user]
	if q != nil && len(q.grants) >= a.maxQueue {
		n := len(q.grants)
		a.unlock()
		a.reg.Counter("sched_rejected_total").Inc()
		return fmt.Errorf("%w: user %q has %d queued", ErrAdmission, user, n)
	}
	grant := make(chan struct{}, 1)
	if q == nil {
		q = &userQueue{}
		a.queues[user] = q
		a.ring = append(a.ring, user)
	}
	q.grants = append(q.grants, grant)
	a.unlock()
	a.reg.Gauge("sched_waiting").Add(1)
	defer a.reg.Gauge("sched_waiting").Add(-1)

	select {
	case <-grant:
		a.reg.Counter("sched_admitted_total").Inc()
		return nil
	case <-ctx.Done():
		// Remove the waiter — unless a grant raced in, in which case the
		// slot is ours and we keep it (the caller still gets nil: work
		// admitted a beat before cancellation proceeds; the caller's own
		// ctx checks will unwind it).
		a.lock()
		select {
		case <-grant:
			a.unlock()
			a.reg.Counter("sched_admitted_total").Inc()
			return nil
		default:
		}
		a.dropWaiter(user, grant)
		a.unlock()
		return fmt.Errorf("%w: admission wait: %v", dgferr.ErrCancelled, ctx.Err())
	}
}

// dropWaiter unlinks a cancelled waiter. Caller holds the lock.
func (a *Admission) dropWaiter(user string, grant chan struct{}) {
	q := a.queues[user]
	if q == nil {
		return
	}
	for i, g := range q.grants {
		if g == grant {
			q.grants = append(q.grants[:i:i], q.grants[i+1:]...)
			break
		}
	}
	if len(q.grants) == 0 {
		delete(a.queues, user)
		a.dropFromRing(user)
	}
}

// dropFromRing removes a user from the round-robin ring, keeping the
// cursor on the same next user. Caller holds the lock.
func (a *Admission) dropFromRing(user string) {
	for i, u := range a.ring {
		if u == user {
			a.ring = append(a.ring[:i:i], a.ring[i+1:]...)
			if a.next > i {
				a.next--
			}
			if len(a.ring) > 0 {
				a.next %= len(a.ring)
			} else {
				a.next = 0
			}
			return
		}
	}
}

// Release frees a slot: the next waiter in deficit round-robin order
// inherits it, or the pool shrinks by one in-flight request. The loop
// terminates because every full ring pass credits every waiter at
// least minWeight.
func (a *Admission) Release() {
	a.lock()
	defer a.unlock()
	if len(a.ring) == 0 {
		if a.inflight > 0 {
			a.inflight--
		}
		return
	}
	for {
		user := a.ring[a.next]
		q := a.queues[user]
		if q.deficit >= 1 {
			q.deficit--
			grant := q.grants[0]
			q.grants = q.grants[1:]
			if len(q.grants) == 0 {
				delete(a.queues, user)
				a.dropFromRing(user)
			}
			grant <- struct{}{} // slot transfers: inflight unchanged
			return
		}
		q.deficit += a.weightOf(user)
		a.next = (a.next + 1) % len(a.ring)
	}
}

// Inflight returns the number of currently admitted requests.
func (a *Admission) Inflight() int {
	a.lock()
	defer a.unlock()
	return a.inflight
}

// Waiting returns the number of queued waiters across all users.
func (a *Admission) Waiting() int {
	a.lock()
	defer a.unlock()
	n := 0
	for _, q := range a.queues {
		n += len(q.grants)
	}
	return n
}
