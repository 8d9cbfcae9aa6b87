// Package sim provides the simulation substrate the reproduction runs on:
// a virtual clock, deterministic random distributions for workload
// synthesis, a wide-area network model between grid domains, and cost
// meters that account simulated time, bytes and money.
//
// The paper's substrate is the production SRB datagrid (petabytes across
// SDSC, CERN, CCLRC, ...). We do not have that hardware; every storage and
// network operation in this repository instead charges simulated cost
// through this package, so experiments measure the *decisions* the
// datagridflow systems make (what moved where, how often, in what order)
// rather than the speed of the laptop running them.
package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time so engines run identically against wall-clock time
// (production) and simulated time (tests, benchmarks, experiments).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep advances this clock by d. On the real clock it blocks; on the
	// virtual clock it advances the timeline immediately.
	Sleep(d time.Duration)
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// sleepTimers holds stopped, drained timers for RealClock.Sleep.
// time.Sleep allocates a timer on a goroutine's first sleep, which an
// execution run on a goroutine of its own would pay once per flow.
var sleepTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := sleepTimers.Get().(*time.Timer)
	t.Reset(d)
	<-t.C
	sleepTimers.Put(t)
}

// VirtualClock is a thread-safe simulated clock. Sleep advances the clock
// instead of blocking, so million-step simulations finish in milliseconds
// while still producing meaningful timestamps for provenance records and
// ILM schedules.
//
// The clock is its start instant and an atomic offset from it: every
// status transition of a flow reads it, so neither Now nor Sleep takes a
// lock. Concurrent sleepers' advances add up; simulations that need true
// parallel-makespan accounting use Meter, which tracks per-lane busy time.
type VirtualClock struct {
	start time.Time
	off   atomic.Int64 // nanoseconds slept since start
}

// NewVirtualClock returns a VirtualClock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{start: start}
}

// Epoch is the default start instant for simulations: a fixed, readable
// date so provenance logs and experiment output are reproducible.
var Epoch = time.Date(2005, time.August, 1, 0, 0, 0, 0, time.UTC)

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	return c.start.Add(time.Duration(c.off.Load()))
}

// Sleep implements Clock by advancing the clock d into the future.
// Negative durations are ignored.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d > 0 {
		c.off.Add(int64(d))
	}
}
