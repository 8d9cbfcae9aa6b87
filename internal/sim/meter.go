package sim

import (
	"sync"
	"time"
)

// Meter accumulates simulated busy time along named lanes. A lane is
// anything that does work serially — a storage resource, a compute node,
// a network link. Charging work to a lane extends that lane's busy time.
//
// This is how the reproduction accounts for parallelism without running a
// full discrete-event scheduler: the engines decide *what* runs *where*,
// and the meter turns those decisions into per-lane utilization, the
// figure a testbed would report.
type Meter struct {
	mu   sync.Mutex
	busy map[string]time.Duration
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{busy: make(map[string]time.Duration)}
}

// Charge adds d of busy time to the lane.
func (m *Meter) Charge(lane string, d time.Duration) {
	m.mu.Lock()
	m.busy[lane] += d
	m.mu.Unlock()
}

// Busy returns the accumulated busy time of the lane.
func (m *Meter) Busy(lane string) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.busy[lane]
}
