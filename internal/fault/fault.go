// Package fault is the deterministic fault-injection plane of the
// reproduction. The paper's whole premise is that datagridflows are
// *long-run* processes that outlive transient resource, network and
// server failures; this package makes those failures happen on demand,
// reproducibly, against the simulation substrate.
//
// A Plan is a seeded schedule of fault events against named targets:
// resource outage windows, flaky windows (per-operation error
// probability), wire-level connection drops, peer crash/restart windows
// and induced latency. An Injector evaluates the plan against the sim
// clock; the DGMS consults it on every storage operation
// (dgms.Options.Fault / Grid.SetFault) and wire servers consult it per
// frame (wire.Server.SetFault).
//
// Determinism: windowed faults depend only on the clock, and
// probabilistic faults hash (seed, target, per-target operation ordinal)
// — so a sequential workload replayed under the same plan produces the
// identical fault sequence, which the fault-plan determinism test
// asserts. See docs/FAULTS.md for the schedule format and semantics.
package fault

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
)

// Kind names a fault type.
type Kind string

// Fault kinds.
const (
	// ResourceDown takes the target storage resource offline for the
	// window: every operation against it fails with ErrResourceDown.
	ResourceDown Kind = "resource-down"
	// ResourceFlaky makes operations against the target fail with
	// probability Prob during the window.
	ResourceFlaky Kind = "resource-flaky"
	// PeerCrash crashes the target wire server for the window: the
	// server drops every connection that sends a frame, simulating a
	// matrixd crash; after the window it accepts again (restart).
	PeerCrash Kind = "peer-crash"
	// ConnDrop drops wire connections to the target with probability
	// Prob per frame during the window.
	ConnDrop Kind = "conn-drop"
	// Latency adds Delay of induced latency to every operation or frame
	// against the target during the window.
	Latency Kind = "latency"
)

// Event is one scheduled fault: at offset At from the injector's epoch,
// the fault Kind applies to Target for Duration.
type Event struct {
	// At is the window start, as an offset from the injector epoch.
	At time.Duration `json:"-"`
	// Target names what fails: a resource name for storage faults, a
	// server/peer name for wire faults.
	Target string `json:"target"`
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// Duration is the window length. Zero means open-ended (the fault
	// holds from At onward).
	Duration time.Duration `json:"-"`
	// Prob is the per-operation failure probability for ResourceFlaky
	// and ConnDrop.
	Prob float64 `json:"prob,omitempty"`
	// Delay is the induced latency per operation for Latency events.
	Delay time.Duration `json:"-"`
}

// active reports whether the event's window covers the offset t.
func (e *Event) active(t time.Duration) bool {
	if t < e.At {
		return false
	}
	return e.Duration == 0 || t < e.At+e.Duration
}

// eventJSON is the wire/file form of Event: durations as strings
// ("30s", "5m") so plans are hand-writable.
type eventJSON struct {
	At       string  `json:"at"`
	Target   string  `json:"target"`
	Kind     Kind    `json:"kind"`
	Duration string  `json:"duration,omitempty"`
	Prob     float64 `json:"prob,omitempty"`
	Delay    string  `json:"delay,omitempty"`
}

// MarshalJSON renders the event with human-readable durations.
func (e Event) MarshalJSON() ([]byte, error) {
	out := eventJSON{
		At: e.At.String(), Target: e.Target, Kind: e.Kind, Prob: e.Prob,
	}
	if e.Duration != 0 {
		out.Duration = e.Duration.String()
	}
	if e.Delay != 0 {
		out.Delay = e.Delay.String()
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the human-readable event form.
func (e *Event) UnmarshalJSON(data []byte) error {
	var in eventJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	parse := func(s, field string) (time.Duration, error) {
		if s == "" {
			return 0, nil
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("fault: event %s: bad %s %q: %w", in.Target, field, s, err)
		}
		return d, nil
	}
	var err error
	if e.At, err = parse(in.At, "at"); err != nil {
		return err
	}
	if e.Duration, err = parse(in.Duration, "duration"); err != nil {
		return err
	}
	if e.Delay, err = parse(in.Delay, "delay"); err != nil {
		return err
	}
	e.Target, e.Kind, e.Prob = in.Target, in.Kind, in.Prob
	return nil
}

// Plan is a reproducible fault schedule: a seed plus events. The same
// plan against the same workload yields the same fault sequence.
type Plan struct {
	Seed   int64   `json:"seed"`
	Events []Event `json:"events"`
}

// Validate checks the plan's events for well-formedness.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.Target == "" {
			return fmt.Errorf("%w: fault event %d has no target", dgferr.ErrInvalid, i)
		}
		switch e.Kind {
		case ResourceDown, PeerCrash, Latency:
		case ResourceFlaky, ConnDrop:
			if e.Prob < 0 || e.Prob > 1 {
				return fmt.Errorf("%w: fault event %d: prob %v outside [0,1]", dgferr.ErrInvalid, i, e.Prob)
			}
		default:
			return fmt.Errorf("%w: fault event %d: unknown kind %q", dgferr.ErrInvalid, i, e.Kind)
		}
		if e.At < 0 || e.Duration < 0 || e.Delay < 0 {
			return fmt.Errorf("%w: fault event %d: negative duration", dgferr.ErrInvalid, i)
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON plan document.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: fault plan: %v", dgferr.ErrInvalid, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Injector evaluates a Plan against a clock. It is safe for concurrent
// use. The zero value is not usable; construct with NewInjector.
type Injector struct {
	clock sim.Clock
	epoch time.Time
	plan  Plan
	obs   *obs.Registry

	mu       sync.Mutex
	ordinals map[string]uint64 // per-target operation counters
}

// NewInjector builds an injector whose epoch (the zero point of event
// offsets) is the clock's current time. The plan is validated.
func NewInjector(clock sim.Clock, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		clock:    clock,
		epoch:    clock.Now(),
		plan:     plan,
		ordinals: make(map[string]uint64),
	}, nil
}

// SetObs directs the injector's metrics (fault_injections_total) into a
// registry. The DGMS wires this to the grid registry on SetFault.
func (in *Injector) SetObs(r *obs.Registry) {
	in.mu.Lock()
	in.obs = r
	in.mu.Unlock()
}

// count bumps the injection counter for a fired fault.
func (in *Injector) count(kind Kind) {
	in.mu.Lock()
	r := in.obs
	in.mu.Unlock()
	if r != nil {
		r.Counter("fault_injections_total", "kind", string(kind)).Inc()
	}
}

// ordinal returns the 1-based index of this operation against target —
// the deterministic replacement for an RNG draw sequence.
func (in *Injector) ordinal(target string) uint64 {
	in.mu.Lock()
	in.ordinals[target]++
	n := in.ordinals[target]
	in.mu.Unlock()
	return n
}

// roll makes the deterministic probabilistic decision for the n-th
// operation on target: hash(seed, target, n) scaled to [0,1) < prob.
func (in *Injector) roll(target string, n uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(in.plan.Seed) >> (8 * i))
		buf[8+i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(target))
	return float64(h.Sum64()>>11)/float64(1<<53) < prob
}

// CheckOp evaluates the plan for one storage operation against target.
// It returns a typed error (dgferr.ErrResourceDown) if a fault fires,
// charging induced latency to the clock first. A nil *Injector (no plan
// attached) never fires.
func (in *Injector) CheckOp(target string) error {
	if in == nil {
		return nil
	}
	t := in.clock.Now().Sub(in.epoch)
	var flaky *Event
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Target != target || !e.active(t) {
			continue
		}
		switch e.Kind {
		case ResourceDown:
			in.count(ResourceDown)
			return fmt.Errorf("%w: injected outage on %s", dgferr.ErrResourceDown, target)
		case ResourceFlaky:
			if flaky == nil || e.Prob > flaky.Prob {
				flaky = e
			}
		case Latency:
			in.count(Latency)
			in.clock.Sleep(e.Delay)
		}
	}
	if flaky != nil && in.roll(target, in.ordinal(target), flaky.Prob) {
		in.count(ResourceFlaky)
		return fmt.Errorf("%w: injected flake on %s", dgferr.ErrResourceDown, target)
	}
	return nil
}

// ConnFault evaluates the plan for one wire frame against target (a
// server or peer name). drop reports the connection should be severed
// (peer crash window or probabilistic connection drop); delay is induced
// latency the server charges before handling the frame.
func (in *Injector) ConnFault(target string) (drop bool, delay time.Duration) {
	if in == nil {
		return false, 0
	}
	t := in.clock.Now().Sub(in.epoch)
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Target != target || !e.active(t) {
			continue
		}
		switch e.Kind {
		case PeerCrash:
			in.count(PeerCrash)
			return true, 0
		case ConnDrop:
			if in.roll(target, in.ordinal(target), e.Prob) {
				in.count(ConnDrop)
				return true, 0
			}
		case Latency:
			in.count(Latency)
			delay += e.Delay
		}
	}
	return false, delay
}

// Down reports whether target is inside a ResourceDown or PeerCrash
// window right now — introspection for schedulers and tests.
func (in *Injector) Down(target string) bool {
	if in == nil {
		return false
	}
	t := in.clock.Now().Sub(in.epoch)
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Target == target && e.active(t) && (e.Kind == ResourceDown || e.Kind == PeerCrash) {
			return true
		}
	}
	return false
}
