package dgms

import (
	"fmt"
	"sort"
	"sync"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/fault"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

// Sentinel errors for grid operations. Each wraps its dgferr class so
// callers can match against the public taxonomy.
var (
	// ErrNoResource reports an unknown logical resource name.
	ErrNoResource = dgferr.Mark(dgferr.ErrNotFound, "dgms: unknown resource")
	// ErrNoReplica reports that no usable replica of an object exists —
	// typically every holder is offline, so it classifies as transient.
	ErrNoReplica = dgferr.Mark(dgferr.ErrResourceDown, "dgms: no usable replica")
	// ErrLastReplica reports a trim that would drop the only replica.
	ErrLastReplica = dgferr.Mark(dgferr.ErrInvalid, "dgms: refusing to trim last replica")
	// ErrVetoed reports an operation vetoed by a Before trigger.
	ErrVetoed = dgferr.Mark(dgferr.ErrPermission, "dgms: operation vetoed")
)

// Options configure a Grid.
type Options struct {
	// Admin is the root owner of the namespace. Default "admin".
	Admin string
	// Clock drives simulated time. Default: virtual clock at sim.Epoch.
	Clock sim.Clock
	// Network models inter-domain links. Default: sim.NewNetwork().
	Network *sim.Network
	// Provenance receives operation records. Default: in-memory store.
	Provenance *provenance.Store
	// ChecksumOnIngest computes and records an MD5 digest for every new
	// replica (costs a simulated read). Default true — fixity on ingest
	// is the UCSD library scenario.
	ChecksumOnIngest *bool
	// Obs receives metrics and trace events from every component built
	// on this grid (engine, wire, triggers, ILM, scheduler). Default:
	// the process-wide obs.Default() registry. Tests that assert on
	// metric values should inject a fresh registry here.
	Obs *obs.Registry
	// Fault is an optional fault-injection plan evaluated on every
	// storage operation. Default nil: no faults.
	Fault *fault.Injector
}

// Grid is the Data Grid Management System: a single logical namespace
// federating storage resources from many administrative domains.
type Grid struct {
	admin string
	clock sim.Clock
	net   *sim.Network
	meter *sim.Meter
	ns    *namespace.Namespace
	prov  *provenance.Store
	bus   *Bus
	obs   *obs.Registry

	checksumOnIngest bool

	mu        sync.RWMutex
	resources map[string]*vfs.Resource
	fault     *fault.Injector
}

// New creates a grid. The zero Options value gives a fully in-memory,
// virtually clocked grid suitable for tests and experiments.
func New(opts Options) *Grid {
	if opts.Admin == "" {
		opts.Admin = "admin"
	}
	if opts.Clock == nil {
		opts.Clock = sim.NewVirtualClock(sim.Epoch)
	}
	if opts.Network == nil {
		opts.Network = sim.NewNetwork()
	}
	if opts.Provenance == nil {
		opts.Provenance = provenance.NewMemory()
	}
	cs := true
	if opts.ChecksumOnIngest != nil {
		cs = *opts.ChecksumOnIngest
	}
	if opts.Obs == nil {
		opts.Obs = obs.Default()
	}
	if opts.Fault != nil {
		opts.Fault.SetObs(opts.Obs)
	}
	return &Grid{
		admin:            opts.Admin,
		clock:            opts.Clock,
		net:              opts.Network,
		meter:            sim.NewMeter(),
		ns:               namespace.New(opts.Admin),
		prov:             opts.Provenance,
		bus:              NewBus(),
		obs:              opts.Obs,
		checksumOnIngest: cs,
		resources:        make(map[string]*vfs.Resource),
		fault:            opts.Fault,
	}
}

// Admin returns the namespace administrator user.
func (g *Grid) Admin() string { return g.admin }

// Clock returns the grid's clock.
func (g *Grid) Clock() sim.Clock { return g.clock }

// Network returns the inter-domain network model.
func (g *Grid) Network() *sim.Network { return g.net }

// Meter returns the grid's cost meter (busy time/bytes/ops per resource).
func (g *Grid) Meter() *sim.Meter { return g.meter }

// Namespace exposes the logical namespace for read-side queries. Mutations
// must go through Grid methods so that events, provenance and cost
// accounting stay consistent.
func (g *Grid) Namespace() *namespace.Namespace { return g.ns }

// Provenance returns the provenance store.
func (g *Grid) Provenance() *provenance.Store { return g.prov }

// Bus returns the namespace event bus.
func (g *Grid) Bus() *Bus { return g.bus }

// Obs returns the observability registry every component built on this
// grid emits metrics and trace events into.
func (g *Grid) Obs() *obs.Registry { return g.obs }

// SetFault attaches (or, with nil, detaches) a fault-injection plan.
// The injector's metrics are routed into the grid registry.
func (g *Grid) SetFault(in *fault.Injector) {
	if in != nil {
		in.SetObs(g.obs)
	}
	g.mu.Lock()
	g.fault = in
	g.mu.Unlock()
}

// Fault returns the attached fault injector, or nil.
func (g *Grid) Fault() *fault.Injector {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.fault
}

// faultCheck consults the fault plan before a storage operation against
// the named resource.
func (g *Grid) faultCheck(resource string) error {
	return g.Fault().CheckOp(resource)
}

// RegisterResource maps a physical storage system into the grid's logical
// resource namespace — the paper's "each SRB storage server ... maps that
// particular physical storage system into the data grid logical resource
// namespace".
func (g *Grid) RegisterResource(r *vfs.Resource) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.resources[r.Name()]; ok {
		return fmt.Errorf("dgms: resource %q already registered", r.Name())
	}
	g.resources[r.Name()] = r
	return nil
}

// Resource returns the named logical resource.
func (g *Grid) Resource(name string) (*vfs.Resource, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r, ok := g.resources[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoResource, name)
	}
	return r, nil
}

// Resources returns all registered resources sorted by name.
func (g *Grid) Resources() []*vfs.Resource {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*vfs.Resource, 0, len(g.resources))
	for _, r := range g.resources {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ResourcesInDomain returns the resources owned by one administrative
// domain, sorted by name.
func (g *Grid) ResourcesInDomain(domain string) []*vfs.Resource {
	var out []*vfs.Resource
	for _, r := range g.Resources() {
		if r.Domain() == domain {
			out = append(out, r)
		}
	}
	return out
}

// record appends a provenance record stamped with the grid clock.
func (g *Grid) record(actor, action, target, outcome, errText string, detail ...provenance.Attr) {
	_, _ = g.prov.Append(provenance.Record{
		Time:    g.clock.Now(),
		Actor:   actor,
		Action:  action,
		Target:  target,
		Outcome: outcome,
		Err:     errText,
	}, detail...)
}

func (g *Grid) recordErr(actor, action, target string, err error) {
	g.record(actor, action, target, provenance.OutcomeError, err.Error())
}

// publish2 runs the Before/After pair around op. If the Before phase is
// vetoed the operation does not run and ErrVetoed (wrapping the veto) is
// returned. op may add to ev's detail: the After phase carries it.
func (g *Grid) publish2(ev *Event, op func() error) error {
	ev.Time = g.clock.Now()
	ev.Phase = Before
	if err := g.bus.Publish(*ev); err != nil {
		return fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	if err := op(); err != nil {
		return err
	}
	ev.Phase = After
	ev.Time = g.clock.Now()
	_ = g.bus.Publish(*ev)
	return nil
}
