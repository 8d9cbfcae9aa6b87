// Package scheduler implements the grid scheduler/broker of the paper's
// DfMS architecture: the "intermediaries that do the planning and
// matchmaking between the appropriate tasks in a workflow with the
// resources that are available". It converts abstract execution logic
// (tasks naming requirements) into infrastructure-based execution logic
// (tasks bound to concrete nodes and replicas), choosing placements by a
// cost heuristic over data movement, compute time and queue wait — "the
// cost is just an approximate value based on certain heuristics used by
// the scheduler".
//
// The broker records each task's derivation in a virtual-data catalog
// (internal/vdata, the GriPhyN Chimera analog), and a task whose
// derivation is recorded and whose output still exists is skipped
// rather than recomputed.
package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/infra"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/vdata"
)

// Errors returned by the broker.
var (
	// ErrNoNodes reports a broker with no compute inventory.
	ErrNoNodes = errors.New("scheduler: no compute nodes")
	// ErrNoInput reports a task input with no available replica.
	ErrNoInput = errors.New("scheduler: task input unavailable")
)

// Task is one unit of abstract execution logic: what must run and what
// data it touches, with no mention of where.
type Task struct {
	// Name identifies the task (used in provenance and virtual data).
	Name string
	// Transformation names the business logic (binary) applied; together
	// with the inputs it keys the virtual-data catalog.
	Transformation string
	// CPUSeconds is the task's cost on the reference machine (power 1.0).
	CPUSeconds float64
	// Inputs are logical paths read by the task.
	Inputs []string
	// Output is the logical path produced (may be empty for pure
	// side-effect tasks).
	Output string
	// OutputSize is the size of the produced object.
	OutputSize int64
	// PreferDomain biases placement when costs tie.
	PreferDomain string
}

// Placement is one candidate binding of a task to infrastructure.
type Placement struct {
	Node infra.ComputeNode
	// InputSources maps each input path to the resource it is read from.
	InputSources map[string]string
	// Estimate breaks down the predicted cost.
	Estimate Cost
}

// Cost is the broker's heuristic estimate for a placement.
type Cost struct {
	// DataMoved is the bytes that must cross domain boundaries.
	DataMoved int64
	// Transfer is the predicted time moving inputs to the node.
	Transfer time.Duration
	// Compute is the predicted execution time on the node.
	Compute time.Duration
	// Queue is the predicted wait for a free node slot.
	Queue time.Duration
}

// Total is the completion-time estimate placements are ranked by.
func (c Cost) Total() time.Duration { return c.Transfer + c.Compute + c.Queue }

// Strategy selects among candidate placements; the ablation in E9
// compares these.
type Strategy int

// Placement strategies.
const (
	// CostBased picks the minimum estimated completion time (the paper's
	// broker behaviour).
	CostBased Strategy = iota
	// RandomPlacement picks uniformly (seeded, reproducible).
	RandomPlacement
	// StaticPlacement always uses the first node (the hard-wired script
	// baseline's behaviour).
	StaticPlacement
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case CostBased:
		return "cost-based"
	case RandomPlacement:
		return "random"
	case StaticPlacement:
		return "static"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Broker plans and executes tasks on a grid plus compute inventory.
type Broker struct {
	grid  *dgms.Grid
	nodes []infra.ComputeNode
	rng   *sim.Rand
	// user is the grid identity broker actions (output ingests) run as.
	user string

	// desc, when set, gates placement by SLA: nodes in domains whose
	// SLAs do not admit the broker's user are excluded (domains without
	// SLAs stay open).
	desc *infra.Description

	mu sync.Mutex
	// busyUntil tracks per-node-pool earliest free slot times, one entry
	// per node in the pool.
	busyUntil map[string][]time.Time

	catalog *vdata.Catalog

	// stats
	executed int64
	skipped  int64
}

// NewBroker creates a broker over the grid and compute inventory. The
// seed drives RandomPlacement reproducibly.
func NewBroker(g *dgms.Grid, nodes []infra.ComputeNode, seed int64) *Broker {
	// A memory-only catalog cannot fail to open.
	catalog, _ := vdata.Open("", g.Obs())
	b := &Broker{
		grid:      g,
		nodes:     append([]infra.ComputeNode(nil), nodes...),
		rng:       sim.NewRand(seed),
		user:      g.Admin(),
		busyUntil: make(map[string][]time.Time),
		catalog:   catalog,
	}
	for _, n := range nodes {
		b.busyUntil[n.Name] = make([]time.Time, n.Nodes)
	}
	return b
}

// SetUser changes the grid identity broker actions run as (default: the
// grid admin). The user is the tenant of the broker's derivations, so
// tasks run under different users do not share them.
func (b *Broker) SetUser(user string) { b.user = user }

// SetDescription enables SLA enforcement: placement only considers
// compute nodes in domains whose SLAs admit the broker's user. Domains
// that declare no SLAs remain open to everyone; the admitting SLA's
// priority breaks cost ties (the paper's "preferred type of users or
// tasks that could be executed on each resource").
func (b *Broker) SetDescription(d *infra.Description) { b.desc = d }

// slaFor returns the admitting SLA priority for a node and whether the
// node is admitted at all.
func (b *Broker) slaFor(node infra.ComputeNode) (int, bool) {
	if b.desc == nil {
		return 0, true
	}
	hasSLAs := false
	for _, dom := range b.desc.Domains {
		if dom.Name == node.Domain && len(dom.SLAs) > 0 {
			hasSLAs = true
		}
	}
	if !hasSLAs {
		return 0, true
	}
	sla, ok := b.desc.SLAFor(node.Domain, b.user)
	if !ok {
		return 0, false
	}
	return sla.Priority, true
}

// Stats reports executed vs virtual-data-skipped task counts.
func (b *Broker) Stats() (executed, skipped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.executed, b.skipped
}

// estimate prices running the task on one node.
func (b *Broker) estimate(task *Task, node infra.ComputeNode, now time.Time) (Placement, error) {
	p := Placement{Node: node, InputSources: make(map[string]string, len(task.Inputs))}
	for _, in := range task.Inputs {
		reps, err := b.grid.Namespace().Replicas(in)
		if err != nil || len(reps) == 0 {
			return p, fmt.Errorf("%w: %s", ErrNoInput, in)
		}
		// Choose the replica with the cheapest path to the node: replica
		// selection is part of late binding.
		bestRes := ""
		bestTime := time.Duration(1<<63 - 1)
		var bestBytes int64
		for _, rep := range reps {
			res, err := b.grid.Resource(rep.Resource)
			if err != nil || res.Offline() {
				continue
			}
			size, ok := res.Stat(rep.PhysicalID)
			if !ok {
				continue
			}
			rd := res.ReadTime(size)
			var tt time.Duration
			if res.Domain() == node.Domain {
				// Local read: only the storage cost.
				tt = rd
			} else {
				net, err := b.grid.Network().TransferTime(res.Domain(), node.Domain, size)
				if err != nil {
					continue
				}
				tt = rd + net
			}
			if tt < bestTime {
				bestTime, bestRes = tt, rep.Resource
				if res.Domain() == node.Domain {
					bestBytes = 0
				} else {
					bestBytes = size
				}
			}
		}
		if bestRes == "" {
			return p, fmt.Errorf("%w: %s (all replicas unusable)", ErrNoInput, in)
		}
		p.InputSources[in] = bestRes
		p.Estimate.Transfer += bestTime
		p.Estimate.DataMoved += bestBytes
	}
	p.Estimate.Compute = time.Duration(task.CPUSeconds / node.Power * float64(time.Second))
	p.Estimate.Queue = b.queueWait(node.Name, now)
	return p, nil
}

// queueWait returns how long a new task would wait for a slot on a pool.
func (b *Broker) queueWait(pool string, now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	slots := b.busyUntil[pool]
	if len(slots) == 0 {
		return 0
	}
	earliest := slots[0]
	for _, t := range slots[1:] {
		if t.Before(earliest) {
			earliest = t
		}
	}
	if earliest.Before(now) {
		return 0
	}
	return earliest.Sub(now)
}

// Plan evaluates every node and returns the placement the strategy
// selects, plus all candidates (sorted by cost) for reporting.
func (b *Broker) Plan(task *Task, strategy Strategy) (Placement, []Placement, error) {
	if len(b.nodes) == 0 {
		return Placement{}, nil, ErrNoNodes
	}
	now := b.grid.Clock().Now()
	candidates := make([]Placement, 0, len(b.nodes))
	prios := make(map[string]int, len(b.nodes))
	for _, n := range b.nodes {
		prio, admitted := b.slaFor(n)
		if !admitted {
			continue
		}
		p, err := b.estimate(task, n, now)
		if err != nil {
			return Placement{}, nil, err
		}
		prios[n.Name] = prio
		candidates = append(candidates, p)
	}
	if len(candidates) == 0 {
		return Placement{}, nil, fmt.Errorf("%w: no SLA admits user %q", ErrNoNodes, b.user)
	}
	// Each candidate carried one matchmaking cost evaluation.
	b.grid.Obs().Counter("scheduler_placements_evaluated_total").Add(int64(len(candidates)))
	b.grid.Obs().Counter("scheduler_plans_total", "strategy", strategy.String()).Inc()
	sort.Slice(candidates, func(i, j int) bool {
		ci, cj := candidates[i].Estimate.Total(), candidates[j].Estimate.Total()
		if ci != cj {
			return ci < cj
		}
		// Ties break toward the preferred domain, then SLA priority,
		// then by name for determinism.
		pi := candidates[i].Node.Domain == task.PreferDomain
		pj := candidates[j].Node.Domain == task.PreferDomain
		if pi != pj {
			return pi
		}
		if prios[candidates[i].Node.Name] != prios[candidates[j].Node.Name] {
			return prios[candidates[i].Node.Name] > prios[candidates[j].Node.Name]
		}
		return candidates[i].Node.Name < candidates[j].Node.Name
	})
	var chosen Placement
	switch strategy {
	case CostBased:
		chosen = candidates[0]
	case RandomPlacement:
		chosen = candidates[b.rng.Intn(len(candidates))]
	case StaticPlacement:
		// The first node in inventory order, regardless of cost; falls
		// back to the cheapest candidate when SLA filtering excluded it.
		chosen = candidates[0]
		for _, c := range candidates {
			if c.Node.Name == b.nodes[0].Name {
				chosen = c
				break
			}
		}
	default:
		chosen = candidates[0]
	}
	return chosen, candidates, nil
}

// Execute plans and runs the task: virtual-data check, input staging
// (metered), compute (metered on the node lane), output registration and
// derivation recording. outputResource names where the output lands; if
// empty, the least-loaded storage resource in the node's domain is used.
func (b *Broker) Execute(task *Task, strategy Strategy, outputResource string) (Placement, error) {
	// Virtual data: an existing, still-present derivation short-circuits
	// the whole task.
	var key string
	if task.Output != "" {
		key = vdata.Key(task.Transformation, task.Inputs, nil, b.user)
		if ent, ok := b.catalog.Lookup(b.user, key); ok && slices.Contains(ent.Outputs, task.Output) &&
			b.grid.Namespace().Exists(task.Output) {
			b.mu.Lock()
			b.skipped++
			b.mu.Unlock()
			b.grid.Obs().Counter("scheduler_virtual_data_hits_total").Inc()
			_, _ = b.grid.Provenance().Append(provenance.Record{
				Time: b.grid.Clock().Now(), Actor: "broker", Action: "task.virtual-data-hit",
				Target: task.Output, Outcome: provenance.OutcomeSkipped,
			}, provenance.Attr{Key: "transformation", Value: task.Transformation})
			return Placement{}, nil
		}
	}
	chosen, _, err := b.Plan(task, strategy)
	if err != nil {
		return Placement{}, err
	}
	now := b.grid.Clock().Now()
	// Stage inputs: charge the network for cross-domain reads.
	for in, resName := range chosen.InputSources {
		res, err := b.grid.Resource(resName)
		if err != nil {
			return chosen, err
		}
		size, ok := res.Stat(in)
		if !ok {
			return chosen, fmt.Errorf("%w: %s vanished from %s", ErrNoInput, in, resName)
		}
		if res.Domain() != chosen.Node.Domain {
			if _, err := b.grid.Network().RecordTransfer(res.Domain(), chosen.Node.Domain, size); err != nil {
				return chosen, err
			}
		}
	}
	// Occupy a node slot: the earliest-free slot runs the task. The
	// global clock is NOT advanced by per-task compute — tasks on
	// different slots overlap, and the simulated completion time of the
	// whole farm is derived from the slot bookings via Makespan.
	compute := chosen.Estimate.Compute
	b.mu.Lock()
	slots := b.busyUntil[chosen.Node.Name]
	idx := 0
	for i := 1; i < len(slots); i++ {
		if slots[i].Before(slots[idx]) {
			idx = i
		}
	}
	start := now
	if slots[idx].After(start) {
		start = slots[idx]
	}
	end := start.Add(chosen.Estimate.Transfer + compute)
	slots[idx] = end
	b.executed++
	b.mu.Unlock()
	b.grid.Obs().Counter("scheduler_tasks_executed_total").Inc()
	b.grid.Meter().Charge(chosen.Node.Name, compute)
	// Register the output.
	if task.Output != "" {
		res := outputResource
		if res == "" {
			res = b.pickOutputResource(chosen.Node.Domain, task.OutputSize)
		}
		if res == "" {
			return chosen, fmt.Errorf("scheduler: no storage in domain %s for output %s", chosen.Node.Domain, task.Output)
		}
		if err := b.grid.Ingest(b.user, task.Output, task.OutputSize, nil, res); err != nil {
			return chosen, err
		}
		if err := b.catalog.Publish(vdata.Entry{Key: key, Tenant: b.user, Op: task.Transformation,
			Inputs: task.Inputs, Outputs: []string{task.Output}}); err != nil {
			return chosen, err
		}
	}
	_, _ = b.grid.Provenance().Append(provenance.Record{
		Time: b.grid.Clock().Now(), Actor: "broker", Action: "task.execute",
		Target: task.Name,
	}, provenance.Attr{Key: "node", Value: chosen.Node.Name},
		provenance.Attr{Key: "strategy", Value: strategy.String()},
		provenance.Attr{Key: "moved", Value: fmt.Sprint(chosen.Estimate.DataMoved)})
	return chosen, nil
}

// pickOutputResource selects the domain's storage resource with the most
// free space that fits size.
func (b *Broker) pickOutputResource(domain string, size int64) string {
	best := ""
	var bestFree int64 = -1
	for _, r := range b.grid.ResourcesInDomain(domain) {
		if r.Offline() || r.Free() < size {
			continue
		}
		if r.Free() > bestFree {
			best, bestFree = r.Name(), r.Free()
		}
	}
	return best
}

// Makespan reports the latest busy-until across all node slots — the
// simulated completion time of everything executed so far.
func (b *Broker) Makespan(start time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var latest time.Time
	for _, slots := range b.busyUntil {
		for _, t := range slots {
			if t.After(latest) {
				latest = t
			}
		}
	}
	if latest.Before(start) {
		return 0
	}
	return latest.Sub(start)
}
