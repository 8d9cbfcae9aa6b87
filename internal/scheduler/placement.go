package scheduler

// Peer placement extends the broker's matchmaking from "which grid
// resource runs this task" to "which matrixd peer runs this subflow" —
// the federation layer (internal/federation) asks a PlacementPolicy to
// pick a peer for every delegated subflow. Load figures come from the
// gossip the lookup server relays on heartbeat (the same sched_* /
// wire_inflight gauges the admission scheduler maintains), and the
// least-loaded policy ranks peers with the broker's Cost heuristic, so
// peer placement and task matchmaking share one cost model.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// PeerLoad is one peer's self-reported load, published on heartbeat and
// gossiped to every other peer. Figures mirror the admission scheduler
// and engine gauges (docs/METRICS.md): Inflight = wire_inflight,
// Queued = sched_waiting, Running = matrix_executions_running,
// Capacity = the admission pool size.
type PeerLoad struct {
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	Capacity int64 `json:"capacity"`
	// Resources are the grid resource names the peer hosts — the
	// locality policy matches subflow resource hints against them.
	Resources []string `json:"resources,omitempty"`
}

// Cost maps the load figures onto the broker's placement cost model:
// queue wait dominates (requests already waiting for a slot), then
// pool pressure, then running executions as a tiebreaker. The absolute
// durations are nominal — only the ordering matters to Pick.
func (p PeerLoad) Cost() Cost {
	cap := p.Capacity
	if cap <= 0 {
		cap = 1
	}
	return Cost{
		Queue:    time.Duration(p.Queued) * time.Second,
		Transfer: time.Duration(float64(p.Inflight) / float64(cap) * float64(time.Second)),
		Compute:  time.Duration(p.Running) * time.Millisecond,
	}
}

// Score is the scalar the least-loaded policy minimizes.
func (p PeerLoad) Score() float64 { return p.Cost().Total().Seconds() }

// HostsResource reports whether the peer advertises the named resource.
func (p PeerLoad) HostsResource(name string) bool {
	for _, r := range p.Resources {
		if r == name {
			return true
		}
	}
	return false
}

// Candidate is one peer offered to a placement policy.
type Candidate struct {
	Name string
	Load PeerLoad
}

// Hint is what the delegating side knows of where a subflow would
// rather run; either field may be empty. Each policy reads what it
// places by, and the rest ignore it.
type Hint struct {
	// Resource is a grid resource one of the subflow's steps names: the
	// locality policy moves the work to a peer hosting it.
	Resource string
	// Holder is the peer already holding a memoized derivation of one of
	// the subflow's pure steps (docs/VDATA.md): the vdata-locality policy
	// routes the work to it.
	Holder string
}

// PlacementPolicy picks the peer a delegated subflow runs on. local is
// the delegating peer's own name (always among the candidates when it
// is willing to run the work itself). ok is false when the policy has
// no candidate at all.
//
// Implementations must be safe for concurrent use: one policy instance
// serves every delegation a peer makes.
type PlacementPolicy interface {
	Name() string
	Pick(local string, hint Hint, peers []Candidate) (peer string, ok bool)
}

// sortedCandidates returns the candidates ordered by name, for
// deterministic tie-breaking.
func sortedCandidates(peers []Candidate) []Candidate {
	out := append([]Candidate(nil), peers...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LeastLoaded picks the candidate with the minimum load cost
// (PeerLoad.Cost().Total()), breaking ties by name. This is the
// default federation policy: it reuses the broker's completion-time
// ranking, substituting gossip load for replica transfer estimates.
type LeastLoaded struct{}

// Name implements PlacementPolicy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements PlacementPolicy.
func (LeastLoaded) Pick(local string, hint Hint, peers []Candidate) (string, bool) {
	return minScore(sortedCandidates(peers))
}

func minScore(sorted []Candidate) (string, bool) {
	if len(sorted) == 0 {
		return "", false
	}
	best := sorted[0]
	for _, c := range sorted[1:] {
		if c.Load.Score() < best.Load.Score() {
			best = c
		}
	}
	return best.Name, true
}

// RoundRobin rotates through the candidates in name order, ignoring
// load — the predictable-spread baseline.
type RoundRobin struct {
	mu sync.Mutex
	n  int
}

// Name implements PlacementPolicy.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements PlacementPolicy.
func (p *RoundRobin) Pick(local string, hint Hint, peers []Candidate) (string, bool) {
	sorted := sortedCandidates(peers)
	if len(sorted) == 0 {
		return "", false
	}
	p.mu.Lock()
	i := p.n % len(sorted)
	p.n++
	p.mu.Unlock()
	return sorted[i].Name, true
}

// Locality prefers peers that host the subflow's hinted resource (so
// the work moves to the data, per the paper's placement rationale),
// falling back to least-loaded among them — or among everyone when no
// candidate hosts the resource or no resource was hinted.
type Locality struct{}

// Name implements PlacementPolicy.
func (Locality) Name() string { return "locality" }

// Pick implements PlacementPolicy.
func (Locality) Pick(local string, hint Hint, peers []Candidate) (string, bool) {
	sorted := sortedCandidates(peers)
	if hint.Resource != "" {
		var hosting []Candidate
		for _, c := range sorted {
			if c.Load.HostsResource(hint.Resource) {
				hosting = append(hosting, c)
			}
		}
		if len(hosting) > 0 {
			return minScore(hosting)
		}
	}
	return minScore(sorted)
}

// VdataLocalityName is the flag name of the VdataLocality policy.
const VdataLocalityName = "vdata-locality"

// VdataLocality routes pure subflows to the peer already holding their
// memoized derivations (docs/VDATA.md): the hint's Holder — the
// derivation holder the delegating side resolved from its catalog or
// the lookup registry — wins outright when it is a candidate, so the
// remote run hits that peer's catalog without any network graft.
// Without a holder, or when it is not a live candidate, it falls back
// to least-loaded.
type VdataLocality struct{}

// Name implements PlacementPolicy.
func (VdataLocality) Name() string { return VdataLocalityName }

// Pick implements PlacementPolicy.
func (VdataLocality) Pick(local string, hint Hint, peers []Candidate) (string, bool) {
	sorted := sortedCandidates(peers)
	if hint.Holder != "" {
		for _, c := range sorted {
			if c.Name == hint.Holder {
				return c.Name, true
			}
		}
	}
	return minScore(sorted)
}

// NewPolicy resolves a policy by its flag name ("least-loaded",
// "round-robin", "locality", "vdata-locality") — the matrixd
// -placement values.
func NewPolicy(name string) (PlacementPolicy, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}, nil
	case "round-robin":
		return &RoundRobin{}, nil
	case "locality":
		return Locality{}, nil
	case VdataLocalityName:
		return VdataLocality{}, nil
	default:
		return nil, fmt.Errorf("scheduler: unknown placement policy %q (want least-loaded, round-robin, locality or vdata-locality)", name)
	}
}
