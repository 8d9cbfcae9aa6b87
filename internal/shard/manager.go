package shard

import (
	"sort"
	"sync"

	"datagridflow/internal/obs"
)

// Config tunes a Manager.
type Config struct {
	// Self is this peer's name (the identity leases are claimed under).
	Self string
	// Shards is the shard count of the network. Every peer and the
	// lookup registry must agree on it.
	Shards int
	// Obs receives the shard metrics (obs.Default() if nil):
	// shard_owned_flows, shard_owned_shards, shard_rebalances_total.
	Obs *obs.Registry
	// Resident reports whether an execution id is still resident on
	// this peer's engine — the Manager prunes its tracked-flow table
	// with it on every rebalance. Optional.
	Resident func(execID string) bool
}

// Manager is the per-peer shard reconciler: it tracks which shards
// this peer holds leases for, the registry's authoritative owner map
// (for routing), and which resident flows were accepted under which
// shard (for drain hand-off). wire.Peer drives it from the federation
// heartbeat: SetOwners adopts each gossip refresh, and Rebalance runs
// the claim → drain cycle whenever membership allows.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	owned  map[int]bool   // shards whose lease this peer holds
	owners map[int]string // registry's live shard → holder map
	track  map[string]int // execID → shard, for owned accepts
}

// NewManager builds a manager. Shards must be > 0 and Self non-empty.
func NewManager(cfg Config) *Manager {
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	return &Manager{
		cfg:    cfg,
		owned:  make(map[int]bool),
		owners: make(map[int]string),
		track:  make(map[string]int),
	}
}

// Shards returns the network's shard count.
func (m *Manager) Shards() int { return m.cfg.Shards }

// ShardOf maps a routing key to its shard.
func (m *Manager) ShardOf(key string) int { return ShardOf(key, m.cfg.Shards) }

// Desired computes the shards the ring assigns to this peer over the
// given live member set, sorted.
func (m *Manager) Desired(members []string) []int {
	ring := NewRing(members, DefaultVNodes, DefaultSeed)
	var out []int
	for s := 0; s < m.cfg.Shards; s++ {
		if owner, ok := ring.OwnerOfShard(s); ok && owner == m.cfg.Self {
			out = append(out, s)
		}
	}
	return out
}

// SetOwners adopts the registry's live shard → holder map — the
// routing table every peer uses to pick a submit's destination. The
// peer's own owned set is re-derived from it: a lease the registry no
// longer shows under this peer (expired and reclaimed) is dropped.
func (m *Manager) SetOwners(owners map[int]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.owners = make(map[int]string, len(owners))
	owned := make(map[int]bool)
	for s, h := range owners {
		m.owners[s] = h
		if h == m.cfg.Self {
			owned[s] = true
		}
	}
	m.owned = owned
	m.gaugesLocked()
}

// Owns reports whether this peer holds shard's lease.
func (m *Manager) Owns(shard int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owned[shard]
}

// Owned returns the shards this peer holds, sorted.
func (m *Manager) Owned() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.owned))
	for s := range m.owned {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// OwnerOfShard returns the live holder of shard from the adopted
// registry map.
func (m *Manager) OwnerOfShard(shard int) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.owners[shard]
	return h, ok
}

// OwnerOf resolves a routing key to its shard's live holder.
func (m *Manager) OwnerOf(key string) (holder string, shard int, ok bool) {
	shard = m.ShardOf(key)
	holder, ok = m.OwnerOfShard(shard)
	return holder, shard, ok
}

// Track records that execID was accepted on this peer under shard —
// the drain index. Untracked automatically once the execution is no
// longer resident (see Config.Resident).
func (m *Manager) Track(execID string, shard int) {
	m.mu.Lock()
	m.track[execID] = shard
	m.gaugesLocked()
	m.mu.Unlock()
}

// Untrack forgets one tracked execution.
func (m *Manager) Untrack(execID string) {
	m.mu.Lock()
	delete(m.track, execID)
	m.gaugesLocked()
	m.mu.Unlock()
}

// TrackedShard returns the shard execID was accepted under, if this
// peer tracked the accept.
func (m *Manager) TrackedShard(execID string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.track[execID]
	return s, ok
}

// Tracked returns the tracked executions of one shard.
func (m *Manager) Tracked(shard int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, s := range m.track {
		if s == shard {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Rebalance runs one claim → drain cycle against the lease authority:
//
//  1. prune the tracked-flow table of executions no longer resident;
//  2. claim every shard the ring (over members) assigns to this peer —
//     claim also renews leases already held;
//  3. adopt the owner map the claim reply returned;
//  4. drain every shard this peer holds but the ring no longer assigns
//     to it: hand its tracked flows to drain (the caller parks them
//     via store passivation) and release the lease.
//
// claim and release talk to the lookup registry; drain may be nil.
// Rebalance reports whether the owned set changed (and counts it in
// shard_rebalances_total).
func (m *Manager) Rebalance(
	members []string,
	claim func(shards []int) (map[int]string, error),
	release func(shards []int) error,
	drain func(shard int, execIDs []string),
) bool {
	m.pruneTracked()
	desired := m.Desired(members)
	before := m.Owned()

	owners, err := claim(desired)
	if err != nil {
		return false // registry unreachable: keep routing on the last map
	}
	m.SetOwners(owners)

	// Drain: held before, no longer desired, and still shown under us
	// (a lease another peer already took needs no release).
	want := make(map[int]bool, len(desired))
	for _, s := range desired {
		want[s] = true
	}
	var drop []int
	for _, s := range before {
		if !want[s] && m.Owns(s) {
			drop = append(drop, s)
		}
	}
	if len(drop) > 0 {
		for _, s := range drop {
			if drain != nil {
				drain(s, m.Tracked(s))
			}
		}
		if release != nil {
			_ = release(drop)
		}
		m.mu.Lock()
		for _, s := range drop {
			delete(m.owned, s)
			delete(m.owners, s)
		}
		m.gaugesLocked()
		m.mu.Unlock()
	}

	after := m.Owned()
	changed := !equalInts(before, after)
	if changed {
		m.cfg.Obs.Counter("shard_rebalances_total").Inc()
	}
	return changed
}

// pruneTracked drops tracked executions that are no longer resident.
func (m *Manager) pruneTracked() {
	if m.cfg.Resident == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range m.track {
		if !m.cfg.Resident(id) {
			delete(m.track, id)
		}
	}
	m.gaugesLocked()
}

// gaugesLocked refreshes the ownership gauges. Caller holds m.mu.
func (m *Manager) gaugesLocked() {
	m.cfg.Obs.Gauge("shard_owned_shards").Set(int64(len(m.owned)))
	m.cfg.Obs.Gauge("shard_owned_flows").Set(int64(len(m.track)))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
