package shard

import (
	"sync"
	"time"
)

// LeaseTable is the registry-side half of shard ownership: a map of
// shard → (holder, expiry) with claim/renew/release semantics. The
// lookup server embeds one; peers talk to it with the registry's
// control verbs ("claim"/"release", docs/WIRE.md §2 "Lookup registry").
//
// A lease is exclusive while live: Claim grants a shard only when it
// is unheld, expired, or already held by the claimant (a re-claim
// renews). Renew extends every lease a holder has — it rides the
// holder's heartbeat. ReleaseAll frees a holder's leases at once —
// the eviction path when a peer dies and its registry entry times
// out, and the clean path on unregister. That tie between the peer
// lease and its shard leases is what makes dead-owner shards
// reclaimable within one TTL with no coordinator.
type LeaseTable struct {
	mu     sync.Mutex
	shards int
	leases map[int]lease
}

// lease is one granted shard lease.
type lease struct {
	holder  string
	expires time.Time
}

// NewLeaseTable sizes a table for shards shards.
func NewLeaseTable(shards int) *LeaseTable {
	return &LeaseTable{shards: shards, leases: make(map[int]lease)}
}

// Claim attempts to grant shard to holder for ttl from now. It
// succeeds when the shard is unheld, its lease has expired, or holder
// already holds it (renewal). It returns the resulting holder — the
// claimant on success, the live holder on refusal — and whether the
// claim was granted. Out-of-range shards are refused with an empty
// holder.
func (t *LeaseTable) Claim(shard int, holder string, now time.Time, ttl time.Duration) (string, bool) {
	if shard < 0 || shard >= t.shards || holder == "" {
		return "", false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.leases[shard]; ok && cur.holder != holder && cur.expires.After(now) {
		return cur.holder, false
	}
	t.leases[shard] = lease{holder: holder, expires: now.Add(ttl)}
	return holder, true
}

// Renew extends every lease held by holder to now+ttl, returning how
// many it renewed. Expired leases still renew — the holder heartbeat
// arriving a beat late does not silently drop ownership unless
// another peer claimed in between (in which case the lease is no
// longer "held by holder" and is untouched).
func (t *LeaseTable) Renew(holder string, now time.Time, ttl time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for s, l := range t.leases {
		if l.holder == holder {
			t.leases[s] = lease{holder: holder, expires: now.Add(ttl)}
			n++
		}
	}
	return n
}

// Release frees shard if holder holds it (live or expired), reporting
// whether a lease was released. Releasing another peer's lease is
// refused — drain is voluntary, not a steal.
func (t *LeaseTable) Release(shard int, holder string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.leases[shard]; ok && cur.holder == holder {
		delete(t.leases, shard)
		return true
	}
	return false
}

// ReleaseAll frees every lease held by holder, returning the count —
// the eviction and unregister path.
func (t *LeaseTable) ReleaseAll(holder string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for s, l := range t.leases {
		if l.holder == holder {
			delete(t.leases, s)
			n++
		}
	}
	return n
}

// Owners snapshots the live (unexpired) shard → holder map.
func (t *LeaseTable) Owners(now time.Time) map[int]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]string, len(t.leases))
	for s, l := range t.leases {
		if l.expires.After(now) {
			out[s] = l.holder
		}
	}
	return out
}
