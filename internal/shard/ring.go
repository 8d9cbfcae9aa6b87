// Package shard partitions the flow-id space of a datagridflow network
// across its live peers, so that any peer can accept a submission and
// route it to the peer that owns it — the structural unlock for
// additive capacity the ROADMAP names ("millions of users").
//
// The package has three pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes over the live
//     peer set. Every peer builds the same ring from the same member
//     list (the hash is seeded and deterministic), so all peers agree
//     on the *desired* owner of every shard without coordination.
//   - LeaseTable: TTL ownership leases, held by the lookup registry.
//     The ring says who should own a shard; the lease says who does.
//     A lease renews with its holder's heartbeat and is released when
//     the holder drains or is evicted — claim → heartbeat → drain.
//   - Manager: the per-peer reconciler. On every gossip refresh it
//     claims the shards the ring assigns to this peer, adopts the
//     registry's authoritative owner map for routing, and drains the
//     shards it holds but should no longer (parking their idle flows
//     via store passivation before releasing the lease).
//
// Keys are mapped to a fixed number of shards (FNV-64a), and shards —
// not raw keys — are placed on the ring, so the routing table every
// peer gossips is a small dense map instead of a per-flow directory.
// Semantics are specified in docs/FEDERATION.md ("Sharded ownership").
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultSeed is the ring hash seed every peer's Manager uses. All
// peers of one network must share a seed, or they will disagree about
// shard placement.
const DefaultSeed uint64 = 0xd6f5_10ad_9e3b_0001

// DefaultVNodes is the virtual-node count per member. More virtual
// nodes smooth the shard distribution (stddev shrinks ~1/sqrt(v)) at
// the cost of a larger sorted point list; 64 keeps placement within a
// few percent of even for small federations.
const DefaultVNodes = 64

// ShardOf maps a routing key to a shard index in [0, shards) by
// finalized FNV-64a. Deterministic everywhere: every peer, every
// process, every restart maps the same key to the same shard.
func ShardOf(key string, shards int) int {
	if shards <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(mix64(h.Sum64()) % uint64(shards))
}

// mix64 is the murmur3 finalizer. Raw FNV-64a barely avalanches the
// high bits of short, similar keys ("shard-0000" … "shard-1023" land
// within 2^-20 of each other), which collapses ring placement onto
// whoever owns the lowest virtual nodes; one multiply-xor cascade
// spreads them across the full 64-bit circle.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec4a
	x ^= x >> 33
	return x
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring with virtual nodes. Build one from
// the live member set; Owner walks clockwise from a key's hash to the
// first virtual node. Adding or removing one member moves only the
// keys that hashed into the vanished (or newly claimed) arcs — about
// K/n of them — which is what bounds ownership churn on membership
// change (tested in ring_test.go).
type Ring struct {
	points []point
}

// NewRing builds a ring over members with vnodes virtual nodes per
// member (DefaultVNodes if <= 0) under the given seed. The member
// order does not matter; the ring is a pure function of the member
// set, vnodes and seed.
func NewRing(members []string, vnodes int, seed uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]point, 0, len(members)*vnodes)}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: vnodeHash(m, v, seed), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // deterministic tie-break
	})
	return r
}

// vnodeHash positions one virtual node: FNV-64a of the seed bytes,
// the member name and the virtual-node ordinal.
func vnodeHash(member string, v int, seed uint64) uint64 {
	h := fnv.New64a()
	var sb [8]byte
	for i := 0; i < 8; i++ {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	h.Write([]byte(member))
	fmt.Fprintf(h, "#%d", v)
	return mix64(h.Sum64())
}

// Owner returns the member owning a raw key (the first virtual node at
// or clockwise after the key's hash). ok is false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	h := fnv.New64a()
	h.Write([]byte(key))
	return r.ownerOfHash(mix64(h.Sum64()))
}

// OwnerOfShard returns the member the ring assigns shard to.
func (r *Ring) OwnerOfShard(shard int) (string, bool) {
	return r.Owner(shardKey(shard))
}

func (r *Ring) ownerOfHash(h uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].member, true
}

// shardKey is the ring key of a shard index.
func shardKey(shard int) string {
	return fmt.Sprintf("shard-%04d", shard)
}
