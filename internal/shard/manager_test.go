package shard

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"datagridflow/internal/obs"
)

func newTestManager(self string, shards int) *Manager {
	return NewManager(Config{Self: self, Shards: shards, Obs: obs.NewRegistry()})
}

func TestManagerDesiredCoversAllShardsAcrossPeers(t *testing.T) {
	const shards = 64
	members := []string{"siteA", "siteB", "siteC"}
	seen := make(map[int]string)
	for _, self := range members {
		m := newTestManager(self, shards)
		for _, s := range m.Desired(members) {
			if prev, dup := seen[s]; dup {
				t.Fatalf("shard %d desired by both %s and %s", s, prev, self)
			}
			seen[s] = self
		}
	}
	if len(seen) != shards {
		t.Fatalf("peers together desire %d/%d shards", len(seen), shards)
	}
}

func TestManagerSetOwnersDerivesOwned(t *testing.T) {
	m := newTestManager("siteA", 8)
	m.SetOwners(map[int]string{0: "siteA", 1: "siteB", 5: "siteA"})
	if got := fmt.Sprint(m.Owned()); got != "[0 5]" {
		t.Errorf("Owned() = %s", got)
	}
	if !m.Owns(5) || m.Owns(1) || m.Owns(7) {
		t.Errorf("Owns wrong: owns5=%v owns1=%v owns7=%v", m.Owns(5), m.Owns(1), m.Owns(7))
	}
	if h, ok := m.OwnerOfShard(1); !ok || h != "siteB" {
		t.Errorf("OwnerOfShard(1) = %q, %v", h, ok)
	}
	key := RoutingKeyFor(m, 5)
	if h, s, ok := m.OwnerOf(key); !ok || h != "siteA" || s != 5 {
		t.Errorf("OwnerOf(%q) = %q, %d, %v", key, h, s, ok)
	}
}

// RoutingKeyFor brute-forces a key that lands on the given shard.
func RoutingKeyFor(m *Manager, shard int) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("user/flow%d", i)
		if m.ShardOf(key) == shard {
			return key
		}
	}
}

func TestManagerTracking(t *testing.T) {
	m := newTestManager("siteA", 8)
	m.Track("exec1", 3)
	m.Track("exec2", 3)
	m.Track("exec3", 5)
	if s, ok := m.TrackedShard("exec1"); !ok || s != 3 {
		t.Errorf("TrackedShard(exec1) = %d, %v", s, ok)
	}
	if got := fmt.Sprint(m.Tracked(3)); got != "[exec1 exec2]" {
		t.Errorf("Tracked(3) = %s", got)
	}
	m.Untrack("exec2")
	if got := fmt.Sprint(m.Tracked(3)); got != "[exec1]" {
		t.Errorf("Tracked(3) after Untrack = %s", got)
	}
}

// TestManagerRebalanceLifecycle drives two managers through a join:
// siteA alone claims everything, then siteB joins and siteA drains the
// shards the ring hands over, releasing their leases so siteB's next
// claim succeeds.
func TestManagerRebalanceLifecycle(t *testing.T) {
	const shards = 32
	lt := NewLeaseTable(shards)
	now := time.Unix(1000, 0)
	ttl := time.Minute
	registry := func(self string) (func([]int) (map[int]string, error), func([]int) error) {
		claim := func(ss []int) (map[int]string, error) {
			for _, s := range ss {
				lt.Claim(s, self, now, ttl)
			}
			return lt.Owners(now), nil
		}
		release := func(ss []int) error {
			for _, s := range ss {
				lt.Release(s, self)
			}
			return nil
		}
		return claim, release
	}

	resident := map[string]bool{"a:1": true, "a:2": true}
	a := NewManager(Config{
		Self: "siteA", Shards: shards, Obs: obs.NewRegistry(),
		Resident: func(id string) bool { return resident[id] },
	})
	claimA, releaseA := registry("siteA")
	if !a.Rebalance([]string{"siteA"}, claimA, releaseA, nil) {
		t.Fatalf("solo rebalance reported no change")
	}
	if len(a.Owned()) != shards {
		t.Fatalf("solo peer owns %d/%d shards", len(a.Owned()), shards)
	}

	// Track two flows on shards siteA will and will not keep.
	b := newTestManager("siteB", shards)
	desiredB := b.Desired([]string{"siteA", "siteB"})
	if len(desiredB) == 0 {
		t.Fatalf("siteB desires nothing after join")
	}
	keptByA := a.Desired([]string{"siteA", "siteB"})
	a.Track("a:1", desiredB[0])
	a.Track("a:2", keptByA[0])
	a.Track("a:gone", desiredB[0]) // no longer resident: pruned, not drained

	var drained []string
	drain := func(s int, ids []string) { drained = append(drained, ids...) }
	if !a.Rebalance([]string{"siteA", "siteB"}, claimA, releaseA, drain) {
		t.Fatalf("join rebalance reported no change")
	}
	sort.Strings(drained)
	if fmt.Sprint(drained) != "[a:1]" {
		t.Errorf("drained = %v, want [a:1] (resident flow on a handed-over shard)", drained)
	}
	if got := fmt.Sprint(a.Owned()); got != fmt.Sprint(keptByA) {
		t.Errorf("siteA owns %s after join, ring says %v", got, keptByA)
	}

	// siteB's claim now succeeds: siteA released the handed-over leases.
	claimB, releaseB := registry("siteB")
	b.Rebalance([]string{"siteA", "siteB"}, claimB, releaseB, nil)
	if got := fmt.Sprint(b.Owned()); got != fmt.Sprint(desiredB) {
		t.Errorf("siteB owns %s, ring says %v", got, desiredB)
	}
	// Steady state: nothing changes, Rebalance says so.
	if a.Rebalance([]string{"siteA", "siteB"}, claimA, releaseA, drain) {
		t.Errorf("steady-state rebalance reported change")
	}
}

func TestManagerRebalanceRegistryUnreachable(t *testing.T) {
	m := newTestManager("siteA", 8)
	m.SetOwners(map[int]string{2: "siteA", 3: "siteB"})
	failing := func([]int) (map[int]string, error) { return nil, errors.New("down") }
	if m.Rebalance([]string{"siteA"}, failing, nil, nil) {
		t.Errorf("rebalance against a dead registry reported change")
	}
	// The last adopted routing map survives for forwarding.
	if h, ok := m.OwnerOfShard(3); !ok || h != "siteB" {
		t.Errorf("routing map lost on registry outage: %q, %v", h, ok)
	}
}

func TestManagerDefaults(t *testing.T) {
	m := NewManager(Config{Self: "x", Shards: 4})
	if m.Shards() != 4 {
		t.Errorf("Shards = %d", m.Shards())
	}
	if m.cfg.Obs == nil {
		t.Errorf("defaults not applied: %+v", m.cfg)
	}
}
