package wire

import (
	"testing"
	"time"

	"datagridflow/internal/replica"
	"datagridflow/internal/shard"
)

// membershipTTL is the registry liveness window of the membership tests;
// their peers beat at a third of it.
const membershipTTL = 300 * time.Millisecond

// startLookupTTL starts a registry that evicts a peer silent for longer
// than membershipTTL, sharded when shards > 0.
func startLookupTTL(t *testing.T, shards int) string {
	t.Helper()
	ls := NewLookupServer()
	ls.SetTTL(membershipTTL)
	if shards > 0 {
		ls.SetShards(shards)
	}
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return addr
}

// startMemberPeer starts a peer beating at a third of membershipTTL,
// with no federation: sharded, or replicating to one follower.
func startMemberPeer(t *testing.T, lookupAddr, name string, sharded bool) *Peer {
	t.Helper()
	e := newEngine(t, name+":")
	p := NewPeerConfig(name, e, ServerConfig{HeartbeatInterval: membershipTTL / 3})
	if sharded {
		p.EnableSharding(shard.NewManager(shard.Config{Self: name, Shards: testShards, Obs: e.Obs()}))
	} else {
		attachStore(t, e)
		if err := p.EnableReplication(ReplicationConfig{
			Followers: 1, Mode: replica.ModeAsync, Dir: t.TempDir(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// registered lists the names the registry holds live.
func registered(t *testing.T, lookupAddr string) map[string]bool {
	t.Helper()
	c := dial(t, lookupAddr)
	infos, err := c.Peers()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
	}
	return names
}

// TestPeerKeepsRegistrationWithoutFederation: a settled, idle peer with
// no federation keeps its own registration, shard leases and follower
// alive — three TTLs on, the registry still lists it and what it held.
func TestPeerKeepsRegistrationWithoutFederation(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		addr := startLookupTTL(t, testShards)
		a := startMemberPeer(t, addr, "memA", true)
		b := startMemberPeer(t, addr, "memB", true)
		settle(t, a, b)
		time.Sleep(3 * membershipTTL)

		live := registered(t, addr)
		// A claim of no shards reads the registry's live owner map.
		owners, err := dial(t, addr).ClaimShards("probe", nil)
		if err != nil {
			t.Fatal(err)
		}
		held := map[string]int{}
		for _, holder := range owners {
			held[holder]++
		}
		for _, p := range []*Peer{a, b} {
			if !live[p.Name] {
				t.Errorf("%s evicted after %v idle: registry lists %v", p.Name, 3*membershipTTL, live)
			}
			if held[p.Name] == 0 {
				t.Errorf("%s holds no shard lease after %v idle: owners %v", p.Name, 3*membershipTTL, owners)
			}
		}
	})
	t.Run("replicating", func(t *testing.T) {
		addr := startLookupTTL(t, 0)
		a := startMemberPeer(t, addr, "memA", false)
		b := startMemberPeer(t, addr, "memB", false)
		members := []string{a.Name, b.Name}
		a.refreshReplication(members)
		b.refreshReplication(members)
		time.Sleep(3 * membershipTTL)

		live := registered(t, addr)
		for _, pair := range [][2]*Peer{{a, b}, {b, a}} {
			p, follower := pair[0], pair[1]
			if !live[p.Name] {
				t.Errorf("%s evicted after %v idle: registry lists %v", p.Name, 3*membershipTTL, live)
			}
			fs := p.replSender.Status()
			if len(fs) != 1 || fs[0].Peer != follower.Name {
				t.Errorf("%s followers = %+v, want %s", p.Name, fs, follower.Name)
			}
		}
	})
}
