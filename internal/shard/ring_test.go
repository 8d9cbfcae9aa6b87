package shard

import (
	"fmt"
	"testing"
)

func TestShardOfDeterministicAndInRange(t *testing.T) {
	const shards = 64
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user%d/flow%d", i%7, i)
		s := ShardOf(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%q) = %d out of range", key, s)
		}
		if again := ShardOf(key, shards); again != s {
			t.Fatalf("ShardOf(%q) not deterministic: %d then %d", key, s, again)
		}
	}
	if ShardOf("anything", 0) != 0 {
		t.Errorf("ShardOf with 0 shards should pin to 0")
	}
}

func TestRingIsPureFunctionOfMemberSet(t *testing.T) {
	a := NewRing([]string{"siteA", "siteB", "siteC"}, 0, 0)
	b := NewRing([]string{"siteC", "siteA", "siteB", "siteA", ""}, 0, 0)
	for s := 0; s < 256; s++ {
		oa, oka := a.OwnerOfShard(s)
		ob, okb := b.OwnerOfShard(s)
		if oa != ob || oka != okb {
			t.Fatalf("shard %d: order-dependent placement %q vs %q", s, oa, ob)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0, 0)
	if _, ok := empty.Owner("k"); ok {
		t.Errorf("empty ring claimed an owner")
	}
	solo := NewRing([]string{"only"}, 0, 0)
	for s := 0; s < 32; s++ {
		if o, ok := solo.OwnerOfShard(s); !ok || o != "only" {
			t.Fatalf("single-member ring: shard %d owned by %q", s, o)
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	base := NewRing(members, 0, DefaultSeed)
	other := NewRing(members, 0, DefaultSeed+1)
	moved := 0
	for s := 0; s < 256; s++ {
		o, _ := base.OwnerOfShard(s)
		if p, _ := other.OwnerOfShard(s); p != o {
			moved++
		}
	}
	if moved == 0 {
		t.Errorf("different seeds produced identical placement")
	}
}

func TestRingDistributionRoughlyEven(t *testing.T) {
	const shards = 1024
	members := []string{"a", "b", "c", "d"}
	counts := make(map[string]int)
	r := NewRing(members, 0, 0)
	for s := 0; s < shards; s++ {
		owner, _ := r.OwnerOfShard(s)
		counts[owner]++
	}
	ideal := shards / len(members)
	for m, n := range counts {
		// With 64 vnodes the spread stays well within 2x of even.
		if n < ideal/2 || n > ideal*2 {
			t.Errorf("member %s owns %d shards (ideal %d)", m, n, ideal)
		}
	}
	if len(counts) != len(members) {
		t.Errorf("only %d of %d members own shards", len(counts), len(members))
	}
}

// TestRingMovementBounded is the consistent-hashing contract: adding or
// removing one member of n moves about K/n of the K shards, not a full
// reshuffle (modulo hashing would move ~(n-1)/n of them).
func TestRingMovementBounded(t *testing.T) {
	const shards = 1024
	members := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	before := NewRing(members, 0, 0)
	join := NewRing(append([]string{"i"}, members...), 0, 0)
	leave := NewRing(members[1:], 0, 0)
	movedIn, movedOut := 0, 0
	for s := 0; s < shards; s++ {
		o, _ := before.OwnerOfShard(s)
		if j, _ := join.OwnerOfShard(s); j != o {
			movedIn++
			// Everything that moved must have moved TO the joiner.
			if j != "i" {
				t.Errorf("shard %d moved %s -> %s on an unrelated member", s, o, j)
			}
		}
		if l, _ := leave.OwnerOfShard(s); l != o {
			movedOut++
			if o != "a" {
				t.Errorf("shard %d moved %s -> %s but %s never left", s, o, l, o)
			}
		}
	}
	// Ideal movement on join of the 9th member is K/9 ≈ 114. Allow 2.5x
	// slack for vnode variance; the point is it is nowhere near K.
	if max := shards * 5 / 18; movedIn > max {
		t.Errorf("join moved %d/%d shards, want <= %d (~K/n)", movedIn, shards, max)
	}
	if max := shards * 5 / 16; movedOut > max {
		t.Errorf("leave moved %d/%d shards, want <= %d (~K/n)", movedOut, shards, max)
	}
}
