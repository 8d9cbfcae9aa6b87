package shard

import (
	"sync"
	"testing"
	"time"
)

func TestLeaseClaimExclusiveWhileLive(t *testing.T) {
	lt := NewLeaseTable(8)
	now := time.Unix(1000, 0)
	ttl := 10 * time.Second

	if h, ok := lt.Claim(3, "siteA", now, ttl); !ok || h != "siteA" {
		t.Fatalf("first claim = %q, %v", h, ok)
	}
	// A live lease refuses other claimants and names the holder.
	if h, ok := lt.Claim(3, "siteB", now.Add(time.Second), ttl); ok || h != "siteA" {
		t.Fatalf("contended claim = %q, %v, want refused by siteA", h, ok)
	}
	// Re-claim by the holder renews.
	if _, ok := lt.Claim(3, "siteA", now.Add(5*time.Second), ttl); !ok {
		t.Fatalf("holder re-claim refused")
	}
	// After expiry anyone can take it.
	if h, ok := lt.Claim(3, "siteB", now.Add(30*time.Second), ttl); !ok || h != "siteB" {
		t.Fatalf("post-expiry claim = %q, %v", h, ok)
	}
}

func TestLeaseClaimRejectsBadInput(t *testing.T) {
	lt := NewLeaseTable(4)
	now := time.Unix(0, 0)
	if _, ok := lt.Claim(-1, "a", now, time.Second); ok {
		t.Errorf("negative shard granted")
	}
	if _, ok := lt.Claim(4, "a", now, time.Second); ok {
		t.Errorf("out-of-range shard granted")
	}
	if _, ok := lt.Claim(0, "", now, time.Second); ok {
		t.Errorf("empty holder granted")
	}
}

func TestLeaseRenewAndOwners(t *testing.T) {
	lt := NewLeaseTable(8)
	now := time.Unix(1000, 0)
	ttl := 10 * time.Second
	lt.Claim(0, "siteA", now, ttl)
	lt.Claim(1, "siteA", now, ttl)
	lt.Claim(2, "siteB", now, ttl)

	// Renew extends every lease the holder has, even after expiry.
	late := now.Add(15 * time.Second)
	if n := lt.Renew("siteA", late, ttl); n != 2 {
		t.Fatalf("Renew = %d leases, want 2", n)
	}
	owners := lt.Owners(late.Add(time.Second))
	if owners[0] != "siteA" || owners[1] != "siteA" {
		t.Errorf("renewed leases not live: %v", owners)
	}
	if _, live := owners[2]; live {
		t.Errorf("siteB's expired lease still shown live: %v", owners)
	}
	// But an expired lease another peer reclaimed is no longer siteA's
	// to renew.
	lt.Claim(0, "siteB", late.Add(20*time.Second), ttl)
	if n := lt.Renew("siteA", late.Add(21*time.Second), ttl); n != 1 {
		t.Errorf("Renew after reclaim = %d, want 1 (shard 1 only)", n)
	}
}

func TestLeaseRelease(t *testing.T) {
	lt := NewLeaseTable(8)
	now := time.Unix(0, 0)
	lt.Claim(0, "siteA", now, time.Minute)
	lt.Claim(1, "siteA", now, time.Minute)
	if lt.Release(0, "siteB") {
		t.Errorf("released another peer's lease")
	}
	if !lt.Release(0, "siteA") {
		t.Errorf("holder release refused")
	}
	if n := lt.ReleaseAll("siteA"); n != 1 {
		t.Errorf("ReleaseAll = %d, want 1", n)
	}
	if got := lt.Owners(now.Add(time.Second)); len(got) != 0 {
		t.Errorf("owners after release = %v", got)
	}
}

// TestLeaseConcurrentExpiryExclusive hammers one expiring shard from
// many claimants concurrently (run under -race): at most one claim per
// round may be granted, and the granted holder must match what
// contenders are refused with.
func TestLeaseConcurrentExpiryExclusive(t *testing.T) {
	lt := NewLeaseTable(1)
	ttl := 10 * time.Second
	base := time.Unix(1000, 0)
	for round := 0; round < 50; round++ {
		// Each round starts past the previous round's expiry, so the
		// shard is up for grabs again.
		now := base.Add(time.Duration(round) * time.Minute)
		var wg sync.WaitGroup
		grants := make(chan string, 8)
		for p := 0; p < 8; p++ {
			holder := string(rune('A' + p))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if h, ok := lt.Claim(0, holder, now, ttl); ok {
					grants <- h
				}
			}()
		}
		wg.Wait()
		close(grants)
		var winners []string
		for h := range grants {
			winners = append(winners, h)
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d claims granted (%v), want exactly 1", round, len(winners), winners)
		}
		if h, ok := lt.Claim(0, "intruder", now.Add(time.Second), ttl); ok || h != winners[0] {
			t.Fatalf("round %d: live lease not exclusive (refusal names %q, winner %q)", round, h, winners[0])
		}
	}
}
