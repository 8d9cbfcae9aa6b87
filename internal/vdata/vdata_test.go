package vdata

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

func TestKeyCanonicalization(t *testing.T) {
	a := Key("fft", []string{"/in/a", "/in/b"}, map[string]string{"w": "512", "bins": "64"}, "alice")
	b := Key("fft", []string{"/in/b", "/in/a"}, map[string]string{"bins": "64", "w": "512"}, "alice")
	if a != b {
		t.Fatal("input/param order changed the derivation key")
	}
	if Key("fft", []string{"/in/a", "/in/b"}, map[string]string{"w": "512", "bins": "64"}, "bob") == a {
		t.Fatal("different tenants hashed to the same key")
	}
	if Key("fft", []string{"/in/a", "/in/b"}, map[string]string{"w": "1024", "bins": "64"}, "alice") == a {
		t.Fatal("different bindings hashed to the same key")
	}
	if Key("wavelet", []string{"/in/a", "/in/b"}, map[string]string{"w": "512", "bins": "64"}, "alice") == a {
		t.Fatal("different transformations hashed to the same key")
	}
	if len(a) != 32 {
		t.Fatalf("key length %d, want 32 hex chars", len(a))
	}
}

func TestPublishLookupTenantScoped(t *testing.T) {
	c, err := Open("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := Key("fft", []string{"/in/raw"}, nil, "alice")
	if err := c.Publish(Entry{Key: k, Tenant: "alice", Op: "fft", Outputs: []string{"/out/s"}, Result: "done:fft"}); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Lookup("alice", k)
	if !ok || e.Result != "done:fft" {
		t.Fatalf("lookup miss for published entry: %+v %v", e, ok)
	}
	// A stolen key must not cross the tenant boundary.
	if _, ok := c.Lookup("bob", k); ok {
		t.Fatal("cross-tenant lookup succeeded")
	}
	if _, ok := c.Lookup("alice", "no-such-key"); ok {
		t.Fatal("lookup hit for unknown key")
	}
	if err := c.Publish(Entry{}); err == nil {
		t.Fatal("publish with empty key succeeded")
	}
}

func TestInvalidateByKeyAndOutput(t *testing.T) {
	c, err := Open("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k1 := Key("fft", []string{"/in/a"}, nil, "alice")
	k2 := Key("wavelet", []string{"/in/b"}, nil, "alice")
	k3 := Key("fft", []string{"/in/c"}, nil, "bob")
	must := func(e Entry) {
		t.Helper()
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	must(Entry{Key: k1, Tenant: "alice", Op: "fft", Outputs: []string{"/out/shared"}})
	must(Entry{Key: k2, Tenant: "alice", Op: "wavelet", Outputs: []string{"/out/shared"}})
	must(Entry{Key: k3, Tenant: "bob", Op: "fft", Outputs: []string{"/out/shared"}})

	// Invalidation by output drops every one of the tenant's
	// derivations for that path — and only that tenant's.
	n, err := c.Invalidate("alice", "/out/shared")
	if err != nil || n != 2 {
		t.Fatalf("invalidate by output dropped %d (err %v), want 2", n, err)
	}
	if _, ok := c.Lookup("alice", k1); ok {
		t.Fatal("k1 survived output invalidation")
	}
	if _, ok := c.Lookup("alice", k2); ok {
		t.Fatal("k2 survived output invalidation")
	}
	if _, ok := c.Lookup("bob", k3); !ok {
		t.Fatal("bob's derivation was invalidated by alice")
	}

	// Invalidation by key.
	if n, _ := c.Invalidate("bob", k3); n != 1 {
		t.Fatalf("invalidate by key dropped %d, want 1", n)
	}
	if c.Len() != 0 {
		t.Fatalf("catalog not empty: %d", c.Len())
	}
	// Idempotent on unknown targets.
	if n, _ := c.Invalidate("alice", "/out/never"); n != 0 {
		t.Fatalf("invalidate of unknown target dropped %d", n)
	}
}

func TestRepublishRetiresStaleOutputs(t *testing.T) {
	c, err := Open("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := Key("fft", []string{"/in/a"}, nil, "alice")
	if err := c.Publish(Entry{Key: k, Tenant: "alice", Outputs: []string{"/out/v1"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(Entry{Key: k, Tenant: "alice", Outputs: []string{"/out/v2"}}); err != nil {
		t.Fatal(err)
	}
	// Invalidating the retired path must not kill the live entry.
	if n, _ := c.Invalidate("alice", "/out/v1"); n != 0 {
		t.Fatalf("stale output invalidation dropped %d entries", n)
	}
	if _, ok := c.Lookup("alice", k); !ok {
		t.Fatal("live derivation lost to stale-path invalidation")
	}
}

func TestDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c.SetPeer("peer-a")
	if c.Peer() != "peer-a" {
		t.Fatal("peer name not set")
	}
	keys := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		k := Key("fft", []string{fmt.Sprintf("/in/%d", i)}, nil, "alice")
		keys = append(keys, k)
		if err := c.Publish(Entry{Key: k, Tenant: "alice", Op: "fft",
			Outputs: []string{fmt.Sprintf("/out/%d", i)}, Result: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := c.Invalidate("alice", keys[0]); n != 1 {
		t.Fatal("invalidate failed")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 4 {
		t.Fatalf("replayed %d entries, want 4", c2.Len())
	}
	if _, ok := c2.Lookup("alice", keys[0]); ok {
		t.Fatal("invalidated entry resurrected by replay")
	}
	e, ok := c2.Lookup("alice", keys[3])
	if !ok || e.Peer != "peer-a" {
		t.Fatalf("replayed entry lost fields: %+v %v", e, ok)
	}
	st := c2.Stats()
	if !st.Durable || st.Entries != 4 || st.ReplayRecords != 6 {
		t.Fatalf("stats after replay: %+v", st)
	}
	if got := len(c2.Keys()); got != 4 {
		t.Fatalf("Keys returned %d, want 4", got)
	}
	// Output index must be rebuilt by replay too.
	if n, _ := c2.Invalidate("alice", "/out/2"); n != 1 {
		t.Fatal("output index not rebuilt on replay")
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	k := Key("fft", []string{"/in/a"}, nil, "alice")
	if err := c.Publish(Entry{Key: k, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage with no trailing newline.
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","entry":{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatalf("torn tail broke replay: %v", err)
	}
	defer c2.Close()
	if _, ok := c2.Lookup("alice", k); !ok {
		t.Fatal("complete record lost behind torn tail")
	}
	if c2.Len() != 1 {
		t.Fatalf("torn tail materialized: %d entries", c2.Len())
	}
	// And the catalog keeps accepting durable publishes after the tear.
	k2 := Key("fft", []string{"/in/b"}, nil, "alice")
	if err := c2.Publish(Entry{Key: k2, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPublishLookup(t *testing.T) {
	c, err := Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := Key("op", []string{fmt.Sprintf("/in/%d/%d", w, i)}, nil, "t")
				if err := c.Publish(Entry{Key: k, Tenant: "t", Outputs: []string{fmt.Sprintf("/out/%d/%d", w, i)}}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := c.Lookup("t", k); !ok {
					t.Errorf("published entry not visible")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 200 {
		t.Fatalf("expected 200 entries, got %d", c.Len())
	}
}

// TestCommitPointsPutDel: a put is a memo — written, not waited on; a
// del is a promise — it waits, and its sync carries the puts before it.
// A put nobody follows is synced by the log's linger.
func TestCommitPointsPutDel(t *testing.T) {
	put := func(t *testing.T, c *Catalog, i int) string {
		t.Helper()
		k := Key("fft", []string{fmt.Sprintf("/in/%d", i)}, nil, "alice")
		if err := c.Publish(Entry{Key: k, Tenant: "alice", Op: "fft", Result: "done"}); err != nil {
			t.Fatal(err)
		}
		return k
	}
	commits := func(reg *obs.Registry) int64 { return reg.Counter("journal_group_commits_total").Value() }

	t.Run("puts ride the del's sync", func(t *testing.T) {
		// The linger is armed by the first put and fires no sooner than
		// store.Linger later: a run over by then saw no background sync.
		for try := 0; try < 50; try++ {
			reg := obs.NewRegistry()
			c, err := Open(t.TempDir(), reg)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			var first string
			for i := 0; i < 5; i++ {
				if k := put(t, c, i); i == 0 {
					first = k
				}
			}
			afterPuts := commits(reg)
			if n, err := c.Invalidate("alice", first); n != 1 || err != nil {
				t.Fatalf("invalidate: %d, %v", n, err)
			}
			clean := time.Since(start) < store.Linger
			if clean && (afterPuts != 0 || commits(reg) != 1) {
				t.Errorf("%d group commits after five puts, %d after the del; want 0, then 1", afterPuts, commits(reg))
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if clean {
				return
			}
		}
		t.Skipf("no run in 50 finished inside the %v linger: this disk is too slow to count commits on", store.Linger)
	})

	t.Run("a lone put is synced by the linger", func(t *testing.T) {
		reg := obs.NewRegistry()
		c, err := Open(t.TempDir(), reg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		put(t, c, 0)
		deadline := time.Now().Add(10 * store.Linger)
		for commits(reg) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("10×linger after a lone put, its log has not been synced")
			}
			time.Sleep(store.Linger / 5)
		}
	})
}
