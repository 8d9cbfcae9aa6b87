package vdata

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
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

	// A derivation published under one input order is found under the
	// other, and invalidating an output nobody declared disturbs nothing.
	c, err := Open("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(Entry{Key: a, Tenant: "alice", Op: "fft", Outputs: []string{"/out/m"}}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Invalidate("alice", "/out/never-recorded"); n != 0 || err != nil {
		t.Fatalf("invalidating an unknown output: %d, %v", n, err)
	}
	if e, ok := c.Lookup("alice", b); !ok || c.Len() != 1 || e.Outputs[0] != "/out/m" {
		t.Fatalf("after an unknown-output invalidate: %+v, %v, %d entries", e, ok, c.Len())
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
	// Invalidating the live path drops it.
	if n, _ := c.Invalidate("alice", "/out/v2"); n != 1 {
		t.Fatalf("live output invalidation dropped %d entries, want 1", n)
	}
	if _, ok := c.Lookup("alice", k); ok || c.Len() != 0 {
		t.Fatalf("derivation survived its live path's invalidation: %d entries", c.Len())
	}
}

func TestDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c.SetPeer("peer-a")
	if c.peer != "peer-a" {
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
	if !st.Durable || st.Entries != 4 {
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

// putFrame is the log frame Publish writes for e.
func putFrame(e Entry) []byte {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendPut(enc, &e)
	return slices.Clone(enc.Bytes())
}

// appendFile appends b to the file at path, as a crash mid-append
// leaves a cut frame behind.
func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayToleratesTornTail cuts a put frame at every offset behind a
// complete one: each reopen keeps the complete record, truncates the log
// to it, and a del written afterwards survives one more reopen.
func TestReplayToleratesTornTail(t *testing.T) {
	k := Key("fft", []string{"/in/a"}, nil, "alice")
	torn := putFrame(Entry{Key: Key("fft", []string{"/in/torn"}, nil, "alice"), Tenant: "alice", Op: "fft",
		Params: map[string]string{"n": "1"}, Outputs: []string{"/out/torn"}, Result: "done", Unix: 1})
	for cut := 1; cut < len(torn); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, LogName)
		c, err := Open(dir, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(Entry{Key: k, Tenant: "alice", Outputs: []string{"/out/a"}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		appendFile(t, path, torn[:cut])

		c2, err := Open(dir, obs.NewRegistry())
		if err != nil {
			t.Fatalf("cut at %d: torn tail broke replay: %v", cut, err)
		}
		if _, ok := c2.Lookup("alice", k); !ok || c2.Len() != 1 {
			t.Fatalf("cut at %d: %d entries replayed, want the complete one alone", cut, c2.Len())
		}
		if got, err := os.ReadFile(path); err != nil || !slices.Equal(got, whole) {
			t.Fatalf("cut at %d: the log is %d bytes after Open, want it truncated to its %d whole bytes (%v)",
				cut, len(got), len(whole), err)
		}
		if n, err := c2.Invalidate("alice", "/out/a"); n != 1 || err != nil {
			t.Fatalf("cut at %d: invalidate: %d, %v", cut, n, err)
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
		c3, err := Open(dir, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if c3.Len() != 0 {
			t.Fatalf("cut at %d: the del written after the tear was lost: %d entries", cut, c3.Len())
		}
		if err := c3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailKeepsDurableInvalidation: a del appended after a torn
// tail is a promise like any other. Left in place, the fragment glues
// itself to the next record, and the del that Invalidate waited for is
// lost on replay — the deleted derivation served again.
func TestTornTailKeepsDurableInvalidation(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	k := Key("fft", []string{"/in/a"}, nil, "alice")
	if err := c.Publish(Entry{Key: k, Tenant: "alice", Outputs: []string{"/out/a"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	frame := putFrame(Entry{Key: "torn", Tenant: "alice"})
	appendFile(t, filepath.Join(dir, LogName), frame[:len(frame)-1])

	c2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c2.Invalidate("alice", k); n != 1 || err != nil {
		t.Fatalf("invalidate after a torn tail: %d, %v", n, err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, ok := c3.Lookup("alice", k); ok {
		t.Fatal("a durable invalidation written after a torn tail was lost: the derivation is live again")
	}
}

// TestOpenRefusesNonBinaryLog: a log that does not start with a frame —
// the JSONL log an earlier build wrote, a stray byte — fails Open with an
// ErrInvalid naming the file, which is left byte for byte as it was. An
// empty log is one nothing was written to yet, and opens.
func TestOpenRefusesNonBinaryLog(t *testing.T) {
	for name, content := range map[string]string{
		"JSONL":    `{"op":"put","entry":{"key":"k","tenant":"alice","op":"fft"}}` + "\n",
		"one byte": "{",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, LogName)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, obs.NewRegistry())
		if err == nil {
			c.Close()
			t.Errorf("%s: Open took the log", name)
			continue
		}
		if !errors.Is(err, dgferr.ErrInvalid) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: Open = %v, want an ErrInvalid naming %s", name, err, path)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != content {
			t.Errorf("%s: the refused log changed to %q (%v)", name, data, err)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatalf("an empty log: %v", err)
	}
	if err := c.Publish(Entry{Key: "k", Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("an empty log appended to replays %d entries, want 1", c.Len())
	}
}

// TestPublishRefusesOversizeEntry: an entry over the frame limit would
// leave a log that no longer replays, so a durable catalog refuses it
// and indexes nothing; the log stays open.
func TestPublishRefusesOversizeEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	huge := Entry{Key: "huge", Tenant: "alice", Result: strings.Repeat("x", codec.MaxFrameBody)}
	if err := c.Publish(huge); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("oversize publish: %v, want ErrInvalid", err)
	}
	if c.Len() != 0 {
		t.Fatal("the refused entry was indexed")
	}
	if err := c.Publish(Entry{Key: "small", Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("reopened with %d entries, want 1", c.Len())
	}
}

// TestPublishAllocs budgets a durable, fresh-key Publish shaped like the
// contract benchmark's pure step: three parameter bindings, one output, a
// result. The build that wrote the log as JSON spent 14 allocations on
// this publish, most of them in json.Marshal.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const runs = 200
	c, err := Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	params := map[string]string{"command": "fft /grid/derived/cal.dat", "cpuSeconds": "1", "resultVar": "out"}
	entries := make([]Entry, runs+1) // AllocsPerRun warms up with one extra run
	for i := range entries {
		out := []string{fmt.Sprintf("/grid/derived/%d.dat", i)}
		entries[i] = Entry{Key: Key("exec", out, params, "alice"), Tenant: "alice", Op: "exec",
			Params: params, Outputs: out, Result: "done:exec", Unix: 1}
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := c.Publish(entries[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const budget = 5
	t.Logf("a durable publish: %.0f allocations (budget %d; 14 when the log was JSON)", got, budget)
	if got > budget {
		t.Errorf("a durable publish allocates %.0f times, budget %d", got, budget)
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

// referenceKey is Key as it was first written — the tuple concatenated
// into one string, the bindings spelled and sorted as strings — kept as
// the reference the stack-buffer form must match byte for byte.
func referenceKey(op string, inputs []string, params map[string]string, tenant string) string {
	sorted := append([]string(nil), inputs...)
	sort.Strings(sorted)
	kvs := make([]string, 0, len(params))
	for k, v := range params {
		kvs = append(kvs, k+"\x01"+v)
	}
	sort.Strings(kvs)
	h := sha256.Sum256([]byte(op + "\x00" + tenant + "\x00" +
		strings.Join(sorted, "\x00") + "\x00\x02" + strings.Join(kvs, "\x00")))
	return hex.EncodeToString(h[:16])
}

// FuzzKey: the key hashed from bindings in any order — a step's, in its
// plan's slot order — equals the reference's, including for names that
// are prefixes of each other and names holding bytes at or below 0x01,
// where sorting by name alone and sorting the spelled bindings part.
func FuzzKey(f *testing.F) {
	f.Add("fft", "alice", "/in/b", "/in/a", "w", "512", "bins", "64", "", "")
	f.Add("exec", "", "", "", "a", "1", "ab", "2", "a\x00", "3")
	f.Add("exec", "t", "x", "x", "a", "\x01b", "a\x01", "b", "a\x01b", "")
	f.Add("exec", "t", "", "", "", "", "\x00", "\x00", "\x01", "\x01")
	f.Fuzz(func(t *testing.T, op, tenant, in1, in2, k1, v1, k2, v2, k3, v3 string) {
		params := map[string]string{k1: v1, k2: v2, k3: v3}
		inputs := []string{in1, in2}
		want := referenceKey(op, inputs, params, tenant)
		if got := Key(op, inputs, params, tenant); got != want {
			t.Fatalf("Key = %s, reference %s", got, want)
		}
		var bs []Binding
		for _, k := range []string{k3, k1, k2} { // not the map's order, not sorted
			if v, ok := params[k]; ok && !slices.ContainsFunc(bs, func(b Binding) bool { return b.Name == k }) {
				bs = append(bs, Binding{k, v})
			}
		}
		if got := KeyOf(op, []string{in2, in1}, bs, tenant); got != want {
			t.Fatalf("KeyOf = %s, reference %s", got, want)
		}
		if inputs[0] != in1 || inputs[1] != in2 {
			t.Fatalf("KeyOf reordered its caller's inputs")
		}
	})
}

// TestKeyOfAllocs: a derivation key of a few inputs and bindings costs
// the key string and nothing else.
func TestKeyOfAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	inputs := []string{"/out/b", "/out/a"}
	bs := []Binding{{"command", "fft /in"}, {"cpuSeconds", "1"}, {"resultVar", "r"}}
	if n := testing.AllocsPerRun(100, func() { KeyOf("exec", inputs, bs, "alice") }); n != 1 {
		t.Errorf("KeyOf: %.0f allocations, want 1", n)
	}
}
