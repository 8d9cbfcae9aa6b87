package wire

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/scheduler"
)

func startLookup(t *testing.T) (*LookupServer, string) {
	t.Helper()
	ls := NewLookupServer()
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return ls, addr
}

func TestLookupTTLEviction(t *testing.T) {
	ls, addr := startLookup(t)
	base := time.Now()
	now := base
	var mu sync.Mutex
	ls.setNow(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	ls.SetTTL(30 * time.Second)
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("stale", "10.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("fresh", "10.0.0.2:1"); err != nil {
		t.Fatal(err)
	}
	advance(20 * time.Second)
	// fresh heartbeats inside the TTL; stale stays silent.
	if _, _, err := c.Heartbeat("fresh", "10.0.0.2:1", scheduler.PeerLoad{Running: 3}); err != nil {
		t.Fatal(err)
	}
	advance(15 * time.Second) // stale is now 35s silent, fresh 15s
	infos, err := c.Peers()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "fresh" {
		t.Fatalf("after TTL sweep: %+v", infos)
	}
	if infos[0].Load.Running != 3 {
		t.Errorf("gossiped load = %+v", infos[0].Load)
	}
	if infos[0].AgeSeconds < 14 || infos[0].AgeSeconds > 16 {
		t.Errorf("age = %v", infos[0].AgeSeconds)
	}
	if _, err := c.Resolve("stale"); err == nil {
		t.Error("evicted peer still resolves")
	}
	// A heartbeat re-registers an evicted peer (lease renewal).
	if _, _, err := c.Heartbeat("stale", "10.0.0.1:1", scheduler.PeerLoad{}); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Resolve("stale"); err != nil || got != "10.0.0.1:1" {
		t.Errorf("heartbeat re-register: %q, %v", got, err)
	}
	// TTL 0 disables eviction.
	ls.SetTTL(0)
	advance(time.Hour)
	if _, err := c.Resolve("stale"); err != nil {
		t.Errorf("eviction ran with ttl disabled: %v", err)
	}
}

func TestLookupHeartbeatKeepsPriorLoad(t *testing.T) {
	_, addr := startLookup(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Heartbeat("p", "10.0.0.1:1", scheduler.PeerLoad{Running: 7}); err != nil {
		t.Fatal(err)
	}
	// A plain register (no load) must not wipe the gossiped load; the
	// next loadless heartbeat must keep it too.
	if err := c.Register("p", "10.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Peers()
	if err != nil || len(infos) != 1 {
		t.Fatalf("infos = %+v, %v", infos, err)
	}
	if infos[0].Load.Running != 7 {
		t.Errorf("load after re-register = %+v", infos[0].Load)
	}
	// Heartbeat with empty name rejected.
	if _, _, err := c.Heartbeat("", "x", scheduler.PeerLoad{}); err == nil {
		t.Error("empty heartbeat accepted")
	}
}

func TestLookupUnregister(t *testing.T) {
	_, addr := startLookup(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("gone", "10.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve("gone"); err == nil {
		t.Error("unregistered peer still resolves")
	}
	// Unregistering an unknown peer is not an error (idempotent).
	if err := c.Unregister("never"); err != nil {
		t.Errorf("unregister unknown = %v", err)
	}
}

func TestLookupConcurrentRegisterResolve(t *testing.T) {
	_, addr := startLookup(t)
	const workers = 8
	// Even workers pipeline their calls on one shared connection, odd
	// ones dial their own.
	shared := dial(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := shared
			if w%2 == 1 {
				var err error
				if c, err = Dial(addr); err != nil {
					errs <- err
					return
				}
				defer c.Close()
			}
			name := fmt.Sprintf("peer-%d", w)
			for i := 0; i < 20; i++ {
				if err := c.Register(name, fmt.Sprintf("10.0.0.%d:%d", w, i)); err != nil {
					errs <- err
					return
				}
				if _, err := c.Resolve(name); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Heartbeat(name, fmt.Sprintf("10.0.0.%d:%d", w, i), scheduler.PeerLoad{Running: int64(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	infos, err := c.Peers()
	if err != nil || len(infos) != workers {
		t.Fatalf("infos = %d, %v", len(infos), err)
	}
	// Sorted by name.
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name > infos[i].Name {
			t.Fatalf("unsorted infos: %+v", infos)
		}
	}
}

func TestLookupShutdownWithOpenConns(t *testing.T) {
	ls, addr := startLookup(t)
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Register(fmt.Sprintf("p%d", i), "10.0.0.1:1"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { ls.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lookup Close hung with open connections")
	}
	// Requests on the severed connections fail cleanly, not hang.
	for _, c := range clients {
		if _, err := c.Resolve("p0"); err == nil {
			t.Error("resolve on closed lookup succeeded")
		}
		c.Close()
	}
}

func TestPeerHeartbeatAndDropClient(t *testing.T) {
	_, lookupAddr := startLookup(t)
	peerA := newPeer("hbA", newEngine(t, "hbA:"))
	if _, err := peerA.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerA.Close()
	peerB := newPeer("hbB", newEngine(t, "hbB:"))
	if _, err := peerB.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerB.Close()

	if err := peerA.Beat(); err != nil {
		t.Fatal(err)
	}
	infos := peerA.Members()
	if len(infos) != 2 {
		t.Fatalf("gossip = %+v", infos)
	}
	// The beat published the peer's own load: its admission capacity.
	if infos[0].Name != "hbA" || infos[0].Load.Capacity != 64 {
		t.Errorf("gossiped self = %+v, want hbA at capacity 64", infos[0])
	}
	// The pooled client has run its hello: it serves at once.
	c, err := peerA.Client("hbB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(); err != nil {
		t.Errorf("pooled peer link: %v", err)
	}
	again, err := peerA.Client("hbB")
	if err != nil || again != c {
		t.Errorf("client not pooled: %p vs %p (%v)", again, c, err)
	}
	peerA.DropClient("hbB")
	fresh, err := peerA.Client("hbB")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == c {
		t.Error("DropClient did not evict the pooled connection")
	}
	// Peer without a lookup cannot heartbeat.
	solo := newPeer("solo", newEngine(t, "solo:"))
	if err := solo.Beat(); err == nil {
		t.Error("heartbeat without lookup accepted")
	}
	// Resolve-miss through the peer's client pool.
	if _, err := peerA.Client("nosuch"); err == nil {
		t.Error("client for unknown peer accepted")
	}
}
