package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/shard"
)

const testShards = 32

// startShardedPeer builds a sharded peer on a fresh engine, registered
// with the lookup at lookupAddr.
func startShardedPeer(t *testing.T, lookupAddr, name string) *Peer {
	t.Helper()
	e := newEngine(t, name+":")
	p := newPeer(name, e)
	p.EnableSharding(shard.NewManager(shard.Config{
		Self:   name,
		Shards: testShards,
		Obs:    e.Obs(),
		Resident: func(id string) bool {
			_, ok := e.Execution(id)
			return ok
		},
	}))
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// settle runs one rebalance on every peer over the full member set, so
// ring ownership is claimed deterministically without heartbeat timing.
func settle(t *testing.T, peers ...*Peer) {
	t.Helper()
	var names []string
	for _, p := range peers {
		names = append(names, p.Name)
	}
	for _, p := range peers {
		p.RebalanceShards(names)
	}
	for _, p := range peers {
		p.RebalanceShards(names) // second pass adopts released leases
	}
}

// flowOwnedBy brute-forces a flow name whose routing key lands on a
// shard the named peer owns.
func flowOwnedBy(t *testing.T, owner *Peer, user string) (string, int) {
	t.Helper()
	mgr := owner.ShardManager()
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("job%d", i)
		sh := mgr.ShardOf(RoutingKey(user, name))
		if mgr.Owns(sh) {
			return name, sh
		}
	}
	t.Fatalf("no flow name routes to %s", owner.Name)
	return "", 0
}

func execFlow(name string) dgl.Flow {
	return dgl.NewFlow(name).
		Step("work", dgl.Op(dgl.OpExec, map[string]string{
			"command": "x", "cpuSeconds": "1",
		})).Flow()
}

func routeCount(p *Peer, outcome string) int64 {
	return p.Engine().Obs().Counter("shard_routes_total", "outcome", outcome).Value()
}

// TestShardedAnyPeerSubmit is the tentpole's core contract: a flow
// submitted to a non-owner peer lands on its shard owner's engine, and
// its owner-prefixed id resolves from anywhere.
func TestShardedAnyPeerSubmit(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)

	flowName, sh := flowOwnedBy(t, peerB, "user")
	c := dial(t, peerA.Addr())
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(context.Background(), dgl.NewAsyncRequest("user", "", execFlow(flowName)))
	if err != nil {
		t.Fatal(err)
	}
	if serr := res.Err(); serr != nil {
		t.Fatalf("routed submit failed: %v", serr)
	}
	if !strings.HasPrefix(res.ID, "siteB:") {
		t.Fatalf("id = %q, want siteB-prefixed (owner accepted)", res.ID)
	}
	exec, ok := peerB.Engine().Execution(res.ID)
	if !ok {
		t.Fatalf("execution not resident on the owner")
	}
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, resident := peerA.Engine().Execution(res.ID); resident {
		t.Errorf("execution also resident on the submitting peer")
	}
	if got, _ := peerB.ShardManager().TrackedShard(res.ID); got != sh {
		t.Errorf("owner tracked shard %d, want %d", got, sh)
	}
	if n := routeCount(peerA, "routed"); n != 1 {
		t.Errorf("submitter shard_routes_total{routed} = %d", n)
	}
	if n := routeCount(peerB, "served"); n != 1 {
		t.Errorf("owner shard_routes_total{served} = %d", n)
	}

	// Status of the owner-prefixed id resolves through the submitter.
	st, err := c.Status("user", res.ID, false)
	if err != nil || st.State != "succeeded" {
		t.Errorf("cross-peer status = %+v, %v", st, err)
	}
	// The owner verb names the owner from either side.
	info, err := c.Owner(res.ID)
	if err != nil || info.Peer != "siteB" {
		t.Errorf("Owner(%s) = %+v, %v", res.ID, info, err)
	}
	// A bare routing key resolves via the ring.
	info, err = c.Owner(RoutingKey("user", flowName))
	if err != nil || info.Peer != "siteB" || info.Source != "ring" {
		t.Errorf("Owner(key) = %+v, %v", info, err)
	}
}

// startLookupSharded is startLookup with a shard-lease table.
func startLookupSharded(t *testing.T, shards int) (*LookupServer, string) {
	t.Helper()
	ls, addr := startLookup(t)
	ls.SetShards(shards)
	return ls, addr
}

// TestShardRouteLocalPin: WithRoute(RouteLocal) keeps the flow on the
// accepting peer even when the ring owns it elsewhere.
func TestShardRouteLocalPin(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)

	flowName, _ := flowOwnedBy(t, peerB, "user")
	c := dial(t, peerA.Addr())
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(context.Background(), dgl.NewAsyncRequest("user", "", execFlow(flowName)),
		WithRoute(RouteLocal))
	if err != nil || res.Err() != nil {
		t.Fatalf("pinned submit: %v / %v", err, res.Err())
	}
	if !strings.HasPrefix(res.ID, "siteA:") {
		t.Fatalf("id = %q, want siteA-prefixed (pinned locally)", res.ID)
	}
	if n := routeCount(peerA, "local"); n != 1 {
		t.Errorf("shard_routes_total{local} = %d", n)
	}
}

// TestShardOwnerFailover kills the owner, expires its leases, and
// checks the survivor takes the shard over and accepts the submission
// itself — E15's failover path in unit form.
func TestShardOwnerFailover(t *testing.T) {
	ls, lookupAddr := startLookupSharded(t, testShards)
	base := time.Now()
	now := base
	var mu sync.Mutex
	ls.setNow(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	ls.SetTTL(30 * time.Second)

	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	flowName, sh := flowOwnedBy(t, peerB, "user")

	// siteB dies without draining: server down, leases left live. The
	// clock jumps past the TTL, but siteA is NOT told — its routing map
	// still names siteB, so the submit exercises the dead-owner path:
	// dial failure → lease takeover (the registry sweep inside the claim
	// evicts siteB and frees its leases) → local accept.
	peerB.Server().Close()
	mu.Lock()
	now = now.Add(35 * time.Second)
	mu.Unlock()

	c := dial(t, peerA.Addr())
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(context.Background(), dgl.NewAsyncRequest("user", "", execFlow(flowName)))
	if err != nil || res.Err() != nil {
		t.Fatalf("submit after owner death: %v / %v", err, res.Err())
	}
	if !strings.HasPrefix(res.ID, "siteA:") {
		t.Fatalf("id = %q, want siteA-prefixed (failover accept)", res.ID)
	}
	if n := routeCount(peerA, "failover"); n != 1 {
		t.Errorf("shard_routes_total{failover} = %d", n)
	}
	// The takeover claimed the lease: siteA now owns the shard and
	// tracked the accept for future drains.
	if !peerA.ShardManager().Owns(sh) {
		t.Errorf("survivor did not claim shard %d", sh)
	}
	if got, ok := peerA.ShardManager().TrackedShard(res.ID); !ok || got != sh {
		t.Errorf("failover accept untracked: %d, %v", got, ok)
	}
}

// TestShardDrainOnJoin: a solo owner accepts everything; when a second
// peer joins and the ring moves shards over, the next submission of a
// moved key routes to the joiner — only placement moves, not history.
func TestShardDrainOnJoin(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	settle(t, peerA)
	if got := len(peerA.ShardManager().Owned()); got != testShards {
		t.Fatalf("solo peer owns %d/%d shards", got, testShards)
	}

	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	flowName, sh := flowOwnedBy(t, peerB, "user")
	if peerA.ShardManager().Owns(sh) {
		t.Fatalf("shard %d still owned by siteA after handover", sh)
	}

	c := dial(t, peerA.Addr())
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(context.Background(), dgl.NewAsyncRequest("user", "", execFlow(flowName)))
	if err != nil || res.Err() != nil {
		t.Fatalf("post-join submit: %v / %v", err, res.Err())
	}
	if !strings.HasPrefix(res.ID, "siteB:") {
		t.Errorf("id = %q, want siteB-prefixed (joiner owns the shard)", res.ID)
	}
}

// TestOwnerVerbUnsharded: the owner verb on an unsharded server is a
// typed invalid, not a hang or a panic.
func TestOwnerVerbUnsharded(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Owner("user/flow"); !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("Owner on unsharded server = %v, want ErrInvalid", err)
	}
}

// TestSubmitOptions covers the redesigned Submit surface against a
// plain server: sync default, async ack, batch shape, option purity.
func TestSubmitOptions(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}

	// Sync: the response carries the finished status.
	req := dgl.NewRequest("user", "", execFlow("sync"))
	res, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if serr := res.Err(); serr != nil || res.Response.Status == nil || res.Response.Status.State != "succeeded" {
		t.Fatalf("sync status = %+v, %v", res.Response.Status, serr)
	}
	if res.ID != "" {
		t.Errorf("sync submit produced an async id %q", res.ID)
	}

	// Async: WithAsync must not mutate the caller's request.
	req2 := dgl.NewRequest("user", "", execFlow("async"))
	res, err = c.Submit(context.Background(), req2, WithAsync())
	if err != nil || res.Err() != nil {
		t.Fatalf("async submit: %v / %v", err, res.Err())
	}
	if res.ID == "" {
		t.Fatalf("async submit returned no id: %+v", res.Response)
	}
	if req2.Async {
		t.Errorf("WithAsync mutated the caller's request")
	}
	if exec, ok := e.Execution(res.ID); ok {
		_ = exec.Wait()
	}

	// Batch: primary plus two more, answered positionally.
	res, err = c.Submit(context.Background(),
		dgl.NewAsyncRequest("user", "", execFlow("b0")),
		WithBatch(
			dgl.NewAsyncRequest("user", "", execFlow("b1")),
			dgl.NewAsyncRequest("user", "", execFlow("b2")),
		))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 3 {
		t.Fatalf("batch responses = %d, want 3", len(res.Responses))
	}
	if res.Response != res.Responses[0] || res.ID == "" {
		t.Errorf("batch primary not answered first: %+v", res)
	}
	for i, r := range res.Responses {
		if r.Ack == nil || !r.Ack.Valid {
			t.Errorf("batch item %d: %+v", i, r)
			continue
		}
		if exec, ok := e.Execution(r.Ack.ID); ok {
			_ = exec.Wait()
		}
	}

	// No requests at all is a typed invalid.
	if _, err := c.Submit(context.Background(), nil); !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("empty submit = %v, want ErrInvalid", err)
	}
}

// TestRoutedSyncRunCancelledWhenHopDrops: the owner runs a routed sync
// submit as it runs a delegation, waiting for it under the hop's
// connection. When that connection drops mid-run, the owner cancels the
// run: it settles cancelled there instead of running on for nobody.
func TestRoutedSyncRunCancelledWhenHopDrops(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	entered := make(chan struct{}, 1)
	peerB.Engine().RegisterOp("gate", func(c *matrix.OpContext) error {
		entered <- struct{}{}
		select {
		case <-c.Cancel:
			return dgferr.ErrCancelled
		case <-time.After(10 * time.Second):
			return nil
		}
	})
	// Left without a reply on the dropped hop, siteA accepts the submit
	// itself (the failover path), where the gate opens at once.
	peerA.Engine().RegisterOp("gate", func(c *matrix.OpContext) error { return nil })
	flowName, _ := flowOwnedBy(t, peerB, "user")
	flow := dgl.NewFlow(flowName).Step("hold", dgl.Op("gate", nil)).Flow()
	c := dial(t, peerA.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := c.SubmitFlow("user", flow)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the routed run never reached its owner")
	}
	peerA.DropClient("siteB") // the hop's connection drops
	ids := peerB.Engine().Executions()
	if len(ids) != 1 {
		t.Fatalf("owner executions = %v", ids)
	}
	ex, _ := peerB.Engine().Execution(ids[0])
	select {
	case <-ex.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the routed run kept running after its hop dropped")
	}
	if err := ex.Err(); !errors.Is(err, dgferr.ErrCancelled) {
		t.Errorf("routed run err = %v, want cancelled", err)
	}
	if err := <-done; err != nil {
		t.Errorf("submit after the hop dropped: %v", err)
	}
}

// TestControlVerbsRouteToOwner: pause, resume, cancel and restart sent
// to the peer that accepted a routed flow act on the flow at its owner,
// as a status query does, so a routed id answers from any peer.
func TestControlVerbsRouteToOwner(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	started := make(chan struct{}, 2)
	for _, p := range []*Peer{peerA, peerB} {
		p.Engine().RegisterOp("gate", func(*matrix.OpContext) error {
			started <- struct{}{}
			<-release
			return nil
		})
	}
	flowName, _ := flowOwnedBy(t, peerB, "user")
	b := dgl.NewFlow(flowName)
	b.Step("gate", dgl.Op("gate", nil))
	b.Step("after", dgl.Op(dgl.OpNoop, nil))
	c := dial(t, peerA.Addr())
	id, err := submitAsync(c, "user", b.Flow())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "siteB:") {
		t.Fatalf("id = %q, want siteB-prefixed (owner accepted)", id)
	}
	<-started
	exec, ok := peerB.Engine().Execution(id)
	if !ok {
		t.Fatal("execution not resident on the owner")
	}

	if err := c.Pause(id); err != nil {
		t.Fatalf("pause through the accepting peer: %v", err)
	}
	if !exec.Paused() {
		t.Error("the owner's execution is not paused")
	}
	if err := c.Resume(id); err != nil {
		t.Fatalf("resume through the accepting peer: %v", err)
	}
	if exec.Paused() {
		t.Error("the owner's execution is still paused")
	}
	// Paused again, the flow holds after the gate opens, so the cancel
	// finds it running.
	if err := c.Pause(id); err != nil {
		t.Fatal(err)
	}
	free()
	if err := c.Cancel(id); err != nil {
		t.Fatalf("cancel through the accepting peer: %v", err)
	}
	if err := exec.Wait(); !errors.Is(err, dgferr.ErrCancelled) {
		t.Fatalf("cancelled execution ended with %v", err)
	}
	next, err := c.Restart(id)
	if err != nil {
		t.Fatalf("restart through the accepting peer: %v", err)
	}
	if !strings.HasPrefix(next, "siteB:") {
		t.Errorf("restarted id = %q, want siteB-prefixed", next)
	}
	if _, ok := peerB.Engine().Execution(next); !ok {
		t.Errorf("restarted execution %s not resident on the owner", next)
	}
	if _, ok := peerA.Engine().Execution(next); ok {
		t.Errorf("restarted execution %s resident on the accepting peer", next)
	}
}
