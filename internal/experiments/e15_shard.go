package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/shard"
	"datagridflow/internal/wire"
)

// E15Shard quantifies sharded flow ownership (docs/FEDERATION.md,
// "Sharded ownership"):
//
//   - Any-peer scaling: a fixed per-peer client population submits
//     synchronous sleep flows to its local peer; the wire layer routes
//     each to its shard owner. Aggregate throughput at 1, 2 and 4 peers
//     measures how submission AND execution spread over the network.
//     The "single-owner" row is the counterfactual: the same 4-peer
//     network and the same offered load, but every shard leased to one
//     peer — the funnel sharding exists to remove.
//   - Failover: the owner of half the key space is killed without
//     drain. Submissions keyed to its shards must keep succeeding
//     (accepted locally by the surviving peer) throughout, the
//     survivor must take the leases over within the registry TTL, and
//     none of the dead peer's completed flows may be re-executed —
//     placement moves, history does not ("no replay from genesis").
func E15Shard(s Scale) (*Report, error) {
	rep, err := runShard(s)
	if err != nil {
		return nil, err
	}
	if err := rep.check(); err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E15", Title: "sharded ownership — any-peer submit scaling & owner failover",
		Header: []string{"scenario", "peers", "flows/sec", "speedup", "routed/local"},
	}
	r.Row("any-peer", "1", fmt.Sprintf("%.0f", rep.rate1), "1.00x", "-")
	r.Row("any-peer", "2", fmt.Sprintf("%.0f", rep.rate2), fmt.Sprintf("%.2fx", rep.speedup2), "-")
	r.Row("any-peer", "4", fmt.Sprintf("%.0f", rep.rate4), fmt.Sprintf("%.2fx", rep.speedup4),
		fmt.Sprintf("%d/%d", rep.routed4, rep.local4))
	r.Row("single-owner", "4", fmt.Sprintf("%.0f", rep.rateSingleOwner),
		fmt.Sprintf("%.2fx", rep.speedupVsSingleOwner), "(sharded/single-owner)")
	r.Row("failover", "2", "-",
		fmt.Sprintf("takeover %.0fms", rep.failoverMs),
		fmt.Sprintf("accepted %d, errors %d, replayed %d",
			rep.acceptedDuringFailover, rep.failoverSubmitErrors, rep.replayedFromGenesis))
	r.Note("workload: %d sync flows per phase, one %gms sleep step each; %d shards; per-peer admission %d, %d submit workers per peer (workers < admission so two-slot routed submissions cannot deadlock)",
		rep.flowsPerPhase, rep.stepMs, rep.shards, rep.capacity, rep.workersPerPeer)
	r.Note("single-owner row: same 4-peer network and offered load, every shard leased to peer 1 — throughput collapses to that peer's admission capacity")
	r.Note("failover: owner killed without drain; lease takeover bounded by the registry TTL (%gms here); submissions during the window fall back to local accepts (shard_routes_total{outcome=failover})",
		rep.failoverTTLMs)
	return r, nil
}

// shardReport is what one E15 run measured. The failover counts are
// asserted by check; rates, ratios and the takeover time are printed
// only.
type shardReport struct {
	shards, capacity, workersPerPeer, flowsPerPhase int
	stepMs                                          float64

	rate1, rate2, rate4, rateSingleOwner float64
	// speedup2/speedup4 are any-peer throughput over the 1-peer run.
	// speedupVsSingleOwner is the 4-peer sharded run over the 4-peer
	// single-owner run.
	speedup2, speedup4, speedupVsSingleOwner float64
	// routed4/local4 split the 4-peer run's submissions by routing
	// outcome on the accepting peers.
	routed4, local4 int64

	// failoverMs is kill → survivor holds the dead owner's lease
	// (bounded by failoverTTLMs, the registry TTL of the run).
	failoverMs, failoverTTLMs float64
	takeoverOwned             bool
	acceptedDuringFailover    int
	failoverSubmitErrors      int
	// replayedFromGenesis counts the dead owner's completed flows found
	// re-executing on the survivor after takeover — must be 0.
	replayedFromGenesis int
}

// check returns an error naming the first broken failover invariant:
// the survivor must hold the dead owner's lease, any-peer submit must
// have stayed available throughout, and placement moves while history
// does not.
func (rep *shardReport) check() error {
	if !rep.takeoverOwned {
		return fmt.Errorf("E15: survivor never took over the dead owner's shard lease (waited %.0fms, TTL %.0fms)",
			rep.failoverMs, rep.failoverTTLMs)
	}
	if rep.failoverSubmitErrors > 0 {
		return fmt.Errorf("E15: failover_submit_errors %d during the takeover window (any-peer submit must stay available)",
			rep.failoverSubmitErrors)
	}
	if rep.replayedFromGenesis > 0 {
		return fmt.Errorf("E15: replayed_from_genesis %d of the dead owner's completed flows re-executed on the survivor",
			rep.replayedFromGenesis)
	}
	return nil
}

// runShard runs the sharded-ownership experiment and returns what it
// measured.
func runShard(s Scale) (*shardReport, error) {
	rep := &shardReport{
		// Per-peer slot demand under routing is ~1.75x workers (every
		// worker holds its acceptor slot while the owner executes, and
		// routed-in executions hold owner slots), so capacity is sized
		// ~2x workers: the sharded runs stay unthrottled while the
		// single-owner counterfactual — whole network funneled through
		// one peer's admission — saturates.
		shards:         pick(s, 32, 64),
		capacity:       pick(s, 12, 20),
		workersPerPeer: pick(s, 6, 10),
		flowsPerPhase:  pick(s, 120, 400),
		stepMs:         float64(pick(s, 4, 8)),
	}

	// Any-peer scaling at 1, 2, 4 peers.
	rates := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		cl, err := newShardCluster(n, rep, 0)
		if err != nil {
			return nil, err
		}
		rate, err := cl.runPhase(rep)
		if n == 4 {
			rep.routed4, rep.local4 = cl.routeSplit()
		}
		cl.close()
		if err != nil {
			return nil, err
		}
		rates[n] = rate
	}
	rep.rate1, rep.rate2, rep.rate4 = rates[1], rates[2], rates[4]
	if rep.rate1 > 0 {
		rep.speedup2 = rep.rate2 / rep.rate1
		rep.speedup4 = rep.rate4 / rep.rate1
	}

	// Single-owner counterfactual: 4 peers, all shards on the first.
	cl, err := newShardCluster(4, rep, 0)
	if err != nil {
		return nil, err
	}
	cl.funnelTo(0)
	rate, err := cl.runPhase(rep)
	cl.close()
	if err != nil {
		return nil, err
	}
	rep.rateSingleOwner = rate
	if rate > 0 {
		rep.speedupVsSingleOwner = rep.rate4 / rate
	}

	// Failover.
	if err := runShardFailover(s, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// shardPeer is one member of an in-process sharded cluster.
type shardPeer struct {
	name   string
	reg    *obs.Registry
	engine *matrix.Engine
	peer   *wire.Peer
}

type shardCluster struct {
	lookup *wire.LookupServer
	peers  []*shardPeer
}

// newShardCluster stands up a shard-lease lookup plus n sharded peers
// on loopback TCP and settles ring ownership deterministically (two
// rebalance rounds, no heartbeat timers). ttl > 0 arms registry
// eviction for the failover run.
func newShardCluster(n int, rep *shardReport, ttl time.Duration) (*shardCluster, error) {
	cl := &shardCluster{lookup: wire.NewLookupServer()}
	cl.lookup.SetShards(rep.shards)
	if ttl > 0 {
		cl.lookup.SetTTL(ttl)
	}
	lookupAddr, err := cl.lookup.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		p, err := newShardPeer(fmt.Sprintf("shard%c", 'A'+i), lookupAddr, rep)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.peers = append(cl.peers, p)
	}
	cl.settle()
	return cl, nil
}

func newShardPeer(name, lookupAddr string, rep *shardReport) (*shardPeer, error) {
	// Real clock: the sleep step must consume wall time for admission
	// capacity to be the resource that scales with peers.
	g, reg, err := newRealGrid(name)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":", MaxParallel: 64})
	p := wire.NewPeerConfig(name, e, wire.ServerConfig{MaxInflight: rep.capacity})
	p.EnableSharding(shard.NewManager(shard.Config{
		Self:   name,
		Shards: rep.shards,
		Obs:    reg,
		Resident: func(id string) bool {
			_, ok := e.Execution(id)
			return ok
		},
	}))
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		return nil, err
	}
	return &shardPeer{name: name, reg: reg, engine: e, peer: p}, nil
}

// settle runs two rebalance rounds over the full roster: the first
// releases what the ring moved away, the second claims what the first
// freed.
func (cl *shardCluster) settle() {
	var names []string
	for _, p := range cl.peers {
		names = append(names, p.name)
	}
	for range [2]int{} {
		for _, p := range cl.peers {
			p.peer.RebalanceShards(names)
		}
	}
}

// funnelTo re-leases every shard to one peer — the single-owner
// counterfactual topology.
func (cl *shardCluster) funnelTo(i int) {
	owner := cl.peers[i]
	var all []int
	for s := 0; s < owner.peer.ShardManager().Shards(); s++ {
		all = append(all, s)
	}
	for j, p := range cl.peers {
		if j != i {
			p.peer.RebalanceShards([]string{owner.name}) // ring of one: drain everything
		}
	}
	owners, err := owner.peer.Lookup().ClaimShards(owner.name, all)
	if err != nil {
		return
	}
	for _, p := range cl.peers {
		p.peer.ShardManager().SetOwners(owners)
	}
}

func (cl *shardCluster) close() {
	for _, p := range cl.peers {
		p.peer.Close()
	}
	cl.lookup.Close()
}

// routeSplit sums the accepting peers' routed vs locally-accepted
// submissions.
func (cl *shardCluster) routeSplit() (routed, local int64) {
	for _, p := range cl.peers {
		routed += p.reg.Counter("shard_routes_total", "outcome", "routed").Value()
		local += p.reg.Counter("shard_routes_total", "outcome", "local").Value()
	}
	return routed, local
}

// runPhase drives FlowsPerPhase synchronous sleep flows through the
// cluster — WorkersPerPeer closed-loop workers per peer, each submitting
// to its local peer over a multiplexed session, flow names and users
// spread uniformly over the key space — and returns flows/sec.
func (cl *shardCluster) runPhase(rep *shardReport) (float64, error) {
	sleep := time.Duration(rep.stepMs * float64(time.Millisecond))
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	clients := make([]*wire.Client, len(cl.peers))
	for i, p := range cl.peers {
		c, err := wire.Dial(p.peer.Addr())
		if err == nil {
			_, err = c.Hello()
		}
		if err != nil {
			for _, prev := range clients {
				if prev != nil {
					prev.Close()
				}
			}
			return 0, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	t0 := time.Now()
	for _, c := range clients {
		for w := 0; w < rep.workersPerPeer; w++ {
			wg.Add(1)
			go func(c *wire.Client) {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(rep.flowsPerPhase) {
						return
					}
					flow := dgl.NewFlow(fmt.Sprintf("job%d", i)).
						Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": sleep.String()})).Flow()
					req := dgl.NewRequest(fmt.Sprintf("u%d", i%16), "", flow)
					res, err := c.Submit(context.Background(), req)
					if err != nil || res.Err() != nil {
						failed.Add(1)
					}
				}
			}(c)
		}
	}
	wg.Wait()
	wall := time.Since(t0)
	if n := failed.Load(); n > 0 {
		return 0, fmt.Errorf("e15: %d of %d submissions failed", n, rep.flowsPerPhase)
	}
	return float64(rep.flowsPerPhase) / wall.Seconds(), nil
}

// runShardFailover kills the owner of half the key space and measures
// availability and lease takeover on the survivor.
func runShardFailover(s Scale, rep *shardReport) error {
	ttl := time.Duration(pick(s, 300, 500)) * time.Millisecond
	rep.failoverTTLMs = float64(ttl) / float64(time.Millisecond)
	cl, err := newShardCluster(2, rep, ttl)
	if err != nil {
		return err
	}
	defer cl.close()
	a, b := cl.peers[0], cl.peers[1]

	// Warm flows on B: completed executions whose ids must NOT reappear
	// on A after the takeover.
	cb, err := wire.Dial(b.peer.Addr())
	if err != nil {
		return err
	}
	if _, err := cb.Hello(); err != nil {
		cb.Close()
		return err
	}
	warm := pick(s, 8, 24)
	var warmIDs []string
	for i := 0; len(warmIDs) < warm && i < 4096; i++ {
		name := fmt.Sprintf("warm%d", i)
		if !b.peer.ShardManager().Owns(b.peer.ShardManager().ShardOf(wire.RoutingKey("user", name))) {
			continue
		}
		flow := dgl.NewFlow(name).
			Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": "1ms"})).Flow()
		res, err := cb.Submit(context.Background(), dgl.NewRequest("user", "", flow),
			wire.WithRoute(wire.RouteLocal))
		if err != nil || res.Err() != nil {
			cb.Close()
			return fmt.Errorf("e15: warm flow: %v / %v", err, res.Err())
		}
		if res.Response.Status != nil {
			warmIDs = append(warmIDs, res.Response.Status.ID)
		}
	}
	cb.Close()

	// Kill B without drain: server down, leases left live until the TTL.
	b.peer.Server().Close()

	// A flow name keyed to a B-owned shard keeps being submitted through
	// A until A holds the lease. Every submission must succeed — the
	// survivor accepts locally while the lease is still B's.
	victim := ""
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("after%d", i)
		if h, _, ok := a.peer.ShardManager().OwnerOf(wire.RoutingKey("user", name)); ok && h == b.name {
			victim = name
			break
		}
	}
	if victim == "" {
		return fmt.Errorf("e15: no key routes to the dead owner")
	}
	ca, err := wire.Dial(a.peer.Addr())
	if err != nil {
		return err
	}
	defer ca.Close()
	if _, err := ca.Hello(); err != nil {
		return err
	}
	sh := a.peer.ShardManager().ShardOf(wire.RoutingKey("user", victim))
	t0 := time.Now()
	deadline := t0.Add(ttl + 5*time.Second)
	for !a.peer.ShardManager().Owns(sh) {
		if time.Now().After(deadline) {
			break
		}
		flow := dgl.NewFlow(victim).
			Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": "1ms"})).Flow()
		res, err := ca.Submit(context.Background(), dgl.NewRequest("user", "", flow))
		if err != nil || res.Err() != nil {
			rep.failoverSubmitErrors++
		} else {
			rep.acceptedDuringFailover++
		}
		// The federation heartbeat would drive this; here it ticks inline.
		a.peer.RebalanceShards([]string{a.name})
		time.Sleep(20 * time.Millisecond)
	}
	rep.failoverMs = float64(time.Since(t0)) / float64(time.Millisecond)
	rep.takeoverOwned = a.peer.ShardManager().Owns(sh)

	// History stayed where it was: none of B's completed flows run on A.
	for _, id := range warmIDs {
		if _, resident := a.engine.Execution(id); resident {
			rep.replayedFromGenesis++
		}
	}
	return nil
}
