package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/replica"
	"datagridflow/internal/shard"
	"datagridflow/internal/store"
	"datagridflow/internal/wire"
)

// E16Replica quantifies the replicated lifecycle store
// (docs/REPLICATION.md):
//
//   - Submit overhead: the same synchronous workload against the same
//     peer, bare vs quorum-replicated to one follower. Quorum couples
//     every commit point — terminal outcome or passivation, the records
//     that complete a promise to a caller — to a follower ack, so the
//     ratio is the price of "accepted means replicated" (printed, not
//     asserted: it is a ratio of two wall-clock phases).
//   - Takeover with disk loss: the owner of live flows is killed and
//     its store never reopens. The follower promotes its replica: every
//     flow whose records the follower acknowledged before the kill must
//     reappear on the survivor (zero acknowledged-record loss), in
//     O(live flows) — the replica replays like any store, snapshots
//     plus tail, not the owner's history from genesis.
func E16Replica(s Scale) (*Report, error) {
	rep, err := runRepl(s)
	if err != nil {
		return nil, err
	}
	if err := rep.check(); err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E16", Title: "replicated lifecycle store — quorum overhead & standby takeover",
		Header: []string{"scenario", "metric", "value"},
	}
	r.Row("submit", "bare flows/sec", fmt.Sprintf("%.0f", rep.ratePlain))
	r.Row("submit", "quorum flows/sec", fmt.Sprintf("%.0f", rep.rateQuorum))
	r.Row("submit", "quorum overhead", fmt.Sprintf("%.1f%%", rep.quorumOverheadFrac*100))
	r.Row("takeover", "acked live flows", fmt.Sprintf("%d", rep.ackedLiveFlows))
	r.Row("takeover", "lost after promotion", fmt.Sprintf("%d", rep.lostFlows))
	r.Row("takeover", "promoted flows", fmt.Sprintf("%d", rep.promotedFlows))
	r.Row("takeover", "takeover ms", fmt.Sprintf("%.0f", rep.takeoverMs))
	r.Row("catch-up", "snapshots shipped", fmt.Sprintf("%d", rep.snapshotsShipped))
	r.Note("workload: %d sync flows per submit phase, one %gms sleep step each; %d shards; quorum ack to %d follower(s)",
		rep.flowsPerPhase, rep.stepMs, rep.shards, rep.followers)
	r.Note("takeover: owner killed without drain, its store abandoned (disk loss); survivor promotes the replica when the member set shrinks — acked flows resume from the follower's copy")
	return r, nil
}

// replReport is what one E16 run measured. The takeover counts are
// asserted by check; rates, the overhead ratio and the takeover time are
// printed only.
type replReport struct {
	followers                                       int
	shards, capacity, workersPerPeer, flowsPerPhase int
	stepMs                                          float64

	// ratePlain/rateQuorum are the same closed-loop synchronous workload
	// without and with quorum replication, each the best of the measured
	// interleaved passes; quorumOverheadFrac is (plain/quorum)-1 in wall
	// time.
	ratePlain, rateQuorum, quorumOverheadFrac float64

	// ackedLiveFlows is how many live (unfinished) flows the follower
	// had acknowledged records for at the kill; lostFlows counts those
	// missing from the survivor after promotion — must be 0.
	ackedLiveFlows, lostFlows int
	promotedFlows             int64
	// takeoverMs is kill → every acked flow present on the survivor.
	takeoverMs float64
	// snapshotsShipped counts catch-up snapshots shipped to cold
	// followers during the takeover phase. Its peers carry history from
	// before the tap attached, so the first streamed frame is a gap and
	// the snapshot catch-up path must fire — at least once.
	snapshotsShipped int64
}

// check returns an error naming the first broken replication invariant.
// A replication bug is a data-loss bug, so all three are absolute.
func (rep *replReport) check() error {
	if rep.lostFlows > 0 {
		return fmt.Errorf("E16: lost_flows %d of %d acknowledged live flows missing after promotion",
			rep.lostFlows, rep.ackedLiveFlows)
	}
	if rep.ackedLiveFlows > 0 && rep.promotedFlows == 0 {
		return fmt.Errorf("E16: promoted_flows 0 with %d acknowledged live flows at the kill (follower never promoted its replica)",
			rep.ackedLiveFlows)
	}
	if rep.snapshotsShipped < 1 {
		return fmt.Errorf("E16: snapshots_shipped 0 (the behind-follower catch-up path never ran)")
	}
	return nil
}

// runRepl runs the replication experiment and returns what it measured.
func runRepl(s Scale) (*replReport, error) {
	rep := &replReport{
		followers: 1,
		// Workers are sized so several submissions share each group
		// commit: the quorum ack is one follower round trip per commit,
		// so its cost amortizes across the commit's batch exactly like
		// the fsync it rides on.
		shards:         pick(s, 16, 32),
		capacity:       pick(s, 16, 24),
		workersPerPeer: pick(s, 8, 12),
		flowsPerPhase:  pick(s, 800, 1600),
		stepMs:         4,
	}

	// Submit overhead: bare and quorum clusters side by side, one
	// warm-up pass, then seven interleaved measured passes per mode.
	// Scheduler noise on small runners is one-sided — a disturbed pass
	// only ever runs *slower* — so the best pass per mode is the
	// cleanest observation of that mode's undisturbed rate, and the
	// reported overhead is the ratio of the two bests (the same logic
	// as benchstat taking the minimum of -count runs). Per-pass ratios
	// would inherit the noise of both phases in the pass. Phases are
	// sized so each runs for roughly half a second even at CI scale:
	// the quorum path wakes more goroutines per flow than the bare
	// path, which amplifies scheduler noise, and sub-second phases let
	// single-digit-millisecond disturbances masquerade as protocol
	// overhead.
	phase := func(replicated bool) (float64, error) {
		cl, err := newReplCluster(2, rep, 0, replicated, 0)
		if err != nil {
			return 0, err
		}
		rate, err := cl.runSubmitPhase(rep)
		cl.close()
		// Quiesce before the paired phase measures: reclaim the torn-down
		// cluster's heap and let deferred teardown I/O drain, so cleanup
		// cost lands between phases instead of inside the next one.
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		return rate, err
	}
	for pass := 0; pass < 8; pass++ {
		// Alternate which mode runs first so any residual ordering bias
		// cancels across passes instead of always taxing the same mode.
		order := []bool{false, true}
		if pass%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		rates := map[bool]float64{}
		for _, replicated := range order {
			rate, err := phase(replicated)
			if err != nil {
				return nil, err
			}
			rates[replicated] = rate
		}
		if pass == 0 {
			continue // warm-up: page cache, lazy init, scheduler ramp
		}
		rep.ratePlain = math.Max(rep.ratePlain, rates[false])
		rep.rateQuorum = math.Max(rep.rateQuorum, rates[true])
	}
	if rep.rateQuorum > 0 {
		rep.quorumOverheadFrac = rep.ratePlain/rep.rateQuorum - 1
	}

	// Takeover with disk loss.
	if err := runReplTakeover(s, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// replPeer is one member of an in-process replicated cluster: a sharded
// peer with a real flow-state store (and, when replicated, a sender/
// receiver pair wired through EnableReplication).
type replPeer struct {
	name   string
	reg    *obs.Registry
	engine *matrix.Engine
	peer   *wire.Peer
	store  *store.Store
	dir    string
}

type replCluster struct {
	lookup *wire.LookupServer
	peers  []*replPeer
}

func newReplCluster(n int, rep *replReport, ttl time.Duration, replicated bool, history int) (*replCluster, error) {
	cl := &replCluster{lookup: wire.NewLookupServer()}
	cl.lookup.SetShards(rep.shards)
	if ttl > 0 {
		cl.lookup.SetTTL(ttl)
	}
	lookupAddr, err := cl.lookup.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		p, err := newReplPeer(fmt.Sprintf("repl%c", 'A'+i), lookupAddr, rep, replicated, history)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.peers = append(cl.peers, p)
	}
	cl.settle()
	return cl, nil
}

func newReplPeer(name, lookupAddr string, rep *replReport, replicated bool, history int) (*replPeer, error) {
	dir, err := os.MkdirTemp("", "e16-"+name+"-*")
	if err != nil {
		return nil, err
	}
	g, reg, err := newRealGrid(name)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":", MaxParallel: 64})
	st, err := store.Open(dir+"/store", store.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	// History appended before the replication tap attaches: the durable
	// cursor advances past it, so the follower's first streamed frame
	// arrives as a gap and forces the snapshot catch-up path — the
	// late-attached-tap case every cold follower hits.
	for i := 0; i < history; i++ {
		id := fmt.Sprintf("%s:hist%d", name, i)
		if err := st.AppendBatch([]store.Record{
			{Type: store.TypeExecSnap, ID: id},
			{Type: store.TypeExecEnd, ID: id},
		}); err != nil {
			return nil, err
		}
	}
	e.SetStore(st)
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
	if replicated {
		// Binary block encoding: the hot-path codec halves the per-record
		// CPU of encode/ship/apply, and the per-block sniffing means it
		// composes with the owner's JSON store (mixed-codec replication).
		if err := p.EnableReplication(wire.ReplicationConfig{
			Followers: rep.followers,
			Mode:      replica.ModeQuorum,
			Dir:       dir + "/replica",
			Binary:    true,
		}); err != nil {
			return nil, err
		}
	}
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		return nil, err
	}
	return &replPeer{name: name, reg: reg, engine: e, peer: p, store: st, dir: dir}, nil
}

func (cl *replCluster) settle() {
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

func (cl *replCluster) close() {
	for _, p := range cl.peers {
		p.peer.Close()
		_ = p.store.Close()
		_ = os.RemoveAll(p.dir)
	}
	cl.lookup.Close()
}

// runSubmitPhase drives FlowsPerPhase synchronous sleep flows, pinned
// local to the first peer so bare and replicated runs execute on the
// identical path — the only variable is the store tap's quorum wait.
func (cl *replCluster) runSubmitPhase(rep *replReport) (float64, error) {
	sleep := time.Duration(rep.stepMs * float64(time.Millisecond))
	c, err := wire.Dial(cl.peers[0].peer.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		return 0, err
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < rep.workersPerPeer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(rep.flowsPerPhase) {
					return
				}
				flow := dgl.NewFlow(fmt.Sprintf("job%d", i)).
					Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": sleep.String()})).Flow()
				res, err := c.Submit(context.Background(),
					dgl.NewRequest(fmt.Sprintf("u%d", i%16), "", flow), wire.WithRoute(wire.RouteLocal))
				if err != nil || res.Err() != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if n := failed.Load(); n > 0 {
		return 0, fmt.Errorf("e16: %d of %d submissions failed", n, rep.flowsPerPhase)
	}
	return float64(rep.flowsPerPhase) / wall.Seconds(), nil
}

// runReplTakeover kills a replicated owner without drain, abandons its
// store, and measures promotion on the survivor.
func runReplTakeover(s Scale, rep *replReport) error {
	ttl := time.Duration(pick(s, 300, 500)) * time.Millisecond
	cl, err := newReplCluster(2, rep, ttl, true, pick(s, 8, 24))
	if err != nil {
		return err
	}
	defer cl.close()
	a, b := cl.peers[0], cl.peers[1]

	// Live flows on B: long sleeps still running at the kill, pinned
	// local so B owns them. Synchronous accept + quorum mode means the
	// exec.start record is follower-acknowledged before the ack returns.
	cb, err := wire.Dial(b.peer.Addr())
	if err != nil {
		return err
	}
	if _, err := cb.Hello(); err != nil {
		cb.Close()
		return err
	}
	liveFlows := pick(s, 6, 16)
	for i := 0; i < liveFlows; i++ {
		flow := dgl.NewFlow(fmt.Sprintf("live%d", i)).
			Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": "30s"})).Flow()
		res, err := cb.Submit(context.Background(), dgl.NewRequest("user", "", flow),
			wire.WithAsync(), wire.WithRoute(wire.RouteLocal))
		if err != nil || res.Err() != nil {
			cb.Close()
			return fmt.Errorf("e16: live flow: %v / %v", err, res.Err())
		}
	}
	// Snapshot so every live flow's state is in the durable stream, then
	// wait for the quiesced, fully-acknowledged state the zero-loss
	// invariant is defined over: all live flows durable on B, and the
	// follower's acked cursor at or past B's cursor as read AFTER the
	// live set — so every captured entry is covered by the ack.
	b.engine.SnapshotAll()
	deadline := time.Now().Add(10 * time.Second)
	var acked []store.Entry
	for {
		live := b.store.Live()
		seq := b.store.ReplSeq()
		if len(live) >= liveFlows && seq > 0 {
			if ri, err := cb.Repl(); err == nil && ri != nil &&
				len(ri.Followers) > 0 && ri.Followers[0].AckedSeq >= seq {
				acked = live
				break
			}
		}
		if time.Now().After(deadline) {
			cb.Close()
			return fmt.Errorf("e16: follower never caught up (live %d of %d, seq %d)", len(live), liveFlows, seq)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cb.Close()

	// Everything in the acknowledged state must exist on A after
	// promotion.
	rep.ackedLiveFlows = len(acked)

	// Kill B without drain; its store is never reopened (disk loss).
	b.peer.Server().Close()

	t0 := time.Now()
	present := func() int {
		n := 0
		live := make(map[string]bool)
		for _, ent := range a.store.Live() {
			live[ent.ID] = true
		}
		for _, ent := range acked {
			if _, ok := a.engine.Execution(ent.ID); ok || live[ent.ID] {
				n++
			}
		}
		return n
	}
	// The federation heartbeat would drive this; here it ticks inline
	// with the shrunken member set, exactly what TTL eviction yields.
	deadline = t0.Add(ttl + 10*time.Second)
	for present() < len(acked) {
		if time.Now().After(deadline) {
			break
		}
		a.peer.RebalanceShards([]string{a.name})
		time.Sleep(20 * time.Millisecond)
	}
	rep.takeoverMs = float64(time.Since(t0)) / float64(time.Millisecond)
	rep.lostFlows = len(acked) - present()
	rep.promotedFlows = a.reg.Counter("repl_promoted_flows_total", "source", b.name).Value()
	rep.snapshotsShipped = b.reg.Counter("repl_snapshots_shipped_total").Value() +
		a.reg.Counter("repl_snapshots_shipped_total").Value()
	return nil
}
