package experiments

import (
	"fmt"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/federation"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/wire"
)

// E13Federation quantifies federated flow execution (docs/FEDERATION.md):
//
//   - Scale-out: the E5 concurrent-flows workload — many parallel
//     subflows of real-clock sleep steps — on 1, 2 and 4 matrixd peers.
//     Every peer, including the submission peer, offers the same subflow
//     concurrency (wire admission capacity remotely, the federation's
//     local slot pool at home), so the peer count is the only variable.
//   - Failover: a flow on peer A whose subflow is pinned to peer B; B is
//     crashed mid-subflow (server torn down with the delegation in
//     flight) and the flow must still complete, with the failover
//     visible in provenance and the federation_* metrics.
func E13Federation(s Scale) (*Report, error) {
	r := &Report{
		ID: "E13", Title: "federated execution — scale-out over peers & ownership failover",
		Header: []string{"scenario", "peers", "wall", "steps/sec", "speedup", "delegated"},
	}
	var (
		parents   = pick(s, 2, 4)
		subflows  = pick(s, 8, 16) // per parent
		steps     = pick(s, 2, 4)  // per subflow
		stepSleep = time.Duration(pick(s, 4, 10)) * time.Millisecond
		capacity  = 4 // per-peer subflow concurrency
	)
	var base float64
	for _, n := range []int{1, 2, 4} {
		cl, err := newCluster(n, capacity, &scheduler.RoundRobin{})
		if err != nil {
			return nil, err
		}
		wall, delegated, err := cl.runWorkload(parents, subflows, steps, stepSleep)
		cl.close()
		if err != nil {
			return nil, err
		}
		totalSteps := parents * subflows * steps
		rate := float64(totalSteps) / wall.Seconds()
		if n == 1 {
			base = rate
		}
		r.Row("scale-out", fmt.Sprint(n), wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2fx", rate/base),
			fmt.Sprint(delegated))
	}

	// Failover: pin placement to B, crash B mid-subflow.
	failRow, err := runFailover(s)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, failRow)

	r.Note("workload: %d flows × %d parallel subflows × %d sleep(%s) steps; per-peer subflow concurrency %d (admission capacity = federation local slots)",
		parents, subflows, steps, stepSleep, capacity)
	r.Note("placement: round-robin for scale-out (deterministic spread); failover pins peer B then falls back least-loaded")
	r.Note("failover run: peer B's server and registry link are torn down with the delegation in flight; the delegating peer quarantines B and re-places the subflow")
	return r, nil
}

// fedPeer is one member of an in-process federation cluster.
type fedPeer struct {
	name   string
	reg    *obs.Registry
	grid   *dgms.Grid
	engine *matrix.Engine
	peer   *wire.Peer
	fed    *federation.Federation
}

type cluster struct {
	lookup *wire.LookupServer
	peers  []*fedPeer
}

// newCluster stands up a lookup server plus n federated peers on
// loopback TCP, each with its own grid, registry and engine. Heartbeats
// are forced (Peer.Beat) so membership is deterministic, not timer-paced.
func newCluster(n, capacity int, policy scheduler.PlacementPolicy) (*cluster, error) {
	cl := &cluster{lookup: wire.NewLookupServer()}
	lookupAddr, err := cl.lookup.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var peers []*wire.Peer
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("fed%c", 'A'+i)
		p, err := newFedPeer(name, lookupAddr, capacity, policy)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.peers = append(cl.peers, p)
		peers = append(peers, p.peer)
	}
	beatAll(peers)
	return cl, nil
}

// beatAll forces two membership ticks on every peer: the first round
// spreads registrations (and releases what the ring moved away), the
// second reads the completed roster (and claims what the first freed).
func beatAll(peers []*wire.Peer) {
	for range [2]int{} {
		for _, p := range peers {
			_ = p.Beat()
		}
	}
}

// beatEvery is a cluster's membership interval: a third of its registry
// TTL, or once a minute without one, so that no tick lands inside a
// measured phase or undoes a topology the harness imposed (funnelTo).
func beatEvery(ttl time.Duration) time.Duration {
	if ttl > 0 {
		return ttl / 3
	}
	return time.Minute
}

// stillRegistered reports whether the registry lists p live, asked over
// p's own registry link.
func stillRegistered(p *wire.Peer) (bool, error) {
	infos, err := p.Lookup().Peers()
	for _, in := range infos {
		if in.Name == p.Name {
			return true, err
		}
	}
	return false, err
}

func newFedPeer(name, lookupAddr string, capacity int, policy scheduler.PlacementPolicy) (*fedPeer, error) {
	// Real clock: sleep steps must consume wall time for scale-out to be
	// measurable (the virtual clock completes sleeps instantly).
	g, reg, err := newRealGrid(name)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":", MaxParallel: 64})
	p := wire.NewPeerConfig(name, e, wire.ServerConfig{MaxInflight: capacity, HeartbeatInterval: 50 * time.Millisecond})
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		return nil, err
	}
	fed := federation.New(p, federation.Config{
		Policy:  policy,
		Backoff: 20 * time.Millisecond,
	})
	fed.Start()
	return &fedPeer{name: name, reg: reg, grid: g, engine: e, peer: p, fed: fed}, nil
}

func (cl *cluster) close() {
	for _, p := range cl.peers {
		p.fed.Close()
		p.peer.Close()
	}
	cl.lookup.Close()
}

// runWorkload submits the concurrent-flows workload on the first peer
// and reports wall time plus how many subflows the federation placed.
func (cl *cluster) runWorkload(parents, subflows, steps int, stepSleep time.Duration) (time.Duration, int64, error) {
	a := cl.peers[0]
	flow := workloadFlow(subflows, steps, stepSleep)
	t0 := time.Now()
	execs := make([]*matrix.Execution, parents)
	for i := range execs {
		ex, err := a.engine.Start("user", flow)
		if err != nil {
			return 0, 0, err
		}
		execs[i] = ex
	}
	for _, ex := range execs {
		if err := ex.Wait(); err != nil {
			return 0, 0, err
		}
	}
	wall := time.Since(t0)
	// All delegations originate on the submission peer; its registry
	// labels each with the executing peer's name.
	var delegated int64
	for _, p := range cl.peers {
		delegated += a.reg.Counter("federation_delegations_total", "peer", p.name).Value()
	}
	return wall, delegated, nil
}

// workloadFlow is one parent: `subflows` parallel subflows, each a
// sequence of real-clock sleep steps.
func workloadFlow(subflows, steps int, stepSleep time.Duration) dgl.Flow {
	b := dgl.NewFlow("fedload").Parallel()
	for i := 0; i < subflows; i++ {
		sub := dgl.NewFlow(fmt.Sprintf("shard-%d", i))
		for j := 0; j < steps; j++ {
			sub.Step(fmt.Sprintf("work-%d", j),
				dgl.Op(dgl.OpSleep, map[string]string{"duration": stepSleep.String()}))
		}
		b.SubFlow(sub)
	}
	return b.Flow()
}

// pinFirst places every subflow on the pinned peer while it is a
// candidate, falling back to least-loaded — the deterministic way to
// aim the failover run at peer B.
type pinFirst struct{ target string }

func (p *pinFirst) Name() string { return "pin-first" }

func (p *pinFirst) Pick(local string, hint scheduler.Hint, cands []scheduler.Candidate) (string, bool) {
	for _, c := range cands {
		if c.Name == p.target {
			return p.target, true
		}
	}
	return scheduler.LeastLoaded{}.Pick(local, hint, cands)
}

// runFailover runs the crash scenario and returns its report row.
func runFailover(s Scale) ([]string, error) {
	var (
		steps     = pick(s, 4, 5)
		stepSleep = time.Duration(pick(s, 30, 100)) * time.Millisecond
		crashAt   = time.Duration(pick(s, 40, 150)) * time.Millisecond
	)
	cl, err := newCluster(2, 4, &pinFirst{target: "fedB"})
	if err != nil {
		return nil, err
	}
	defer cl.close()
	a, b := cl.peers[0], cl.peers[1]
	flow := workloadFlow(1, steps, stepSleep)
	t0 := time.Now()
	ex, err := a.engine.Start("user", flow)
	if err != nil {
		return nil, err
	}
	// Crash B with the delegation in flight: tear down its server and its
	// registry link (connections die, heartbeats stop, no graceful
	// unregister).
	time.Sleep(crashAt)
	b.fed.Close()
	b.peer.Server().Close()
	b.peer.Lookup().Close()
	runErr := ex.Wait()
	wall := time.Since(t0)

	failovers := a.reg.Counter("federation_failovers_total", "peer", "fedB").Value()
	provFailovers := a.grid.Provenance().Count(provenance.Filter{Action: "deleg.failover"})
	finalPeer := "?"
	st := ex.Status(true)
	for i := range st.Children {
		if rid := st.Children[i].Delegated; rid != "" {
			finalPeer = wire.OwnerOf(rid)
		}
	}
	outcome := fmt.Sprintf("completed=%s on=%s failovers=%d prov=%d",
		completedStr(runErr == nil), finalPeer, failovers, provFailovers)
	if runErr != nil {
		outcome = fmt.Sprintf("FAILED: %v (failovers=%d)", runErr, failovers)
	}
	return []string{"failover (crash B mid-subflow)", "2", wall.Round(time.Millisecond).String(),
		"-", "-", outcome}, nil
}
