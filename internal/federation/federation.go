// Package federation is the distributed execution plane of the
// datagridflow network: it turns a set of matrixd peers — until now
// federated only for status queries — into one grid that executes
// together. A flow submitted to any peer can have whole subflows
// (parallel branches, parallel foreach shards, stored-procedure calls)
// delegated to other peers over the wire protocol's kind-4 delegate
// frame, with placement decided by a pluggable scheduler policy fed by
// heartbeat load gossip, and ownership failing over to a surviving peer
// when the executing peer dies mid-subflow.
//
// The package sits between internal/matrix (it implements
// matrix.Delegator) and internal/wire (it speaks through wire.Peer's
// pooled clients and heartbeats through the lookup registry). Protocol,
// placement and failover semantics are specified in docs/FEDERATION.md;
// metrics in docs/METRICS.md.
package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/wire"
)

// Config tunes a Federation.
type Config struct {
	// Policy places delegated subflows. Default scheduler.LeastLoaded.
	Policy scheduler.PlacementPolicy
	// HeartbeatInterval paces lease renewal and load gossip against the
	// lookup registry (wall clock). Default 5s.
	HeartbeatInterval time.Duration
	// MinSteps is the smallest subflow (by step count, recursive) worth
	// delegating; smaller ones run inline in the parent. Default 1.
	MinSteps int
	// MaxAttempts bounds placement attempts (distinct peers tried,
	// including failovers) before the subflow settles locally. Default 3.
	MaxAttempts int
	// Backoff is the wall-clock pause between failover attempts.
	// Default 200ms.
	Backoff time.Duration
	// DrainGrace bounds how long Close waits for in-flight delegations
	// to finish before cancelling them. Default 5s.
	DrainGrace time.Duration
	// LocalSlots bounds subflows executing locally on this peer via the
	// federation (whether placement picked the local peer or remote
	// attempts were exhausted) — sized to the wire server's admission
	// capacity by default, so every peer offers the same concurrency to
	// the federation whether work arrives over the wire or from a local
	// parent.
	LocalSlots int
	// DeadFor quarantines a peer after a transport failure: it is not
	// offered to placement again until the window passes (its heartbeat
	// re-registering it in the meantime). Default 3x HeartbeatInterval.
	DeadFor time.Duration
}

// Federation runs the delegation plane of one peer. Create with New,
// wire in with Start, shut down with Close.
type Federation struct {
	peer *wire.Peer
	cfg  Config

	ctx    context.Context
	cancel context.CancelFunc
	stopHB chan struct{}
	hbWg   sync.WaitGroup
	wg     sync.WaitGroup // in-flight delegations

	localSlots chan struct{}

	mu     sync.Mutex
	closed bool
	gossip []wire.PeerInfo
	dead   map[string]time.Time // peer -> quarantined until
}

// New builds a federation over a started-or-about-to-start peer.
func New(peer *wire.Peer, cfg Config) *Federation {
	if cfg.Policy == nil {
		cfg.Policy = scheduler.LeastLoaded{}
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.MinSteps <= 0 {
		cfg.MinSteps = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	if cfg.LocalSlots <= 0 {
		cfg.LocalSlots = peer.Server().Admission().Capacity()
	}
	if cfg.DeadFor <= 0 {
		cfg.DeadFor = 3 * cfg.HeartbeatInterval
	}
	f := &Federation{
		peer:       peer,
		cfg:        cfg,
		stopHB:     make(chan struct{}),
		localSlots: make(chan struct{}, cfg.LocalSlots),
		dead:       make(map[string]time.Time),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f
}

// Start attaches the federation to its engine (as the Delegator),
// sends an immediate heartbeat, and begins the heartbeat loop. Call
// after Peer.Start — heartbeats need the registered address.
func (f *Federation) Start() {
	f.peer.Engine().SetDelegator(f)
	f.beat()
	f.hbWg.Add(1)
	go f.heartbeatLoop()
}

// heartbeatLoop renews the peer's lookup lease with its load on every
// tick, keeping the local gossip table fresh.
func (f *Federation) heartbeatLoop() {
	defer f.hbWg.Done()
	t := time.NewTicker(f.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			f.beat()
		case <-f.stopHB:
			return
		}
	}
}

// beat sends one heartbeat and refreshes the gossip table.
func (f *Federation) beat() {
	o := f.peer.Engine().Obs()
	infos, err := f.peer.Heartbeat(f.load())
	if err != nil {
		o.Counter("federation_heartbeat_errors_total").Inc()
		return
	}
	o.Counter("federation_heartbeats_total").Inc()
	o.Gauge("federation_peers_alive").Set(int64(len(infos)))
	f.mu.Lock()
	f.gossip = infos
	f.mu.Unlock()
	// Sharded networks: the heartbeat doubles as the rebalance tick.
	// Membership just refreshed, so re-derive the desired shard set and
	// claim/drain the difference — this is how ownership fails over to
	// surviving peers after a death and spreads back out after a join.
	if f.peer.ShardManager() != nil {
		members := make([]string, 0, len(infos))
		for _, info := range infos {
			members = append(members, info.Name)
		}
		f.peer.RebalanceShards(members)
	}
}

// load snapshots this peer's self-reported figures: admission pool
// state, running executions, hosted resources — the gossip other peers
// rank it by.
func (f *Federation) load() scheduler.PeerLoad {
	adm := f.peer.Server().Admission()
	eng := f.peer.Engine()
	var resources []string
	for _, r := range eng.Grid().Resources() {
		resources = append(resources, r.Name())
	}
	return scheduler.PeerLoad{
		Inflight:  int64(adm.Inflight()),
		Queued:    int64(adm.Waiting()),
		Running:   eng.Obs().Gauge("matrix_executions_running").Value(),
		Capacity:  int64(adm.Capacity()),
		Resources: resources,
	}
}

// candidates builds the placement slate: this peer (with live local
// load) plus every gossiped peer that is neither quarantined nor
// already tried.
func (f *Federation) candidates(tried map[string]bool) []scheduler.Candidate {
	now := time.Now()
	f.mu.Lock()
	gossip := f.gossip
	var out []scheduler.Candidate
	seenSelf := false
	for _, info := range gossip {
		if tried[info.Name] {
			continue
		}
		if until, dead := f.dead[info.Name]; dead && now.Before(until) && info.Name != f.peer.Name {
			continue
		}
		if info.Name == f.peer.Name {
			seenSelf = true
			continue // appended below with live load
		}
		out = append(out, scheduler.Candidate{Name: info.Name, Load: info.Load})
	}
	f.mu.Unlock()
	if (seenSelf || len(gossip) == 0) && !tried[f.peer.Name] {
		out = append(out, scheduler.Candidate{Name: f.peer.Name, Load: f.load()})
	}
	return out
}

// markDead quarantines a peer after a transport failure and drops its
// pooled connection so the next use re-resolves.
func (f *Federation) markDead(name string) {
	f.mu.Lock()
	f.dead[name] = time.Now().Add(f.cfg.DeadFor)
	f.mu.Unlock()
	f.peer.DropClient(name)
}

// countSteps counts steps recursively — the MinSteps yardstick.
func countSteps(fl *dgl.Flow) int {
	n := len(fl.Steps)
	for i := range fl.Flows {
		n += countSteps(&fl.Flows[i])
	}
	return n
}

// record writes a federation provenance record stamped by the grid
// clock.
func (f *Federation) record(r provenance.Record) {
	grid := f.peer.Engine().Grid()
	r.Time = grid.Clock().Now()
	_, _ = grid.Provenance().Append(r)
}

// Delegate implements matrix.Delegator: place the subflow, run it —
// remotely over a delegate frame, or locally under the federation's
// slot pool — and fail over to the next candidate when the executing
// peer dies mid-run. Deterministic flow failures (the subflow itself
// erred on a live peer) do not fail over; they propagate typed.
func (f *Federation) Delegate(ctx context.Context, req matrix.DelegateRequest) (*matrix.DelegateResponse, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, matrix.ErrDelegateLocal
	}
	if countSteps(&req.Flow) < f.cfg.MinSteps {
		return nil, matrix.ErrDelegateLocal
	}
	if reg := f.peer.Server().TenantRegistry(); reg != nil {
		// Delegation-slot quota (docs/TENANCY.md): an over-quota tenant
		// keeps its subflow — it runs inline in the parent, it is never
		// dropped. The registry counts the rejection
		// (tenant_quota_rejections_total{resource="delegations"}).
		if err := reg.AcquireDelegation(req.User); err != nil {
			return nil, matrix.ErrDelegateLocal
		}
		defer reg.ReleaseDelegation(req.User)
	}
	f.wg.Add(1)
	defer f.wg.Done()
	// Merge the caller's context with the federation's lifetime so Close
	// can release in-flight delegations.
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(f.ctx, cancel)
	defer stop()

	o := f.peer.Engine().Obs()
	o.StartSpan("delegate", req.Flow.Name, req.ParentNode)
	resp, err := f.place(dctx, req)
	outcome := "ok"
	switch {
	case err != nil:
		outcome = "error"
	case resp.Err != nil:
		outcome = "flow-error"
	}
	peerName := ""
	if resp != nil {
		peerName = resp.Peer
	}
	o.EndSpan("delegate", req.Flow.Name, req.ParentNode,
		obs.Attr{Key: "outcome", Value: outcome}, obs.Attr{Key: "peer", Value: peerName})
	return resp, err
}

// place drives the placement/failover loop for one subflow.
func (f *Federation) place(ctx context.Context, req matrix.DelegateRequest) (*matrix.DelegateResponse, error) {
	o := f.peer.Engine().Obs()
	tried := make(map[string]bool)
	for attempt := 0; attempt < f.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, err)
		}
		cands := f.candidates(tried)
		hint := req.Hint
		if f.cfg.Policy.Name() == scheduler.VdataLocalityName && req.VdataHint != "" {
			// vdata-locality routes on a holder peer name, not a resource
			// name (docs/VDATA.md).
			hint = req.VdataHint
		}
		pick, ok := f.cfg.Policy.Pick(f.peer.Name, hint, cands)
		if !ok {
			break // slate exhausted: settle locally
		}
		tried[pick] = true
		if pick == f.peer.Name {
			return f.runLocal(ctx, req)
		}
		resp, retry := f.runRemote(ctx, pick, req)
		if resp != nil {
			return resp, nil
		}
		if !retry {
			// Unsupported peer (pre-1.3): silently move on, no backoff —
			// nothing was sent, nothing failed.
			continue
		}
		// Transport failure: quarantine, note the failover, back off a
		// beat (the next candidate may share the cause), try again.
		f.markDead(pick)
		o.Counter("federation_failovers_total", "peer", pick).Inc()
		f.record(provenance.Record{
			Actor: f.peer.Name, Action: "deleg.failover",
			FlowID: req.ParentExec, StepID: req.ParentNode, Target: pick,
			Outcome: provenance.OutcomeError,
			Detail:  map[string]string{"flow": req.Flow.Name},
		})
		select {
		case <-time.After(f.cfg.Backoff):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, ctx.Err())
		}
	}
	return f.runLocal(ctx, req)
}

// runRemote sends one delegate frame to the named peer. It returns a
// settled response (success or deterministic flow failure), or
// (nil, retry) — retry=true for transport/peer-death failures that
// should fail over, retry=false for peers that never got the frame
// (pre-1.3, or currently unreachable through the lookup registry).
func (f *Federation) runRemote(ctx context.Context, name string, req matrix.DelegateRequest) (*matrix.DelegateResponse, bool) {
	o := f.peer.Engine().Obs()
	client, err := f.peer.Client(name)
	if err != nil {
		// Could not even connect: treat as peer death.
		return nil, true
	}
	if !client.CanDelegate() {
		// Mixed-version federation: the peer negotiated < 1.3. Never send
		// the frame — it stays a valid status-forwarding peer.
		o.Counter("federation_unsupported_peers_total", "peer", name).Inc()
		return nil, false
	}
	doc, err := client.EncodeRequest(dgl.NewAsyncRequest(req.User, "", req.Flow))
	if err != nil {
		return nil, false // unmarshalable flow will not improve elsewhere
	}
	res, err := client.Delegate(ctx, wire.Delegate{
		User:       req.User,
		Token:      req.Token,
		Request:    doc,
		Origin:     f.peer.Name,
		ParentExec: req.ParentExec,
		ParentNode: req.ParentNode,
	})
	if err == nil {
		o.Counter("federation_delegations_total", "peer", name).Inc()
		return f.settled(name, res, nil), false
	}
	if res == nil {
		// Transport failure: the connection died with the frame in
		// flight. The remote may or may not have run the subflow — the
		// at-least-once caveat (docs/FEDERATION.md).
		return nil, true
	}
	// The remote answered. A cancelled or capacity class means the peer
	// is shutting down or saturated — the work should move; anything
	// else is the subflow's own deterministic failure and must propagate.
	if ctx.Err() == nil && (errors.Is(err, dgferr.ErrCancelled) || errors.Is(err, dgferr.ErrCapacity) || errors.Is(err, dgferr.ErrResourceDown)) {
		return nil, true
	}
	o.Counter("federation_delegations_total", "peer", name).Inc()
	return f.settled(name, res, err), false
}

// settled builds the Delegator response from a delegate reply.
func (f *Federation) settled(peerName string, res *wire.DelegateResult, flowErr error) *matrix.DelegateResponse {
	out := &matrix.DelegateResponse{Peer: peerName, RemoteID: res.ID, Err: flowErr}
	if res.Status != "" {
		if st, err := dgl.ParseFlowStatus([]byte(res.Status)); err == nil {
			out.Status = st
		}
	}
	return out
}

// runLocal executes the subflow on this peer's engine, under the
// federation's local slot pool — so a peer running its own delegations
// has exactly the same subflow concurrency it offers remote peers
// through wire admission.
func (f *Federation) runLocal(ctx context.Context, req matrix.DelegateRequest) (*matrix.DelegateResponse, error) {
	o := f.peer.Engine().Obs()
	select {
	case f.localSlots <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, ctx.Err())
	}
	defer func() { <-f.localSlots }()
	exec, err := f.peer.Engine().Start(req.User, req.Flow)
	if err != nil {
		return nil, err
	}
	o.Counter("federation_delegations_total", "peer", f.peer.Name).Inc()
	werr := exec.WaitContext(ctx)
	if ctx.Err() != nil {
		exec.Cancel()
		select {
		case <-exec.Done():
		case <-time.After(f.cfg.DrainGrace):
		}
		return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, ctx.Err())
	}
	st := exec.Status(true)
	return &matrix.DelegateResponse{
		Peer:     f.peer.Name,
		RemoteID: exec.ID,
		Status:   &st,
		Err:      werr,
	}, nil
}

// Beat forces one immediate heartbeat/gossip refresh — tests and
// experiments use it to synchronize membership deterministically
// instead of sleeping through HeartbeatInterval.
func (f *Federation) Beat() { f.beat() }

// Peers snapshots the latest gossip table — the live federation as the
// lookup registry last reported it.
func (f *Federation) Peers() []wire.PeerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wire.PeerInfo(nil), f.gossip...)
}

// Close shuts the federation down deterministically: new delegations
// decline to local/inline immediately; in-flight ones get DrainGrace to
// finish, then are cancelled (remote peers release the work via their
// delegate contexts); the heartbeat loop stops. The peer itself is not
// closed — callers own that ordering (federation first, then peer).
func (f *Federation) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.peer.Engine().SetDelegator(nil)
	close(f.stopHB)
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(f.cfg.DrainGrace):
		f.cancel()
		<-done
	}
	f.cancel()
	f.hbWg.Wait()
}
