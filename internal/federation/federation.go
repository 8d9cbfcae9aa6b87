// Package federation is the distributed execution plane of the
// datagridflow network: it turns a set of matrixd peers — until now
// federated only for status queries — into one grid that executes
// together. A flow submitted to any peer can have whole subflows
// (parallel branches, parallel foreach shards, stored-procedure calls)
// delegated to other peers over the wire protocol's route frame, one
// that names its parent node, with placement decided by a pluggable
// scheduler policy fed by the load gossip of the peer's membership loop,
// and ownership failing over to a surviving peer when the executing
// peer dies mid-subflow.
//
// The package sits between internal/matrix (it implements
// matrix.Delegator) and internal/wire (it speaks through wire.Peer's
// pooled clients and places over wire.Peer's Members). Protocol,
// placement and failover semantics are specified in docs/FEDERATION.md;
// metrics in docs/METRICS.md.
package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/codec"
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
	// MinSteps is the smallest subflow (by step count, recursive) worth
	// delegating; smaller ones run inline in the parent. Default 1.
	MinSteps int
	// Backoff is the wall-clock pause between failover attempts.
	// Default 200ms.
	Backoff time.Duration
	// DrainGrace bounds how long Close waits for in-flight delegations
	// to finish before cancelling them. Default 5s.
	DrainGrace time.Duration
}

// maxAttempts bounds placement attempts (distinct peers tried,
// including failovers) before a subflow settles locally.
const maxAttempts = 3

// Federation runs the delegation plane of one peer, placing over the
// peer's Members. Create with New, wire in with Start, shut down with
// Close.
type Federation struct {
	peer *wire.Peer
	cfg  Config

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // in-flight delegations

	// localSlots bounds subflows executing locally on this peer via the
	// federation (whether placement picked the local peer or remote
	// attempts were exhausted). It is sized to the wire server's
	// admission capacity, so every peer offers the same concurrency to
	// the federation whether work arrives over the wire or from a local
	// parent.
	localSlots chan struct{}

	mu     sync.Mutex
	closed bool
	dead   map[string]time.Time // peer -> quarantined until
}

// New builds a federation over a started-or-about-to-start peer.
func New(peer *wire.Peer, cfg Config) *Federation {
	if cfg.Policy == nil {
		cfg.Policy = scheduler.LeastLoaded{}
	}
	if cfg.MinSteps <= 0 {
		cfg.MinSteps = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	f := &Federation{
		peer:       peer,
		cfg:        cfg,
		localSlots: make(chan struct{}, peer.Server().Admission().Capacity()),
		dead:       make(map[string]time.Time),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f
}

// Start attaches the federation to its engine as the Delegator and
// forces one membership tick, so the first placement sees the peers
// that joined since the peer started. Call after Peer.Start.
func (f *Federation) Start() {
	f.peer.Engine().SetDelegator(f)
	_ = f.peer.Beat()
}

// candidates builds the placement slate: this peer (with live local
// load) plus every gossiped peer that is neither quarantined nor
// already tried.
func (f *Federation) candidates(tried map[string]bool) []scheduler.Candidate {
	now := time.Now()
	gossip := f.peer.Members()
	f.mu.Lock()
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
		out = append(out, scheduler.Candidate{Name: f.peer.Name, Load: f.peer.Load()})
	}
	return out
}

// markDead quarantines a peer after a transport failure and drops its
// pooled connection so the next use re-resolves. The peer is not
// offered to placement again for three of this peer's heartbeat
// intervals (its heartbeat re-registering it in the meantime).
func (f *Federation) markDead(name string) {
	f.mu.Lock()
	f.dead[name] = time.Now().Add(3 * f.peer.HeartbeatInterval())
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
func (f *Federation) record(r provenance.Record, detail ...provenance.Attr) {
	grid := f.peer.Engine().Grid()
	r.Time = grid.Clock().Now()
	_, _ = grid.Provenance().Append(r, detail...)
}

// Delegate implements matrix.Delegator: place the subflow, run it —
// remotely over a route frame, or locally under the federation's slot
// pool — and fail over to the next candidate when a peer refuses the
// work or ends it without an outcome (it died, or is closing). The
// subflow's own failure on the peer that ran it does not fail over: it
// propagates typed, whatever its class.
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

	e := f.peer.Engine()
	o := e.Obs()
	o.StartSpan(e.Clock().Now(), "delegate", req.Flow.Name, req.ParentNode)
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
	o.EndSpan(e.Clock().Now(), "delegate", req.Flow.Name, req.ParentNode,
		obs.Attr{Key: "outcome", Value: outcome}, obs.Attr{Key: "peer", Value: peerName})
	return resp, err
}

// place drives the placement/failover loop for one subflow.
func (f *Federation) place(ctx context.Context, req matrix.DelegateRequest) (*matrix.DelegateResponse, error) {
	o := f.peer.Engine().Obs()
	tried := make(map[string]bool)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, err)
		}
		cands := f.candidates(tried)
		pick, ok := f.cfg.Policy.Pick(f.peer.Name, scheduler.Hint{Resource: req.Hint, Holder: req.VdataHint}, cands)
		if !ok {
			break // slate exhausted: settle locally
		}
		tried[pick] = true
		if pick == f.peer.Name {
			return f.runLocal(ctx, req)
		}
		if resp := f.runRemote(ctx, pick, req); resp != nil {
			return resp, nil
		}
		if err := ctx.Err(); err != nil {
			// The parent stopped waiting: the peer is not at fault.
			return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, err)
		}
		// No outcome there: quarantine, note the failover, back off a
		// beat (the next candidate may share the cause), try again.
		f.markDead(pick)
		o.Counter("federation_failovers_total", "peer", pick).Inc()
		f.record(provenance.Record{
			Actor: f.peer.Name, Action: "deleg.failover",
			FlowID: req.ParentExec, StepID: req.ParentNode, Target: pick,
			Outcome: provenance.OutcomeError,
		}, provenance.Attr{Key: "flow", Value: req.Flow.Name})
		select {
		case <-time.After(f.cfg.Backoff):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: delegation cancelled: %v", dgferr.ErrCancelled, ctx.Err())
		}
	}
	return f.runLocal(ctx, req)
}

// runRemote runs the subflow on the named peer over a route frame that
// names its parent node. It returns the settled response — success, or
// the subflow's own failure there — or nil when the work did not run to
// an outcome there: the peer was unreachable, refused it or ended the
// run. Only such work moves. After a transport failure the peer may or
// may not have run it: the at-least-once caveat (docs/FEDERATION.md).
func (f *Federation) runRemote(ctx context.Context, name string, req matrix.DelegateRequest) *matrix.DelegateResponse {
	client, err := f.peer.Client(name)
	if err != nil {
		return nil
	}
	resp, err := client.Run(ctx, &wire.Route{
		User:       req.User,
		Token:      req.Token,
		Request:    codec.RequestDoc(dgl.NewRequest(req.User, "", req.Flow)),
		Origin:     f.peer.Name,
		ParentExec: req.ParentExec,
		ParentNode: req.ParentNode,
	})
	if err != nil {
		return nil
	}
	f.peer.Engine().Obs().Counter("federation_delegations_total", "peer", name).Inc()
	out := &matrix.DelegateResponse{Peer: name, Status: resp.Status, Err: dgferr.Decode(resp.Error)}
	if resp.Status != nil {
		// The status root's id is "<execution id>/<flow>".
		out.RemoteID, _, _ = strings.Cut(resp.Status.ID, "/")
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
	werr := exec.Settle(ctx, f.cfg.DrainGrace)
	if ctx.Err() != nil {
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

// Close shuts the federation down deterministically: new delegations
// decline to local/inline immediately; in-flight ones get DrainGrace to
// finish, then are cancelled (a serving peer cancels its run when the
// hop's connection ends or it closes itself). The peer itself, and its
// membership loop, are not closed — callers own that ordering
// (federation first, then peer).
func (f *Federation) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.peer.Engine().SetDelegator(nil)
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(f.cfg.DrainGrace):
		f.cancel()
		<-done
	}
	f.cancel()
}
