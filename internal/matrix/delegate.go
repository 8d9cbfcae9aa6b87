package matrix

// delegate.go is the engine's half of federated execution
// (docs/FEDERATION.md): a pluggable Delegator — in production the
// federation layer, in tests a fake — is offered whole subflows
// (parallel branches, parallel foreach shards, stored-procedure calls)
// before the engine runs them inline. The engine stays ignorant of
// peers, placement and wire details; it only knows how to hand a
// subflow out, record the hand-off, and graft the remote status tree
// back into its own.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/provenance"
	"datagridflow/internal/store"
)

// ErrDelegateLocal is the sentinel a Delegator returns to decline a
// subflow: the engine runs it inline, exactly as if no delegator were
// attached. Federation returns it when draining, or when the subflow is
// too small to be worth shipping.
var ErrDelegateLocal = errors.New("matrix: delegator declined, run locally")

// DelegateRequest is one subflow offered to the Delegator. The flow's
// variable block already carries the parent scope's values (late
// binding resolved on the delegating side), so the remote run needs no
// parent environment.
type DelegateRequest struct {
	// User the subflow runs as.
	User string
	// Token is the submitting session's tenant bearer token, forwarded
	// so the remote peer re-verifies the same identity
	// (docs/TENANCY.md). Empty on untenanted submissions.
	Token string
	// Flow is the self-contained subflow document.
	Flow dgl.Flow
	// Hint is a resource name extracted from the subflow for
	// locality-aware placement; empty when none was found.
	Hint string
	// VdataHint is the peer already holding a memoized derivation for
	// one of the subflow's pure steps (docs/VDATA.md); empty when none
	// is known. The vdata-locality policy routes on it.
	VdataHint string
	// ParentExec and ParentNode locate the delegating node, for
	// provenance joining.
	ParentExec, ParentNode string
}

// DelegateResponse reports a settled delegation. Err carries the
// delegated flow's own terminal error (typed), nil on success — the
// remote ran either way, and RemoteID/Status report what it knows.
type DelegateResponse struct {
	// Peer that executed the subflow (possibly the local peer).
	Peer string
	// RemoteID is the execution id on that peer ("peerB:dgf-000042").
	RemoteID string
	// Status is the final status tree of the remote run (may be nil if
	// it could not be retrieved).
	Status *dgl.FlowStatus
	// Err is the delegated flow's terminal error, nil on success.
	Err error
}

// Delegator places and runs subflows somewhere in the federation. A
// returned error means the delegation machinery itself gave up (after
// its own failover attempts) — distinct from resp.Err, which is the
// flow failing on whatever peer ran it. Implementations must be safe
// for concurrent use.
type Delegator interface {
	Delegate(ctx context.Context, req DelegateRequest) (*DelegateResponse, error)
}

// SetDelegator attaches (or, with nil, detaches) the engine's
// delegation plane. Parallel subflows, parallel foreach shards and
// stored-procedure calls started afterwards are offered to it.
func (e *Engine) SetDelegator(d Delegator) {
	e.mu.Lock()
	e.deleg = d
	e.mu.Unlock()
}

// delegator returns the attached Delegator, or nil.
func (e *Engine) delegator() Delegator {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deleg
}

// bindFlow copies f with the enclosing scope's variable values bound
// into its variable block, making the subflow self-contained. Names the
// flow already declares keep the flow's own (re-evaluated) declaration.
// Values are carried verbatim; a value containing "$" will be
// interpolated again on the remote side — the isolation caveat in
// docs/FEDERATION.md.
func bindFlow(f *dgl.Flow, scope *Scope) *dgl.Flow {
	out := *f
	declared := make(map[string]bool, len(f.Variables))
	for _, v := range f.Variables {
		declared[v.Name] = true
	}
	vars := append([]dgl.Variable(nil), f.Variables...)
	snap := scope.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if !declared[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		vars = append(vars, dgl.Variable{Name: name, Value: snap[name]})
	}
	out.Variables = vars
	return &out
}

// resourceHint extracts a locality hint from a subflow: the first
// literal (non-interpolated) "resource" parameter any step names.
func resourceHint(f *dgl.Flow) string {
	for i := range f.Steps {
		for _, p := range f.Steps[i].Operation.Params {
			if p.Name == "resource" && p.Value != "" && !strings.Contains(p.Value, "$") {
				return p.Value
			}
		}
	}
	for i := range f.Flows {
		if h := resourceHint(&f.Flows[i]); h != "" {
			return h
		}
	}
	return ""
}

// shardFlow wraps one parallel-foreach iteration's children as a
// standalone sequential flow — the delegable unit for foreach shards.
// The iteration variable and enclosing scope travel via bindFlow.
func shardFlow(f *dgl.Flow, i int) *dgl.Flow {
	return &dgl.Flow{
		Name:  fmt.Sprintf("%s[%d]", f.Name, i),
		Logic: dgl.FlowLogic{Control: dgl.Sequential},
		Flows: f.Flows,
		Steps: f.Steps,
	}
}

// maybeDelegate offers the subflow rooted at n to the engine's
// delegator: f is the document to ship — pf's own, or the shard wrapping
// one iteration of it. handled=false means the caller must run it inline
// (no delegator attached, or the delegator declined with
// ErrDelegateLocal); handled=true means the node reached a terminal
// state here and err is the subflow's outcome.
func (ex *execRun) maybeDelegate(pf *planFlow, f *dgl.Flow, n *node, scope *Scope) (handled bool, err error) {
	d := ex.engine.delegator()
	if d == nil {
		return false, nil
	}
	rel := ex.relID(n.id)
	if ex.skipped(rel) {
		// Restart checkpointing: a delegated subtree that already
		// succeeded is one unit — skip it wholesale.
		n.setState(StateSkipped, ex.now())
		ex.engine.countSkip()
		ex.engine.record(provenance.Record{
			Actor: ex.req.User.Name, Action: "deleg.skip",
			FlowID: ex.ID, StepID: n.id, Target: f.Name,
			Outcome: provenance.OutcomeSkipped,
		})
		_ = ex.engine.storeAppend(store.Record{
			Type: store.TypeDelegDone, ID: ex.ID, Node: rel,
		})
		return true, nil
	}
	if err := ex.ctrl.checkpoint(); err != nil {
		n.setState(StateCancelled, ex.now())
		return true, err
	}
	bound := bindFlow(f, scope)
	req := DelegateRequest{
		User:       ex.req.User.Name,
		Token:      ex.req.Token,
		Flow:       *bound,
		Hint:       resourceHint(bound),
		VdataHint:  ex.vdataPeerHint(pf, scope),
		ParentExec: ex.ID,
		ParentNode: n.id,
	}
	n.setState(StateRunning, ex.now())
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "deleg.start",
		FlowID: ex.ID, StepID: n.id, Target: f.Name,
	})
	_ = ex.engine.storeAppend(store.Record{
		Type: store.TypeDelegStart, ID: ex.ID, Node: rel,
	})
	// While the delegation is in flight a peer is working on this
	// execution's behalf: PassivateIdle must not treat it as idle.
	ex.delegating.Add(1)
	resp, derr := d.Delegate(ex.delegContext(), req)
	ex.delegating.Add(-1)
	if derr != nil {
		if errors.Is(derr, ErrDelegateLocal) {
			return false, nil
		}
		n.setError(derr)
		state := StateFailed
		if errors.Is(derr, dgferr.ErrCancelled) {
			state = StateCancelled
		}
		n.setState(state, ex.now())
		ex.engine.record(provenance.Record{
			Actor: ex.req.User.Name, Action: "deleg.finish",
			FlowID: ex.ID, StepID: n.id, Target: f.Name,
			Outcome: provenance.OutcomeError, Err: derr.Error(),
		})
		return true, derr
	}
	if resp.RemoteID != "" || resp.Status != nil {
		st := resp.Status
		if st == nil {
			st = &dgl.FlowStatus{}
		}
		n.graftRemote(resp.RemoteID, st)
	}
	peer := provenance.Attr{Key: "peer", Value: resp.Peer}
	remote := provenance.Attr{Key: "remote", Value: resp.RemoteID}
	if resp.Err != nil {
		n.setError(resp.Err)
		n.setState(StateFailed, ex.now())
		ex.engine.record(provenance.Record{
			Actor: ex.req.User.Name, Action: "deleg.finish",
			FlowID: ex.ID, StepID: n.id, Target: f.Name,
			Outcome: provenance.OutcomeError, Err: resp.Err.Error(),
		}, peer, remote)
		return true, resp.Err
	}
	n.setState(StateSucceeded, ex.now())
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "deleg.finish",
		FlowID: ex.ID, StepID: n.id, Target: f.Name,
	}, peer, remote)
	_ = ex.engine.storeAppend(store.Record{
		Type: store.TypeDelegDone, ID: ex.ID, Node: rel, Peer: resp.Peer,
	})
	ex.noteProgress()
	return true, nil
}

// delegateProcedure offers a stored-procedure invocation to the
// federation. handled=false means run it locally: no delegator, the
// procedure is unknown here (the local path reports that properly), or
// the federation declined.
func (e *Engine) delegateProcedure(c *OpContext, name string, args map[string]string) (remoteID string, err error, handled bool) {
	d := e.delegator()
	if d == nil {
		return "", nil, false
	}
	e.mu.RLock()
	p, ok := e.procs[name]
	e.mu.RUnlock()
	if !ok {
		return "", nil, false
	}
	body := p.Flow // a copy: the variable block below is this call's
	declared := make(map[string]bool, len(body.Variables))
	for _, v := range body.Variables {
		declared[v.Name] = true
	}
	vars := append([]dgl.Variable(nil), body.Variables...)
	names := make([]string, 0, len(args))
	for k := range args {
		if !declared[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		vars = append(vars, dgl.Variable{Name: k, Value: args[k]})
	}
	body.Variables = vars
	ctx := context.Background()
	token := ""
	if ex, ok := e.Execution(c.ExecID); ok {
		if r := ex.live.Load(); r != nil {
			ctx = r.delegContext()
			token = r.req.Token
		}
	}
	resp, derr := d.Delegate(ctx, DelegateRequest{
		User:       c.User,
		Token:      token,
		Flow:       body,
		Hint:       resourceHint(&body),
		ParentExec: c.ExecID,
		ParentNode: c.NodeID,
	})
	if derr != nil {
		if errors.Is(derr, ErrDelegateLocal) {
			return "", nil, false
		}
		return "", derr, true
	}
	if resp.Err != nil {
		return resp.RemoteID, fmt.Errorf("matrix: procedure %s (%s): %w", name, resp.RemoteID, resp.Err), true
	}
	return resp.RemoteID, nil, true
}
