package matrix

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/expr"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/vdata"
)

// OpContext is handed to operation handlers: the step's parameters, the
// variable scope, identity and infrastructure handles. Parameters are
// read through the accessors — Param, ParamOr and Lookup give the value
// after $variable interpolation, RawParam the text as the document has
// it, EvalParam the value of an expression-valued parameter — which
// resolve against the plan's ordered slots; no per-step map exists.
type OpContext struct {
	// Engine executing the step.
	Engine *Engine
	// Grid is the DGMS the engine fronts.
	Grid *dgms.Grid
	// User is the submitting grid user (operations run as this user).
	User string
	// Scope is the live variable environment (handlers may Set results).
	Scope *Scope
	// ExecID and NodeID locate the step for provenance.
	ExecID, NodeID string
	// Cancel is closed when the execution is cancelled (or passivated,
	// which unwinds through cancellation). Blocking handlers — the
	// real-clock sleep above all — select on it to return promptly
	// with ErrCancelled instead of pinning a goroutine for the wait.
	Cancel <-chan struct{}

	// op is the planned operation; vals[i] is op.slots[i] rendered against
	// Scope when the step was bound. The usual handful of parameters
	// lives in inline, so binding allocates nothing beside the context —
	// itself a slot of its region's slab (plan.go) on a step's first
	// attempt, and from then on the handler's to keep.
	op     *planOp
	vals   []string
	inline [4]string
}

// Lookup returns a parameter after $variable interpolation and whether
// the step sets it at all (it may be set and empty).
func (c *OpContext) Lookup(name string) (string, bool) {
	for i := range c.vals {
		if c.op.slots[i].name == name {
			return c.vals[i], true
		}
	}
	return "", false
}

// Param returns a required parameter or an error naming it.
func (c *OpContext) Param(name string) (string, error) {
	v, _ := c.Lookup(name)
	if v == "" {
		return "", fmt.Errorf("matrix: operation missing parameter %q", name)
	}
	return v, nil
}

// ParamOr returns an optional parameter with a default.
func (c *OpContext) ParamOr(name, def string) string {
	if v, _ := c.Lookup(name); v != "" {
		return v
	}
	return def
}

// RawParam returns a parameter as the document has it, before
// interpolation, and whether the step sets it.
func (c *OpContext) RawParam(name string) (string, bool) {
	if s := c.op.slot(name); s != nil {
		return s.value.Src(), true
	}
	return "", false
}

// EachParam calls fn with every parameter, interpolated, in document
// order.
func (c *OpContext) EachParam(fn func(name, value string)) {
	for i, v := range c.vals {
		fn(c.op.slots[i].name, v)
	}
}

// EvalParam evaluates an expression-valued parameter (setVariable's
// "expr") in the scope; set is false when the step has no such
// parameter. The expression is the parameter's raw text — the evaluator
// resolves $variables itself, and pre-interpolating would corrupt
// string-valued variables — parsed once however often the step runs.
func (c *OpContext) EvalParam(name string) (v expr.Value, set bool, err error) {
	s := c.op.slot(name)
	if s == nil {
		return expr.Null, false, nil
	}
	v, err = s.asExpr().eval(c.Scope)
	return v, true, err
}

// OpHandler executes one operation type.
type OpHandler func(*OpContext) error

// Config tunes an Engine.
type Config struct {
	// MaxParallel bounds concurrently running children of parallel flows
	// (per flow). Default 16.
	MaxParallel int
	// MaxLoopIterations guards against runaway while loops. Default 1e6.
	MaxLoopIterations int
	// IDPrefix is prepended to execution ids ("matrixA:dgf-000001"),
	// letting peers in a datagridflow network route status queries to
	// the server that owns an execution.
	IDPrefix string
}

// Engine is the DfMS server core: it services DGL requests against one
// grid, synchronously or asynchronously, and tracks every execution.
type Engine struct {
	grid *dgms.Grid
	cfg  Config

	nextExec atomic.Int64

	mu       sync.RWMutex
	execs    map[string]*Execution
	handlers map[string]OpHandler
	known    map[string]bool // handlers' keys; see RegisterOp
	procs    map[string]*storedProc
	journal  *Journal
	store    *store.Store
	deleg    Delegator
	// ownCheck, when set (SetOwnershipCheck), vets flow submissions
	// against shard ownership before an execution is created.
	ownCheck func(req *dgl.Request) error
	// governor, when set (SetGovernor), meters per-tenant flow
	// admission and store footprint (docs/TENANCY.md).
	governor FlowGovernor
	// vcat/vremote, when set (SetVdata, SetVdataRemote), memoize pure
	// steps through the virtual-data catalog (docs/VDATA.md).
	vcat    *vdata.Catalog
	vremote VdataRemote
	vlocate VdataLocator
}

// NewEngine creates an engine over the grid with default configuration.
func NewEngine(grid *dgms.Grid) *Engine {
	return NewEngineConfig(grid, Config{})
}

// NewEngineConfig creates an engine with explicit configuration.
func NewEngineConfig(grid *dgms.Grid, cfg Config) *Engine {
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = 16
	}
	if cfg.MaxLoopIterations <= 0 {
		cfg.MaxLoopIterations = 1_000_000
	}
	e := &Engine{
		grid:     grid,
		cfg:      cfg,
		execs:    make(map[string]*Execution),
		handlers: make(map[string]OpHandler),
		procs:    make(map[string]*storedProc),
	}
	e.registerBuiltins()
	e.registerCallOp()
	e.rebuildKnown()
	return e
}

// Grid returns the engine's DGMS.
func (e *Engine) Grid() *dgms.Grid { return e.grid }

// Clock returns the grid clock the engine stamps states with.
func (e *Engine) Clock() sim.Clock { return e.grid.Clock() }

// Obs returns the grid's observability registry — the sink for the
// engine's metrics and trace spans (see docs/METRICS.md).
func (e *Engine) Obs() *obs.Registry { return e.grid.Obs() }

// SetOwnershipCheck installs a pre-admission hook consulted on every
// flow submission, after validation and before an execution exists.
// The sharding layer uses it to refuse auto-routed flows whose shard
// this engine no longer owns (a drain can race the routing decision);
// the hook must pass pinned ("local") and unrouted submissions so
// triggers and direct engine callers are unaffected. Nil removes it.
func (e *Engine) SetOwnershipCheck(check func(req *dgl.Request) error) {
	e.mu.Lock()
	e.ownCheck = check
	e.mu.Unlock()
}

// RegisterOp adds (or replaces) a handler for an operation type — the
// extension point for domain-specific DGL operations.
func (e *Engine) RegisterOp(typ string, h OpHandler) {
	e.mu.Lock()
	e.handlers[typ] = h
	e.rebuildKnown()
	e.mu.Unlock()
}

// rebuildKnown derives the validation set from the handler table. The
// set is replaced, never edited: readers keep using the one they hold
// without a lock. Caller holds e.mu.
func (e *Engine) rebuildKnown() {
	known := make(map[string]bool, len(e.handlers))
	for t := range e.handlers {
		known[t] = true
	}
	e.known = known
}

// handler looks up the handler for an operation type.
func (e *Engine) handler(typ string) (OpHandler, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h, ok := e.handlers[typ]
	return h, ok
}

// KnownOps returns the registered operation types as a validation set —
// built-ins plus every RegisterOp extension. Components that validate DGL
// documents destined for this engine (triggers, ILM policies, the wire
// server) pass it to dgl.ValidateFlow. The map is the caller's own copy.
func (e *Engine) KnownOps() map[string]bool {
	known := e.knownOps()
	out := make(map[string]bool, len(known))
	for t := range known {
		out[t] = true
	}
	return out
}

// knownOps returns the engine's validation set as of the last
// RegisterOp. It is shared and must not be modified.
func (e *Engine) knownOps() map[string]bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.known
}

// Submit services a DGL request. Flow requests validate, then run either
// synchronously (response carries the final status tree) or, when
// req.Async is set, in the background (response carries an
// acknowledgement with the execution id). FlowStatusQuery requests return
// the current status of the identified flow, step or request.
func (e *Engine) Submit(req *dgl.Request) (*dgl.Response, error) {
	if req.StatusQuery != nil {
		if req.Flow != nil {
			return nil, fmt.Errorf("%w: request has both flow and status query", dgl.ErrInvalid)
		}
		st, err := e.Status(req.StatusQuery.ID, req.StatusQuery.Detail)
		if err != nil {
			return &dgl.Response{Error: dgferr.Encode(err)}, nil
		}
		return &dgl.Response{Status: &st}, nil
	}
	if req.Flow == nil {
		return nil, fmt.Errorf("%w: empty request", dgl.ErrInvalid)
	}
	if req.User.Name == "" {
		return nil, fmt.Errorf("%w: gridUser.name required", dgl.ErrInvalid)
	}
	if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
		return nil, err
	}
	e.mu.RLock()
	check := e.ownCheck
	e.mu.RUnlock()
	if check != nil {
		if err := check(req); err != nil {
			return nil, err
		}
	}
	governed, err := e.admitGoverned(req.User.Name)
	if err != nil {
		return nil, err
	}
	exec := e.newExecution(req, nil, nil)
	exec.governed.Store(governed)
	if req.Async {
		go exec.run()
		return &dgl.Response{Ack: &dgl.Ack{
			ID:     exec.ID,
			Status: string(StatePending),
			Valid:  true,
		}}, nil
	}
	exec.run()
	st := exec.Status(true)
	resp := &dgl.Response{Status: &st}
	if err := exec.Err(); err != nil {
		// Encode the error class so wire clients rebuild a typed error
		// (docs/WIRE.md, "Typed errors").
		resp.Error = dgferr.Encode(err)
	}
	return resp, nil
}

// SubmitBatch services N DGL requests in one call, answering each item
// independently: a validation failure in one request becomes that
// item's error response and never aborts its neighbours. The returned
// slice is positional (len(reqs) responses). Batched submission is the
// engine-side half of the wire layer's KindBatch frame — N flows cross
// the network and enter the engine for the price of one round trip.
func (e *Engine) SubmitBatch(reqs []*dgl.Request) []*dgl.Response {
	out := make([]*dgl.Response, len(reqs))
	for i, req := range reqs {
		if req == nil {
			out[i] = &dgl.Response{Error: dgferr.Encode(
				fmt.Errorf("%w: empty batch item", dgl.ErrInvalid))}
			continue
		}
		resp, err := e.Submit(req)
		if err != nil {
			resp = &dgl.Response{Error: dgferr.Encode(err)}
		}
		out[i] = resp
	}
	return out
}

// Start validates and launches a flow asynchronously, returning the
// Execution handle. It is the programmatic twin of an async Submit.
func (e *Engine) Start(user string, flow dgl.Flow) (*Execution, error) {
	req := dgl.NewAsyncRequest(user, "", flow)
	if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
		return nil, err
	}
	governed, err := e.admitGoverned(user)
	if err != nil {
		return nil, err
	}
	exec := e.newExecution(req, nil, nil)
	exec.governed.Store(governed)
	go exec.run()
	return exec, nil
}

// Run validates and executes a flow synchronously, returning the
// Execution after it reaches a terminal state.
func (e *Engine) Run(user string, flow dgl.Flow) (*Execution, error) {
	return e.RunContext(context.Background(), user, flow)
}

// RunContext is Run under a context: when ctx is done before the flow
// finishes, the execution is cancelled (it stops at its next
// checkpoint, like Execution.Cancel) and RunContext returns it once
// terminal, with Err reporting ErrCancelled. Validation errors are
// returned directly.
func (e *Engine) RunContext(ctx context.Context, user string, flow dgl.Flow) (*Execution, error) {
	req := dgl.NewRequest(user, "", flow)
	if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
		return nil, err
	}
	governed, err := e.admitGoverned(user)
	if err != nil {
		return nil, err
	}
	exec := e.newExecution(req, nil, nil)
	exec.governed.Store(governed)
	go exec.run()
	select {
	case <-exec.done:
	case <-ctx.Done():
		exec.Cancel()
		<-exec.done
	}
	return exec, nil
}

// Restart re-runs a terminal (failed or cancelled) execution, skipping
// every step that already succeeded — the paper's "started, stopped and
// restarted at any time" requirement. It returns the new execution,
// started asynchronously.
func (e *Engine) Restart(execID string) (*Execution, error) {
	e.mu.RLock()
	prior, ok := e.execs[execID]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: execution %s", ErrNotFound, execID)
	}
	select {
	case <-prior.done:
	default:
		return nil, fmt.Errorf("%w: %s still running", ErrNotRestartable, execID)
	}
	if prior.Err() == nil {
		return nil, fmt.Errorf("%w: %s already succeeded", ErrNotRestartable, execID)
	}
	skip := make(map[string]bool)
	prior.root.collectSucceeded(skip)
	governed, err := e.admitGoverned(prior.req.User.Name)
	if err != nil {
		return nil, err
	}
	// Checkpoint ids are recorded relative to the prior execution id;
	// rewrite them for the new execution in newExecution.
	next := e.newExecution(prior.req, skip, nil)
	next.governed.Store(governed)
	e.Obs().Counter("matrix_flows_restarted_total").Inc()
	go next.run()
	return next, nil
}

// RestartFromProvenance re-runs a request whose prior execution is known
// only through the provenance store — the cross-process variant of
// Restart. After a server crash or planned restart, a new engine (even
// in a new process, with a file-backed provenance store) rebuilds the
// checkpoint set from the prior execution's step.finish/step.skip
// records and resumes, skipping completed steps. This is the paper's
// "provenance information ... at any time even (years) after the
// execution" put to operational use.
//
// The caller supplies the original request document (DGL documents are
// durable artifacts; the engine deliberately does not persist them).
func (e *Engine) RestartFromProvenance(priorExecID string, req *dgl.Request) (*Execution, error) {
	if req == nil || req.Flow == nil {
		return nil, fmt.Errorf("%w: request with a flow required", dgl.ErrInvalid)
	}
	if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
		return nil, err
	}
	skip := make(map[string]bool)
	for _, rec := range e.grid.Provenance().Query(provenance.Filter{FlowID: priorExecID}) {
		switch {
		case rec.Action == "step.finish" && rec.Outcome == provenance.OutcomeOK:
			skip[rec.StepID] = true
		case rec.Action == "step.skip":
			skip[rec.StepID] = true
		}
	}
	if len(skip) == 0 {
		// Nothing recorded: still a valid (full) re-run, but flag a
		// missing prior id loudly since it usually means a typo.
		if e.grid.Provenance().Count(provenance.Filter{FlowID: priorExecID}) == 0 {
			return nil, fmt.Errorf("%w: no provenance for execution %s", ErrNotFound, priorExecID)
		}
	}
	governed, err := e.admitGoverned(req.User.Name)
	if err != nil {
		return nil, err
	}
	next := e.newExecution(req, skip, nil)
	next.governed.Store(governed)
	e.Obs().Counter("matrix_flows_restarted_total").Inc()
	go next.run()
	return next, nil
}

// Execution returns a tracked execution by id.
func (e *Engine) Execution(id string) (*Execution, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ex, ok := e.execs[id]
	return ex, ok
}

// Executions lists tracked execution ids, sorted.
func (e *Engine) Executions() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.execs))
	for id := range e.execs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ExecutionSummary is one row of a server-side execution listing.
type ExecutionSummary struct {
	ID    string
	Name  string
	State State
	User  string
}

// ListExecutions summarizes every tracked execution, sorted by id.
func (e *Engine) ListExecutions() []ExecutionSummary {
	e.mu.RLock()
	execs := make([]*Execution, 0, len(e.execs))
	for _, ex := range e.execs {
		execs = append(execs, ex)
	}
	e.mu.RUnlock()
	out := make([]ExecutionSummary, 0, len(execs))
	for _, ex := range execs {
		out = append(out, ExecutionSummary{
			ID: ex.ID, Name: ex.req.Flow.Name, State: ex.root.stateNow(), User: ex.req.User.Name,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Prune forgets terminal executions, keeping at most `keep` of the most
// recent ones (by id order, which is creation order). A long-running
// DfMS server calls this periodically so completed flows do not
// accumulate without bound — their durable record lives in provenance,
// not in engine memory. It returns the number of executions dropped.
// Running or paused executions are never pruned.
func (e *Engine) Prune(keep int) int {
	if keep < 0 {
		keep = 0
	}
	e.mu.Lock()
	var terminal []string
	for id, ex := range e.execs {
		select {
		case <-ex.done:
			terminal = append(terminal, id)
		default:
		}
	}
	sort.Strings(terminal)
	if len(terminal) <= keep {
		e.mu.Unlock()
		return 0
	}
	drop := terminal[:len(terminal)-keep]
	for _, id := range drop {
		delete(e.execs, id)
	}
	st := e.store
	n := len(e.execs)
	e.mu.Unlock()
	if st != nil {
		// Tombstone the pruned ids so compaction reclaims their records
		// and recovery can never resurrect them — without this, pruned
		// flows would live on disk forever (and a torn exec.end line
		// could even bring one back). One batch, one sync: a torn batch
		// loses the tombstones of its tail and of no other flow. Their
		// executions are no longer resident, so nothing is charged.
		now := e.Clock().Now()
		recs := make([]store.Record, len(drop))
		for i, id := range drop {
			recs[i] = journalRecord{Type: journalExecPrune, ID: id, Time: now}
		}
		if err := st.AppendBatch(recs); err != nil {
			e.Obs().Counter("store_append_errors_total").Inc()
		}
		e.Obs().Gauge("store_resident").Set(int64(n))
	}
	return len(drop)
}

// Status resolves an id — an execution id or any node id within one — to
// a status snapshot. This is the "query the status of any task in the
// workflow at any level of granularity" API.
func (e *Engine) Status(id string, detail bool) (dgl.FlowStatus, error) {
	n, err := e.statusNode(id)
	if err != nil {
		return dgl.FlowStatus{}, err
	}
	return n.snapshot(detail), nil
}

// WalkStatus is Status written into a sink instead of returned: the
// form a reply is encoded from. An id that does not resolve is reported
// before the sink sees anything.
func (e *Engine) WalkStatus(id string, detail bool, sink dgl.StatusSink) error {
	n, err := e.statusNode(id)
	if err != nil {
		return err
	}
	n.walk(detail, sink)
	return nil
}

// statusNode resolves an execution or node id to its status node.
func (e *Engine) statusNode(id string) (*node, error) {
	execID := id
	if i := indexByte(id, '/'); i >= 0 {
		execID = id[:i]
	}
	e.mu.RLock()
	exec, ok := e.execs[execID]
	e.mu.RUnlock()
	if !ok {
		// The execution may be passivated in the flow-state store:
		// status queries are a resurrection path (docs/STORE.md).
		resurrected, err := e.ResurrectFor(execID, "status")
		if err != nil {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		exec = resurrected
	}
	if execID == id {
		return exec.root, nil
	}
	n, ok := exec.root.find(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return n, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// newExecution registers a fresh execution for req. skip carries
// checkpoint ids from a prior run (already rebased to generic node
// paths). p is req.Flow's plan when the caller holds one (a stored
// procedure's, shared by its calls); nil lowers the flow here.
func (e *Engine) newExecution(req *dgl.Request, skip map[string]bool, p *plan) *Execution {
	if p == nil {
		p = buildPlan(req.Flow)
	}
	id := fmt.Sprintf("%sdgf-%06d", e.cfg.IDPrefix, e.nextExec.Add(1))
	rebased := make(map[string]bool, len(skip))
	for k := range skip {
		// Stored ids look like "dgf-000001/root/step"; keep only the
		// node path so they match the new execution's ids.
		if i := indexByte(k, '/'); i >= 0 {
			rebased[k[i:]] = true
		}
	}
	exec := &Execution{
		ID:     id,
		engine: e,
		req:    req,
		plan:   p,
		ctrl:   newControl(),
		scope:  NewScope(nil),
		skip:   rebased,
		done:   make(chan struct{}),
	}
	exec.delegCtx, exec.delegCancel = context.WithCancel(context.Background())
	exec.lastActive.Store(e.Clock().Now().UnixNano())
	exec.root = &node{
		id:    id + "/" + req.Flow.Name,
		name:  req.Flow.Name,
		kind:  "flow",
		state: StatePending,
	}
	e.mu.Lock()
	e.execs[id] = exec
	n := len(e.execs)
	st := e.store
	e.mu.Unlock()
	if st != nil {
		e.Obs().Gauge("store_resident").Set(int64(n))
	}
	return exec
}

// record writes an engine provenance record.
func (e *Engine) record(r provenance.Record) {
	r.Time = e.grid.Clock().Now()
	_, _ = e.grid.Provenance().Append(r)
}
