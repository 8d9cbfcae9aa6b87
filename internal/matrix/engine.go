package matrix

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/codec"
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
// after $variable interpolation, EvalParam the value of an
// expression-valued parameter — which resolve against the plan's ordered slots; no per-step map exists. A
// parameter rendered from several pieces is cut from its run's slab: the
// string never changes, but keeping it keeps its chunk alive.
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
	v, err = s.eval(c.Scope)
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

	mu    sync.RWMutex
	execs map[string]*Execution
	// heads is the block new execution headers are taken from, and users
	// the interned grid users they name: a header costs its run no
	// allocation of its own, and keeps no string of its request alive.
	heads    []Execution
	users    map[string]string
	handlers map[string]OpHandler
	known    map[string]bool // handlers' keys; see RegisterOp
	procs    map[string]*storedProc
	store    *store.Store
	deleg    Delegator
	// governor, when set (SetGovernor), meters per-tenant flow
	// admission and store footprint (docs/TENANCY.md).
	governor FlowGovernor
	// vcat/vremote, when set (SetVdata, SetVdataRemote), memoize pure
	// steps through the virtual-data catalog (docs/VDATA.md).
	vcat    *vdata.Catalog
	vremote VdataRemote
	vlocate VdataLocator
	// steps holds each operation type's per-step series (opSeries),
	// resolved in the registry once per type; skips is
	// matrix_checkpoint_skips_total, resolved at the first skip.
	steps sync.Map
	skips atomic.Pointer[obs.Counter]
	// depth is matrix_scope_depth, resolved at the first flow node.
	depth atomic.Pointer[obs.Histogram]
	// records makes the records ended executions keep (state.go).
	records endedRecords
	// ending, when set, sees each run state as its run ends, before its
	// record is made and it is let go: the window tests take the live
	// tree through, to hold a record to the tree it was encoded from.
	ending func(*execRun)
}

// headBlock is how many execution headers one allocation makes.
const headBlock = 64

// opSeries are the series every step of one operation type updates.
type opSeries struct {
	steps   *obs.Counter   // matrix_steps_total{op}
	seconds *obs.Histogram // matrix_step_seconds{op}
}

// stepSeries returns the per-step series of operation type op.
func (e *Engine) stepSeries(op string) *opSeries {
	if s, ok := e.steps.Load(op); ok {
		return s.(*opSeries)
	}
	o := e.Obs()
	s, _ := e.steps.LoadOrStore(op, &opSeries{
		steps:   o.Counter("matrix_steps_total", "op", op),
		seconds: o.Histogram("matrix_step_seconds", "op", op),
	})
	return s.(*opSeries)
}

// countSkip counts one node a restart skipped because its prior run
// finished it.
func (e *Engine) countSkip() {
	c := e.skips.Load()
	if c == nil {
		c = e.Obs().Counter("matrix_checkpoint_skips_total")
		e.skips.Store(c)
	}
	c.Inc()
}

// scopeDepthBuckets bound the matrix_scope_depth histogram in scope
// levels (not seconds): deeply nested flow documents surface here.
var scopeDepthBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// scopeDepth returns the matrix_scope_depth histogram every flow node
// observes.
func (e *Engine) scopeDepth() *obs.Histogram {
	h := e.depth.Load()
	if h == nil {
		h = e.Obs().HistogramBuckets("matrix_scope_depth", scopeDepthBuckets)
		e.depth.Store(h)
	}
	return h
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
		users:    make(map[string]string),
		handlers: make(map[string]OpHandler),
		procs:    make(map[string]*storedProc),
	}
	e.records.arena.Chunks(recordChunk)
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
// server) pass it to dgl.ValidateFlow; the engine's own entry points
// check a flow as they lower it. The map is the caller's own copy.
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
	if req.StatusQuery != nil && req.Flow == nil {
		st, err := e.Status(req.StatusQuery.ID, req.StatusQuery.Detail)
		if err != nil {
			return &dgl.Response{Error: dgferr.Encode(err)}, nil
		}
		return &dgl.Response{Status: &st}, nil
	}
	b := builders.Get().(*dgl.StatusBuilder)
	defer func() {
		*b = dgl.StatusBuilder{} // keep nothing of the reply it built
		builders.Put(b)
	}()
	id, err := e.SubmitTo(req, b)
	if id == "" {
		return nil, err
	}
	resp := b.Response()
	if err != nil {
		// Encode the error class so wire clients rebuild a typed error
		// (docs/WIRE.md, "Typed errors").
		resp.Error = dgferr.Encode(err)
	}
	return resp, nil
}

// SubmitTo services a flow request as Submit does, writing the reply's
// body into sink as it is made instead of returning a Response: an async
// submission's acknowledgement, or a sync one's final status tree,
// streamed from the execution's nodes. A wire server hands it the binary
// or XML response writer of the reply, so no FlowStatus is built and no
// time formatted into a string on the way. It returns the execution's id
// and, for a sync submission, the flow's own failure: the error the
// reply carries. A request refused before an execution exists — invalid
// or not admitted — returns "" and the reason, with nothing written to
// sink.
func (e *Engine) SubmitTo(req *dgl.Request, sink dgl.ReplySink) (id string, err error) {
	exec, err := e.prepare(req)
	if err != nil {
		return "", err
	}
	if req.Async {
		go exec.run()
		// The ack hands out an id that must survive a restart: it waits
		// for the fsync the run waits for before its first step, and for
		// no follower (store.Waits asks no quorum of exec.start).
		if err := exec.started.Sync(); err != nil {
			exec.Cancel()
			return exec.ID, errUnrecorded(err)
		}
		sink.Ack(dgl.Ack{ID: exec.ID, Status: string(StatePending), Valid: true})
		return exec.ID, nil
	}
	exec.run()
	exec.WalkStatus(true, sink)
	return exec.ID, exec.Err()
}

// Launch starts a flow request in the background whatever its Async
// flag says and returns its execution, or the reason it was refused
// before one existed, as SubmitTo does. It is for a caller that waits
// for a sync run itself and may stop waiting: the wire's peer hop, which
// cancels the run when its connection ends.
func (e *Engine) Launch(req *dgl.Request) (*Execution, error) {
	exec, err := e.prepare(req)
	if err != nil {
		return nil, err
	}
	go exec.run()
	return exec.Execution, nil
}

// prepare checks a flow request's shape — a flow, no status query, a
// grid user — and begins its execution, not yet started.
func (e *Engine) prepare(req *dgl.Request) (*execRun, error) {
	if req.StatusQuery != nil {
		return nil, fmt.Errorf("%w: request has both flow and status query", dgl.ErrInvalid)
	}
	if req.Flow == nil {
		return nil, fmt.Errorf("%w: empty request", dgl.ErrInvalid)
	}
	if req.User.Name == "" {
		return nil, fmt.Errorf("%w: gridUser.name required", dgl.ErrInvalid)
	}
	return e.begin(req, nil, nil)
}

// begin is the one way a new execution comes to exist: it lowers
// req.Flow unless the caller already has (p), admits the flow — the
// store must be able to record it and the flow governor must charge it
// — registers its execution under a fresh id, not yet started, and
// writes its exec.start (writeStart). skip carries a prior run's
// succeeded node ids. Nothing stays registered when it refuses.
func (e *Engine) begin(req *dgl.Request, p *plan, skip map[string]bool) (*execRun, error) {
	if p == nil {
		var err error
		if p, err = buildPlan(req.Flow, e.knownOps()); err != nil {
			return nil, err
		}
	}
	governed, err := e.admit(req.User.Name)
	if err != nil {
		return nil, err
	}
	exec := e.newExecution(req, skip, p)
	exec.governed.Store(governed)
	if err := exec.writeStart(); err != nil {
		exec.endGoverned()
		e.mu.Lock()
		delete(e.execs, exec.ID)
		n := len(e.execs)
		e.mu.Unlock()
		e.Obs().Gauge("store_resident").Set(int64(n))
		return nil, errUnrecorded(err)
	}
	return exec, nil
}

// errUnrecorded refuses a flow whose exec.start the store could not
// write or sync, with the class a poisoned store's refusal has.
func errUnrecorded(err error) error {
	return fmt.Errorf("%w: matrix: the flow-state store cannot record the flow: %v", dgferr.ErrResourceDown, err)
}

// Start validates and launches a flow asynchronously, returning the
// Execution handle. It is the programmatic twin of an async Submit.
func (e *Engine) Start(user string, flow dgl.Flow) (*Execution, error) {
	exec, err := e.begin(dgl.NewAsyncRequest(user, "", flow), nil, nil)
	if err != nil {
		return nil, err
	}
	go exec.run()
	return exec.Execution, nil
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
	exec, err := e.begin(dgl.NewRequest(user, "", flow), nil, nil)
	if err != nil {
		return nil, err
	}
	go exec.run()
	select {
	case <-exec.done:
	case <-ctx.Done():
		exec.Cancel()
		<-exec.done
	}
	return exec.Execution, nil
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
	// The prior run's record keeps its request (a failed or cancelled
	// flow's does) and its tree. Checkpoint ids are recorded relative to
	// the prior execution id; newExecution rewrites them for the new one.
	doc, err := codec.EndedRequest(prior.ended)
	if err != nil || doc == "" {
		return nil, fmt.Errorf("%w: %s keeps no request", ErrNotRestartable, execID)
	}
	req, err := codec.DecodeRequestDoc(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNotRestartable, execID, err)
	}
	skip := doneSink{ids: map[string]bool{}}
	if _, err := codec.WalkEnded(prior.ended, "", true, &skip); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNotRestartable, execID, err)
	}
	next, err := e.begin(req, nil, skip.ids)
	if err != nil {
		return nil, err
	}
	e.Obs().Counter("matrix_flows_restarted_total").Inc()
	go next.run()
	return next.Execution, nil
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
// durable artifacts; the engine deliberately does not persist them). An
// invalid flow is refused before a missing history is.
func (e *Engine) RestartFromProvenance(priorExecID string, req *dgl.Request) (*Execution, error) {
	if req == nil || req.Flow == nil {
		return nil, fmt.Errorf("%w: request with a flow required", dgl.ErrInvalid)
	}
	p, err := buildPlan(req.Flow, e.knownOps())
	if err != nil {
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
	next, err := e.begin(req, p, skip)
	if err != nil {
		return nil, err
	}
	e.Obs().Counter("matrix_flows_restarted_total").Inc()
	go next.run()
	return next.Execution, nil
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

// Resident counts the tracked executions — running, paused and ended —
// without listing them.
func (e *Engine) Resident() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.execs)
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
		sum := ExecutionSummary{ID: ex.ID, User: ex.user}
		if r := ex.live.Load(); r != nil {
			sum.Name, sum.State = r.root.name, r.root.stateNow()
		} else {
			root, _ := codec.EndedRoot(ex.ended)
			sum.Name, sum.State = root.Name, State(root.State)
		}
		out = append(out, sum)
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
			recs[i] = store.Record{Type: store.TypeExecPrune, ID: id, Time: now}
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
	b := builders.Get().(*dgl.StatusBuilder)
	err := e.WalkStatus(id, detail, b)
	st := b.Status()
	*b = dgl.StatusBuilder{} // keep nothing of the tree it built
	builders.Put(b)
	if err != nil {
		return dgl.FlowStatus{}, err
	}
	return st, nil
}

// WalkStatus is Status written into a sink instead of returned: the
// form a reply is encoded from. A running flow answers from its tree, an
// ended one from its record. An id that does not resolve is reported
// before the sink sees anything.
func (e *Engine) WalkStatus(id string, detail bool, sink dgl.StatusSink) error {
	execID := id
	if i := strings.IndexByte(id, '/'); i >= 0 {
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
			return fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		exec = resurrected
	}
	if r := exec.live.Load(); r != nil {
		n := &r.root
		if execID != id {
			if n, ok = r.root.find(id); !ok {
				return fmt.Errorf("%w: %s", ErrNotFound, id)
			}
		}
		n.walk(detail, sink)
		return nil
	}
	node := id
	if execID == id {
		node = "" // the root
	}
	found, err := codec.WalkEnded(exec.ended, node, detail, sink)
	if err != nil {
		return fmt.Errorf("matrix: record of %s: %w", execID, err)
	}
	if !found {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return nil
}

// newExecution registers a fresh execution of p, the plan of req.Flow,
// with no admission: begin admits it first, and a procedure call runs
// inside a flow already admitted. skip carries checkpoint ids from a
// prior run; they are rebased here to generic node paths.
func (e *Engine) newExecution(req *dgl.Request, skip map[string]bool, p *plan) *execRun {
	var rebased []string
	for k := range skip {
		// Stored ids look like "dgf-000001/root/step"; keep only the
		// node path so they match the new execution's ids.
		if i := strings.IndexByte(k, '/'); i >= 0 {
			rebased = append(rebased, k[i:])
		}
	}
	slices.Sort(rebased)
	// The id, "<prefix>dgf-000042", and the root node's, the id and
	// "/<flow>", are one string.
	prefix, name := e.cfg.IDPrefix, req.Flow.Name
	var num [20]byte
	digits := strconv.AppendInt(num[:0], e.nextExec.Add(1), 10)
	var b strings.Builder
	b.Grow(len(prefix) + len("dgf-") + max(len(digits), 6) + 1 + len(name))
	b.WriteString(prefix)
	b.WriteString("dgf-")
	for i := len(digits); i < 6; i++ {
		b.WriteByte('0')
	}
	b.Write(digits)
	idLen := b.Len()
	b.WriteByte('/')
	b.WriteString(name)
	rootID := b.String()
	exec := e.execution(rootID, req, p, slices.Compact(rebased))
	e.mu.Lock()
	e.register(exec, rootID[:idLen])
	n := len(e.execs)
	st := e.store
	e.mu.Unlock()
	if st != nil {
		e.Obs().Gauge("store_resident").Set(int64(n))
	}
	return exec
}

// execution builds the run state of an execution of req whose root
// node is rootID ("<id>/<flow>"), skipping the node paths in skip
// (sorted). Its status root, run control and root scope are part of it:
// with the control's channel and rootID that is the whole of its fixed
// cost, beside the header register gives it.
func (e *Engine) execution(rootID string, req *dgl.Request, p *plan, skip []string) *execRun {
	ex := &execRun{
		engine: e,
		req:    req,
		plan:   p,
		skip:   skip,
	}
	ex.root.id, ex.root.name, ex.root.kind, ex.root.state = rootID, req.Flow.Name, "flow", StatePending
	ex.ctrl.init()
	ex.scope.init(nil)
	ex.slab.Start(p.paramBytes)
	ex.lastActive.Store(e.Clock().Now().UnixNano())
	return ex
}

// register gives ex its header, under id and taken from the engine's
// block, and tracks it. Caller holds e.mu.
func (e *Engine) register(ex *execRun, id string) {
	if len(e.heads) == 0 {
		e.heads = make([]Execution, headBlock)
	}
	h := &e.heads[0]
	e.heads = e.heads[1:]
	name := ex.req.User.Name
	user, ok := e.users[name]
	if !ok {
		user = strings.Clone(name)
		e.users[user] = user
	}
	h.ID, h.user, h.done = id, user, make(chan struct{})
	h.live.Store(ex)
	ex.Execution = h
	e.execs[id] = h
}

// record writes an engine provenance record of the instant at.
func (e *Engine) record(at time.Time, r provenance.Record, detail ...provenance.Attr) {
	r.Time = at
	_, _ = e.grid.Provenance().Append(r, detail...)
}
