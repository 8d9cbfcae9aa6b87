package matrix

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/store"
)

// State is the lifecycle state of a flow or step node.
type State string

// Node states. Terminal states are Succeeded, Failed, Cancelled and
// Skipped (skipped nodes count as successful for control flow — they are
// produced by switch fall-through and by restart's checkpoint skipping).
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateSkipped   State = "skipped"
)

// Control errors. Each wraps its dgferr class so callers can match
// against the public taxonomy.
var (
	// ErrCancelled aborts a run when Cancel is called.
	ErrCancelled = dgferr.Mark(dgferr.ErrCancelled, "matrix: execution cancelled")
	// ErrNotFound reports an unknown execution or node id.
	ErrNotFound = dgferr.Mark(dgferr.ErrNotFound, "matrix: id not found")
	// ErrNotRestartable reports a Restart of a non-terminal execution.
	ErrNotRestartable = dgferr.Mark(dgferr.ErrInvalid, "matrix: execution not restartable")
)

// node is one element of an execution's dynamic status tree. Loop
// iterations add children at run time, so the tree can be much larger
// than the static flow document.
type node struct {
	id       string
	name     string
	kind     string // "flow" or "step"
	mu       sync.Mutex
	state    State
	err      string
	started  time.Time
	finished time.Time
	children []*node
	// remote is the remote execution id when this subtree was delegated
	// to another peer ("peerB:dgf-000042"). The node keeps its local id;
	// grafted children carry their remote ids, which the peer layer can
	// resolve from anywhere via status forwarding.
	remote string
}

func (n *node) setState(s State, at time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state = s
	switch s {
	case StateRunning:
		if n.started.IsZero() {
			n.started = at
		}
	case StateSucceeded, StateFailed, StateCancelled, StateSkipped:
		n.finished = at
	}
}

func (n *node) setError(err error) {
	n.mu.Lock()
	n.err = err.Error()
	n.mu.Unlock()
}

func (n *node) addChild(c *node) {
	n.mu.Lock()
	n.children = append(n.children, c)
	n.mu.Unlock()
}

// kids snapshots the children slice. Children are only ever appended
// (or, by a graft or a loop's set-up, replaced wholesale), so the
// elements a snapshot covers never change and it can be read without
// the lock — no copy.
func (n *node) kids() []*node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.children
}

// find locates the node with the given id in the subtree. A node's id
// extends its parent's — by "/name" or, for a loop iteration, "[i]" —
// so only children whose id leads to the one sought are entered.
// (Grafted remote children carry another execution's ids and are never
// on the way to an id of this one.)
func (n *node) find(id string) (*node, bool) {
	if n.id == id {
		return n, true
	}
	for _, c := range n.kids() {
		if !strings.HasPrefix(id, c.id) {
			continue
		}
		if rest := id[len(c.id):]; rest == "" || rest[0] == '/' || rest[0] == '[' {
			if found, ok := c.find(id); ok {
				return found, true
			}
		}
	}
	return nil, false
}

// stateNow reads the node's state.
func (n *node) stateNow() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// walk streams the subtree into sink as a status tree (detail=false
// trims children): each node's fields are read under its lock, its
// times left for the sink to render.
func (n *node) walk(detail bool, sink dgl.StatusSink) {
	n.mu.Lock()
	sn := n.fields()
	kids := n.children
	n.mu.Unlock()
	sink.Open(sn)
	if detail {
		for _, c := range kids {
			c.walk(true, sink)
		}
	}
	sink.Close()
}

// walkEnded is walk, with children, of a tree whose run is over: no
// writer is left, so the fields are read without the locks, which
// readers only share.
func (n *node) walkEnded(sink dgl.StatusSink) {
	sink.Open(n.fields())
	for _, c := range n.children {
		c.walkEnded(sink)
	}
	sink.Close()
}

// fields returns the node's own fields, its times left for a sink to
// render.
func (n *node) fields() dgl.StatusNode {
	return dgl.StatusNode{
		ID: n.id, Name: n.name, Kind: n.kind, State: string(n.state),
		Started: dgl.StatusTime{Time: n.started}, Finished: dgl.StatusTime{Time: n.finished},
		Delegated: n.remote, Error: n.err,
	}
}

// builders holds the FlowStatus builders snapshots and Engine.Submit's
// responses are made with: a sink is reached through an interface, so
// one made per call would be a heap object three times the size of what
// the call returns.
var builders = sync.Pool{New: func() any { return new(dgl.StatusBuilder) }}

// snapshot builds the status tree walk writes as a DGL FlowStatus.
func snapshot(walk func(dgl.StatusSink)) dgl.FlowStatus {
	b := builders.Get().(*dgl.StatusBuilder)
	walk(b)
	st := b.Status()
	*b = dgl.StatusBuilder{} // keep nothing of the tree it built
	builders.Put(b)
	return st
}

// doneSink gathers, from a status walk, the ids of terminally
// successful step nodes — the checkpoint set Restart and snapshots
// carry. A delegated subtree is one unit: its node id joins the set when
// the remote run succeeded, and its grafted children (which carry
// remote ids from another peer's id space) are passed over.
type doneSink struct {
	ids    map[string]bool
	inside []bool // per open node: within a delegated subtree
}

// Open implements dgl.StatusSink.
func (s *doneSink) Open(n dgl.StatusNode) {
	within := len(s.inside) > 0 && s.inside[len(s.inside)-1]
	s.inside = append(s.inside, within || n.Delegated != "")
	if within {
		return
	}
	ok := n.State == string(StateSucceeded) || n.State == string(StateSkipped)
	if ok && (n.Delegated != "" || n.Kind == "step") {
		s.ids[strings.Clone(n.ID)] = true // valid only until Close
	}
}

// Close implements dgl.StatusSink.
func (s *doneSink) Close() { s.inside = s.inside[:len(s.inside)-1] }

// graftRemote marks the node as delegated to remoteID and replaces its
// children with the remote status tree's children — remote ids intact,
// so any step in the delegated run stays resolvable through the peer
// network's status forwarding.
func (n *node) graftRemote(remoteID string, st *dgl.FlowStatus) {
	var kids []*node
	for i := range st.Children {
		kids = append(kids, nodeFromStatus(&st.Children[i]))
	}
	n.mu.Lock()
	n.remote = remoteID
	n.children = kids
	n.mu.Unlock()
}

// nodeFromStatus rebuilds a status subtree (from a remote peer's XML)
// as local nodes, preserving the remote ids.
func nodeFromStatus(st *dgl.FlowStatus) *node {
	n := &node{
		id:     st.ID,
		name:   st.Name,
		kind:   st.Kind,
		state:  State(st.State),
		err:    st.Error,
		remote: st.Delegated,
	}
	if t, err := time.Parse(time.RFC3339Nano, st.Started); err == nil {
		n.started = t
	}
	if t, err := time.Parse(time.RFC3339Nano, st.Finished); err == nil {
		n.finished = t
	}
	for i := range st.Children {
		n.children = append(n.children, nodeFromStatus(&st.Children[i]))
	}
	return n
}

// ctrlState is the run-control state of an execution.
type ctrlState int

const (
	ctrlRunning ctrlState = iota
	ctrlPaused
	ctrlCancelled
)

// control coordinates pause/resume/cancel across the goroutines of one
// execution. checkpoint() is called between units of work: it blocks
// while paused and returns ErrCancelled once cancelled. done is closed
// on cancellation so blocking operations (a real-clock sleep, most
// importantly) can select on it and unwind promptly — the mechanism
// passivation uses to release a flow sleeping for months.
type control struct {
	mu    sync.Mutex
	cond  sync.Cond
	state ctrlState
	done  chan struct{}
}

// init readies a zero control — the one embedded in its Execution.
func (c *control) init() {
	c.cond.L = &c.mu
	c.done = make(chan struct{})
}

// cancelled returns a channel closed once the execution is cancelled.
func (c *control) cancelled() <-chan struct{} { return c.done }

func (c *control) checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.state == ctrlPaused {
		c.cond.Wait()
	}
	if c.state == ctrlCancelled {
		return ErrCancelled
	}
	return nil
}

func (c *control) pause() {
	c.mu.Lock()
	if c.state == ctrlRunning {
		c.state = ctrlPaused
	}
	c.mu.Unlock()
}

func (c *control) resume() {
	c.mu.Lock()
	if c.state == ctrlPaused {
		c.state = ctrlRunning
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *control) cancel() {
	c.mu.Lock()
	if c.state != ctrlCancelled {
		c.state = ctrlCancelled
		close(c.done)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *control) paused() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state == ctrlPaused
}

// Execution is one run of a DGL request on the engine: the small header
// the engine's table and every caller hold. While the flow runs, live
// points at its run state. At the terminal transition the run's status
// tree, its final root variables and — when the flow did not succeed,
// so Restart may run it again — its request are encoded into one
// pointer-free record, and the run state is released: an ended flow
// keeps its answer, not its run (DESIGN.md, "What an ended flow keeps").
// Every method answers the same before and after.
type Execution struct {
	// ID is the unique request identifier returned in acknowledgements.
	ID string

	user string // the grid user, interned by the engine
	done chan struct{}
	// err is the final error, nil on success; set before done closes.
	err error
	// ended is the record (codec.MsgEnded) of a run that is over, set
	// before live is cleared and read in place.
	ended string
	live  atomic.Pointer[execRun]
}

// execRun is an execution's run state: everything its run reads and
// writes, dropped whole when the run is over.
type execRun struct {
	*Execution

	engine *Engine
	req    *dgl.Request
	// plan is req.Flow lowered for the interpreter (plan.go).
	plan *plan
	// root, ctrl and scope — the status tree's root, run control and the
	// root variable scope — live in the run state itself: one allocation
	// builds them all.
	root  node
	ctrl  control
	scope Scope

	// skip holds the node paths that succeeded in a prior run (restart,
	// recovery, resurrection), sorted: a step whose path it holds is
	// skipped.
	skip []string

	// delegCtx scopes the execution's outbound delegations: made on the
	// first one (delegContext), cancelled by Cancel and when the run
	// finishes, so remote subflows are released when the parent stops
	// waiting for them. Guarded by mu.
	mu          sync.Mutex
	delegCtx    context.Context
	delegCancel context.CancelFunc
	delegDone   bool // cancelled: a context made from now on starts so

	// passivated marks an execution being evicted to the flow-state
	// store (Engine.Passivate): the run goroutine unwinds through the
	// cancellation path but must not record a terminal state.
	passivated atomic.Bool
	// governed marks an execution whose admission was charged to the
	// flow governor (docs/TENANCY.md); the run goroutine's unwind owes
	// exactly one EndFlow for it.
	governed atomic.Bool
	// dirty is set on step progress and cleared by snapshots, so
	// SnapshotAll skips executions with nothing new to capture.
	dirty atomic.Bool
	// lastActive is the UnixNano of the last step completion (engine
	// clock) — the idleness signal PassivateIdle consults.
	lastActive atomic.Int64
	// delegating counts in-flight outbound delegations; PassivateIdle
	// leaves such executions alone (a peer is working for them).
	delegating atomic.Int64
	// started is the ticket of the exec.start writeStart wrote: run
	// waits on it (awaitStart), and an async acknowledgement for its
	// fsync.
	started store.Ticket
	// restoreVars holds root-scope variables from a store snapshot,
	// re-declared over the flow's variable block when the run starts.
	restoreVars map[string]string

	// slab holds the parameters bind renders from more than one piece,
	// its first chunk sized by the plan. slabMu guards it: the
	// iterations of a parallel forEach bind at once.
	slabMu sync.Mutex
	slab   codec.Arena
}

// skipped reports whether the node at path rel succeeded in a prior run.
func (ex *execRun) skipped(rel string) bool {
	_, ok := slices.BinarySearch(ex.skip, rel)
	return ok
}

// delegContext returns the context the execution's delegations run
// under, making it on the first: most executions never delegate, and
// this way pay nothing for it.
func (ex *execRun) delegContext() context.Context {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.delegCtx == nil {
		ex.delegCtx, ex.delegCancel = context.WithCancel(context.Background())
		if ex.delegDone {
			ex.delegCancel()
		}
	}
	return ex.delegCtx
}

// cancelDelegations releases the execution's delegations, those in
// flight and any yet to start.
func (ex *execRun) cancelDelegations() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.delegDone = true
	if ex.delegCancel != nil {
		ex.delegCancel()
	}
}

// end is the run's last act, at the terminal transition or at the end
// of a passivated run's unwind: the status tree, the root variables and
// — for a flow that failed or was cancelled — the request become the
// execution's record, the run state is let go and done closes.
func (ex *execRun) end() {
	e := ex.engine
	if e.ending != nil {
		e.ending(ex)
	}
	e.records.mu.Lock()
	ex.ended = e.records.encode(ex)
	e.records.mu.Unlock()
	ex.live.Store(nil)
	close(ex.done)
}

// recordChunk is the size of the chunks ended records are cut from: a
// record of up to an eighth of it — a flow of a few steps, even with a
// kilobyte of variables — costs no allocation of its own.
const recordChunk = 16 << 10

// endedRecords is where an engine makes its ended executions' records:
// one encoder and writer, never given back to a pool a collection
// empties, and the arena the records are cut from.
type endedRecords struct {
	mu    sync.Mutex
	enc   codec.Encoder
	w     codec.EndedWriter
	arena codec.Arena
}

// encode makes the record of ex, whose run is over, and cuts it from
// the arena. Caller holds mu.
func (r *endedRecords) encode(ex *execRun) string {
	r.enc.Reset()
	r.w.Begin(&r.enc)
	ex.root.walkEnded(&r.w)
	var val [256]byte // a value rendered here, not into a string of its own
	ex.scope.mu.RLock()
	for _, b := range ex.scope.vars {
		r.w.Var(b.name, b.val.AppendTo(val[:0]))
	}
	ex.scope.mu.RUnlock()
	if ex.err != nil && !ex.passivated.Load() {
		r.w.Request(ex.req)
	}
	return r.arena.Cut(r.enc.Bytes())
}

// Done returns a channel closed when the execution reaches a terminal
// state.
func (e *Execution) Done() <-chan struct{} { return e.done }

// Wait blocks until the execution finishes and returns its final error.
func (e *Execution) Wait() error {
	<-e.done
	return e.err
}

// WaitContext blocks until the execution finishes or the context is
// done. On cancellation it returns promptly with the context's error
// (wrapped with dgferr.ErrCancelled); the execution itself keeps
// running — call Cancel to stop it too.
func (e *Execution) WaitContext(ctx context.Context) error {
	select {
	case <-e.done:
		return e.err
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", dgferr.ErrCancelled, ctx.Err())
	}
}

// Settle waits for the execution to finish and returns its final error,
// as WaitContext does. When ctx ends first it cancels the run and gives
// it at most grace to unwind before returning; the caller tells that
// case apart by ctx.Err().
func (e *Execution) Settle(ctx context.Context, grace time.Duration) error {
	err := e.WaitContext(ctx)
	if ctx.Err() != nil {
		e.Cancel()
		select {
		case <-e.done:
		case <-time.After(grace):
		}
	}
	return err
}

// Err returns the final error if the execution has finished.
func (e *Execution) Err() error {
	select {
	case <-e.done:
		return e.err
	default:
		return nil
	}
}

// Status snapshots the execution's status tree.
func (e *Execution) Status(detail bool) dgl.FlowStatus {
	return snapshot(func(sink dgl.StatusSink) { e.WalkStatus(detail, sink) })
}

// WalkStatus writes the execution's status tree into sink, as
// Engine.WalkStatus does for its id: from the run's tree while it runs,
// from its record once it is over.
func (e *Execution) WalkStatus(detail bool, sink dgl.StatusSink) {
	if r := e.live.Load(); r != nil {
		r.root.walk(detail, sink)
		return
	}
	_, _ = codec.WalkEnded(e.ended, "", detail, sink)
}

// User returns the grid user the execution runs as: on a tenancy
// server, the tenant its submission was accounted to.
func (e *Execution) User() string { return e.user }

// Pause suspends the execution at the next checkpoint (between steps and
// loop iterations). Pausing a terminal execution is a no-op.
func (e *Execution) Pause() {
	if r := e.live.Load(); r != nil {
		r.ctrl.pause()
	}
}

// Resume continues a paused execution.
func (e *Execution) Resume() {
	if r := e.live.Load(); r != nil {
		r.ctrl.resume()
	}
}

// Cancel stops the execution; in-flight steps finish, pending work is
// abandoned (delegated subflows are released via their context), and
// Wait returns ErrCancelled.
func (e *Execution) Cancel() {
	if r := e.live.Load(); r != nil {
		r.ctrl.cancel()
		r.cancelDelegations()
	}
}

// Paused reports whether the execution is currently paused.
func (e *Execution) Paused() bool {
	r := e.live.Load()
	return r != nil && r.ctrl.paused()
}

// Vars snapshots the root variable scope.
func (e *Execution) Vars() map[string]string {
	if r := e.live.Load(); r != nil {
		return r.scope.Snapshot()
	}
	vars, _ := codec.EndedVars(e.ended)
	return vars
}
