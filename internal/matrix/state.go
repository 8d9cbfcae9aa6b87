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

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCancelled, StateSkipped:
		return true
	}
	return false
}

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
	sn := dgl.StatusNode{
		ID: n.id, Name: n.name, Kind: n.kind, State: string(n.state),
		Started: dgl.StatusTime{Time: n.started}, Finished: dgl.StatusTime{Time: n.finished},
		Delegated: n.remote, Error: n.err,
	}
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

// builders holds the FlowStatus builders snapshots and Engine.Submit's
// responses are made with: a sink is reached through an interface, so
// one made per call would be a heap object three times the size of what
// the call returns.
var builders = sync.Pool{New: func() any { return new(dgl.StatusBuilder) }}

// snapshot builds the subtree's status as a DGL FlowStatus.
func (n *node) snapshot(detail bool) dgl.FlowStatus {
	b := builders.Get().(*dgl.StatusBuilder)
	n.walk(detail, b)
	st := b.Status()
	*b = dgl.StatusBuilder{} // keep nothing of the tree it built
	builders.Put(b)
	return st
}

// collectSucceeded gathers the ids of terminally successful step nodes —
// the checkpoint set Restart consults. A delegated subtree is one unit:
// its node id joins the set when the remote run succeeded, and its
// grafted children (which carry remote ids from another peer's id
// space) are not descended into.
func (n *node) collectSucceeded(into map[string]bool) {
	n.mu.Lock()
	state := n.state
	kind := n.kind
	remote := n.remote
	kids := n.children
	n.mu.Unlock()
	if remote != "" {
		if state == StateSucceeded || state == StateSkipped {
			into[n.id] = true
		}
		return
	}
	if kind == "step" && (state == StateSucceeded || state == StateSkipped) {
		into[n.id] = true
	}
	for _, c := range kids {
		c.collectSucceeded(into)
	}
}

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

// Execution is one run of a DGL request on the engine.
type Execution struct {
	// ID is the unique request identifier returned in acknowledgements.
	ID string

	engine *Engine
	req    *dgl.Request
	// plan is req.Flow lowered for the interpreter (plan.go). The run
	// goroutine drops it on exit; nothing outside the run reads it.
	plan *plan
	// root, ctrl and scope — the status tree's root, run control and the
	// root variable scope — live in the Execution itself: one allocation
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
	delegCtx    context.Context
	delegCancel context.CancelFunc
	delegDone   bool // cancelled: a context made from now on starts so

	done chan struct{}

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
	// restoreVars holds root-scope variables from a store snapshot,
	// re-declared over the flow's variable block when the run starts.
	restoreVars map[string]string

	// slab holds the parameters bind renders from more than one piece,
	// its first chunk sized by the plan; the run goroutine drops it on
	// exit. slabMu guards it: the iterations of a parallel forEach bind
	// at once.
	slabMu sync.Mutex
	slab   codec.Arena

	mu  sync.Mutex
	err error // final error, nil on success
}

// skipped reports whether the node at path rel succeeded in a prior run.
func (ex *Execution) skipped(rel string) bool {
	_, ok := slices.BinarySearch(ex.skip, rel)
	return ok
}

// delegContext returns the context the execution's delegations run
// under, making it on the first: most executions never delegate, and
// this way pay nothing for it.
func (ex *Execution) delegContext() context.Context {
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
func (ex *Execution) cancelDelegations() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.delegDone = true
	if ex.delegCancel != nil {
		ex.delegCancel()
	}
}

// Done returns a channel closed when the execution reaches a terminal
// state.
func (e *Execution) Done() <-chan struct{} { return e.done }

// Wait blocks until the execution finishes and returns its final error.
func (e *Execution) Wait() error {
	<-e.done
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// WaitContext blocks until the execution finishes or the context is
// done. On cancellation it returns promptly with the context's error
// (wrapped with dgferr.ErrCancelled); the execution itself keeps
// running — call Cancel to stop it too.
func (e *Execution) WaitContext(ctx context.Context) error {
	select {
	case <-e.done:
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.err
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", dgferr.ErrCancelled, ctx.Err())
	}
}

// Err returns the final error if the execution has finished.
func (e *Execution) Err() error {
	select {
	case <-e.done:
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.err
	default:
		return nil
	}
}

// Status snapshots the execution's status tree.
func (e *Execution) Status(detail bool) dgl.FlowStatus {
	return e.root.snapshot(detail)
}

// StatusOf snapshots the subtree rooted at the given node id.
func (e *Execution) StatusOf(id string, detail bool) (dgl.FlowStatus, error) {
	n, ok := e.root.find(id)
	if !ok {
		return dgl.FlowStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return n.snapshot(detail), nil
}

// User returns the grid user the execution runs as: on a tenancy
// server, the tenant its submission was accounted to.
func (e *Execution) User() string { return e.req.User.Name }

// Pause suspends the execution at the next checkpoint (between steps and
// loop iterations). Pausing a terminal execution is a no-op.
func (e *Execution) Pause() { e.ctrl.pause() }

// Resume continues a paused execution.
func (e *Execution) Resume() { e.ctrl.resume() }

// Cancel stops the execution; in-flight steps finish, pending work is
// abandoned (delegated subflows are released via their context), and
// Wait returns ErrCancelled.
func (e *Execution) Cancel() {
	e.ctrl.cancel()
	e.cancelDelegations()
}

// Paused reports whether the execution is currently paused.
func (e *Execution) Paused() bool { return e.ctrl.paused() }

// Vars snapshots the root variable scope.
func (e *Execution) Vars() map[string]string { return e.scope.Snapshot() }
