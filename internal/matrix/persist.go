package matrix

// persist.go integrates the durable flow-state store (internal/store,
// docs/STORE.md) into the engine: periodic snapshots of resumable
// state, passivation of idle executions out of engine memory, and
// transparent resurrection when something — a status query, a trigger
// firing, a wire control request, or a federated status route — needs
// a passivated flow again. With a store attached, resident memory is
// bounded by the *active* flow set and restart recovery replays
// O(snapshot + tail) records instead of the full journal history.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/provenance"
	"datagridflow/internal/store"
)

// SetStore attaches (or, with nil, detaches) the engine's flow-state
// store. The store receives every journal-type lifecycle record the
// engine writes, plus snapshots and passivation markers.
func (e *Engine) SetStore(st *store.Store) {
	if st != nil {
		st.SetObs(e.Obs())
	}
	e.mu.Lock()
	e.store = st
	n := len(e.execs)
	e.mu.Unlock()
	if st != nil {
		e.Obs().Gauge("store_resident").Set(int64(n))
	}
}

// Store returns the attached flow-state store, or nil.
func (e *Engine) Store() *store.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store
}

// storeAppend stamps and writes one record to the store only (not the
// flat journal) — snapshots and passivation markers are store
// concepts.
func (e *Engine) storeAppend(rec journalRecord) error {
	st := e.Store()
	if st == nil {
		return fmt.Errorf("matrix: no store attached: %w", dgferr.ErrInvalid)
	}
	rec.Time = e.Clock().Now()
	if err := storeRecord(st, rec); err != nil {
		e.Obs().Counter("store_append_errors_total").Inc()
		return err
	}
	e.chargeRecord(&rec)
	return nil
}

// snapshotRecord captures the execution's resumable state as one
// self-contained exec.snap record: the request document, the root
// scope's variables, and every node path proven complete — succeeded
// and skipped steps, whole delegated subtrees, plus the not-yet-reached
// checkpoint set a restart or resurrection seeded this run with.
func (ex *Execution) snapshotRecord() journalRecord {
	abs := make(map[string]bool)
	ex.root.collectSucceeded(abs)
	done := make(map[string]bool, len(abs)+len(ex.skip))
	for id := range abs {
		done[ex.relID(id)] = true
	}
	for rel := range ex.skip {
		done[rel] = true
	}
	rel := make([]string, 0, len(done))
	for r := range done {
		rel = append(rel, r)
	}
	return journalRecord{
		Type: journalExecSnap, ID: ex.ID,
		Request: codec.RequestDoc(ex.req),
		Vars:    ex.scope.Snapshot(),
		Done:    rel,
		Paused:  ex.Paused(),
	}
}

// SnapshotExecution writes a snapshot of one resident execution to the
// store.
func (e *Engine) SnapshotExecution(id string) error {
	ex, ok := e.Execution(id)
	if !ok {
		return fmt.Errorf("%w: execution %s", ErrNotFound, id)
	}
	if err := e.storeAppend(ex.snapshotRecord()); err != nil {
		return err
	}
	ex.dirty.Store(false)
	return nil
}

// SnapshotAll snapshots every resident, non-terminal execution that
// has made progress since its last snapshot, returning how many
// snapshots were written. matrixd calls this on the -snapshot-every
// cadence.
func (e *Engine) SnapshotAll() int {
	if e.Store() == nil {
		return 0
	}
	e.mu.RLock()
	execs := make([]*Execution, 0, len(e.execs))
	for _, ex := range e.execs {
		execs = append(execs, ex)
	}
	e.mu.RUnlock()
	count := 0
	for _, ex := range execs {
		select {
		case <-ex.done:
			continue // terminal: its exec.end record is the truth
		default:
		}
		if !ex.dirty.Load() {
			continue
		}
		if e.storeAppend(ex.snapshotRecord()) == nil {
			ex.dirty.Store(false)
			count++
		}
	}
	return count
}

// Passivate snapshots a resident execution, marks it passivated in the
// store, and evicts it from engine memory — its run goroutines unwind
// through the cancellation path without writing a terminal record.
// The execution resurrects transparently (same id, variables restored,
// completed steps skipped) when next needed; the step it was inside
// re-runs, the store's at-least-once unit.
func (e *Engine) Passivate(id string) error {
	if e.Store() == nil {
		return fmt.Errorf("matrix: passivate %s: no store attached: %w", id, dgferr.ErrInvalid)
	}
	ex, ok := e.Execution(id)
	if !ok {
		return fmt.Errorf("%w: execution %s", ErrNotFound, id)
	}
	select {
	case <-ex.done:
		return fmt.Errorf("%w: %s already terminal", ErrNotRestartable, id)
	default:
	}
	if err := e.storeAppend(ex.snapshotRecord()); err != nil {
		return err
	}
	if err := e.storeAppend(journalRecord{
		Type: journalExecPassivate, ID: id, Paused: ex.Paused(),
	}); err != nil {
		return err
	}
	// Mirror the marker into the flat journal (if one is attached) so a
	// journal-only recovery knows this flow is parked in the store and
	// does not re-run it from scratch under a fresh id.
	e.mirrorToJournal(journalRecord{Type: journalExecPassivate, ID: id, Paused: ex.Paused()})
	// Order matters: the flag must be visible before Cancel unwinds the
	// run goroutine, so its epilogue suppresses the exec.end record.
	ex.passivated.Store(true)
	ex.Cancel()
	e.mu.Lock()
	delete(e.execs, id)
	n := len(e.execs)
	e.mu.Unlock()
	o := e.Obs()
	o.Counter("matrix_flows_passivated_total").Inc()
	o.Gauge("store_resident").Set(int64(n))
	e.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "flow.passivate",
		FlowID: id, Target: ex.req.Flow.Name,
	})
	return nil
}

// PassivateIdle passivates every resident execution that has made no
// step progress for at least the idle duration — paused flows, flows
// blocked in a long sleep, flows waiting on a trigger to resume them.
// Executions with delegations in flight are exempt (a remote peer is
// actively working on their behalf). Returns the number passivated.
func (e *Engine) PassivateIdle(idle time.Duration) int {
	if e.Store() == nil {
		return 0
	}
	now := e.Clock().Now()
	e.mu.RLock()
	type cand struct {
		id string
		ex *Execution
	}
	cands := make([]cand, 0, len(e.execs))
	for id, ex := range e.execs {
		cands = append(cands, cand{id, ex})
	}
	e.mu.RUnlock()
	count := 0
	for _, c := range cands {
		select {
		case <-c.ex.done:
			continue
		default:
		}
		if c.ex.delegating.Load() > 0 {
			continue
		}
		if now.Sub(time.Unix(0, c.ex.lastActive.Load())) < idle {
			continue
		}
		if e.Passivate(c.id) == nil {
			count++
		}
	}
	return count
}

// ResurrectFor returns the execution with the given id, bringing it
// back from the store if it is passivated (or was left open by a
// crash). path labels the wake-up source for the
// store_resurrections_total metric: "status", "trigger", "wire",
// "federation" or "recovery". Already-resident executions are returned
// as-is.
func (e *Engine) ResurrectFor(id, path string) (*Execution, error) {
	if ex, ok := e.Execution(id); ok {
		return ex, nil
	}
	st := e.Store()
	if st == nil {
		return nil, fmt.Errorf("%w: execution %s", ErrNotFound, id)
	}
	ent, ok := st.Entry(id)
	if !ok || ent.Ended || ent.Pruned {
		return nil, fmt.Errorf("%w: execution %s", ErrNotFound, id)
	}
	req, err := codec.DecodeRequestDoc([]byte(ent.Request))
	if err != nil {
		return nil, fmt.Errorf("%w: stored request for %s: %v", dgl.ErrInvalid, id, err)
	}
	if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
		return nil, err
	}
	ex, created := e.adoptExecution(id, req, ent)
	if !created {
		return ex, nil // lost a resurrection race: the winner's handle
	}
	_ = e.storeAppend(journalRecord{Type: journalExecResurrect, ID: id})
	e.mirrorToJournal(journalRecord{Type: journalExecResurrect, ID: id})
	e.Obs().Counter("store_resurrections_total", "path", path).Inc()
	e.record(provenance.Record{
		Actor: req.User.Name, Action: "flow.resurrect",
		FlowID: id, Target: req.Flow.Name,
		Detail: map[string]string{"path": path, "steps-done": fmt.Sprint(len(ent.Done))},
	})
	go ex.run()
	return ex, nil
}

// adoptExecution builds an execution under an *existing* id from a
// store entry — the resurrection twin of newExecution, which always
// mints a fresh id. The entry's done set seeds the checkpoint skip
// set, its variables are restored into the root scope when the run
// starts, and a paused entry resurrects paused. Returns created=false
// if a concurrent resurrection already registered the id.
func (e *Engine) adoptExecution(id string, req *dgl.Request, ent store.Entry) (*Execution, bool) {
	skip := make(map[string]bool, len(ent.Done))
	for _, n := range ent.Done {
		skip[n] = true
	}
	ex := &Execution{
		ID:          id,
		engine:      e,
		req:         req,
		plan:        buildPlan(req.Flow),
		ctrl:        newControl(),
		scope:       NewScope(nil),
		skip:        skip,
		done:        make(chan struct{}),
		restoreVars: ent.Vars,
	}
	if ent.Paused {
		ex.ctrl.pause()
	}
	ex.delegCtx, ex.delegCancel = context.WithCancel(context.Background())
	ex.lastActive.Store(e.Clock().Now().UnixNano())
	ex.root = &node{
		id:    id + "/" + req.Flow.Name,
		name:  req.Flow.Name,
		kind:  "flow",
		state: StatePending,
	}
	e.mu.Lock()
	if cur, ok := e.execs[id]; ok {
		e.mu.Unlock()
		return cur, false
	}
	e.execs[id] = ex
	n := len(e.execs)
	e.mu.Unlock()
	e.Obs().Gauge("store_resident").Set(int64(n))
	return ex, true
}

// RecoverFromStore resumes every execution the attached store proves
// was running when the previous process died — live, non-passivated
// entries. Passivated executions stay in the store (that is the point:
// a restart does not re-inflate months of idle flows) and resurrect on
// demand. The engine's id counter advances past every stored id so
// fresh executions never collide with recovered ones.
func (e *Engine) RecoverFromStore() ([]*Execution, error) {
	st := e.Store()
	if st == nil {
		return nil, fmt.Errorf("matrix: no store attached: %w", dgferr.ErrInvalid)
	}
	var maxSeq int64
	for _, id := range st.IDs() {
		if n, ok := execSeq(e.cfg.IDPrefix, id); ok && n > maxSeq {
			maxSeq = n
		}
	}
	for {
		cur := e.nextExec.Load()
		if cur >= maxSeq || e.nextExec.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	var out []*Execution
	for _, ent := range st.Running() {
		req, err := codec.DecodeRequestDoc([]byte(ent.Request))
		if err != nil {
			return out, fmt.Errorf("%w: stored request for %s: %v", dgl.ErrInvalid, ent.ID, err)
		}
		if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
			return out, fmt.Errorf("matrix: store recovery %s: %w", ent.ID, err)
		}
		ex, created := e.adoptExecution(ent.ID, req, ent)
		if !created {
			continue
		}
		e.Obs().Counter("matrix_recoveries_total").Inc()
		e.record(provenance.Record{
			Actor: req.User.Name, Action: "flow.recover",
			FlowID: ent.ID, Target: req.Flow.Name,
			Detail: map[string]string{"steps-done": fmt.Sprint(len(ent.Done))},
		})
		go ex.run()
		out = append(out, ex)
	}
	return out, nil
}

// AdoptedFlow describes one execution adopted from a dead peer's
// replica (AdoptEntries) — enough for the caller to re-register shard
// tracking without re-parsing the request.
type AdoptedFlow struct {
	// ID is the adopted execution id, still carrying the dead owner's
	// prefix ("peerB:dgf-000042") — prefixes are what keep it from
	// colliding with this engine's own counter.
	ID   string
	User string
	// Flow is the flow name (the routing-key half alongside User).
	Flow string
	// Resumed is true when the flow was brought into memory and its run
	// restarted; false when it was passivated at the source and stays
	// parked in this engine's store, to resurrect on demand.
	Resumed bool
}

// AdoptEntries takes over live executions recovered from a *replica* of
// a dead peer's store — the promotion path of the replication layer
// (docs/REPLICATION.md). It is RecoverFromStore's cross-store twin: the
// entries come from the replica, not the engine's own store, so each
// adopted flow is first re-persisted here as an exec.snap — making it
// durable on the new owner and, through the store tap, re-replicated to
// the new owner's own followers — and then resumed exactly like a
// recovery. Passivated entries are persisted but stay parked
// (resurrect-on-demand), preserving the memory bound promotion exists
// alongside. Per-entry failures (undecodable request, unknown op) are
// counted and skipped rather than aborting the takeover: adopting most
// of a dead peer's flows beats adopting none.
func (e *Engine) AdoptEntries(entries []store.Entry, source string) []AdoptedFlow {
	o := e.Obs()
	var out []AdoptedFlow
	for _, ent := range entries {
		if ent.Ended || ent.Pruned {
			continue
		}
		req, err := codec.DecodeRequestDoc([]byte(ent.Request))
		if err != nil {
			o.Counter("matrix_adoptions_total", "outcome", "invalid").Inc()
			continue
		}
		if err := dgl.ValidateFlow(req.Flow, e.knownOps()); err != nil {
			o.Counter("matrix_adoptions_total", "outcome", "invalid").Inc()
			continue
		}
		if e.Store() != nil {
			// Authored from the entry, not a live execution: the replica's
			// indexed state IS the adopted truth.
			_ = e.storeAppend(journalRecord{
				Type: journalExecSnap, ID: ent.ID,
				Request: ent.Request, Vars: ent.Vars, Done: ent.Done,
				Paused: ent.Paused, Passivated: ent.Passivated,
			})
		}
		if ent.Passivated {
			// Parked at the source, parked here: it now lives in our store
			// and resurrects on demand through the usual wake paths.
			o.Counter("matrix_adoptions_total", "outcome", "parked").Inc()
			out = append(out, AdoptedFlow{ID: ent.ID, User: req.User.Name, Flow: req.Flow.Name})
			continue
		}
		ex, created := e.adoptExecution(ent.ID, req, ent)
		if !created {
			_ = ex
			continue // already resident (duplicate promotion race)
		}
		o.Counter("matrix_adoptions_total", "outcome", "resumed").Inc()
		e.record(provenance.Record{
			Actor: req.User.Name, Action: "flow.adopt",
			FlowID: ent.ID, Target: req.Flow.Name,
			Detail: map[string]string{"source": source, "steps-done": fmt.Sprint(len(ent.Done))},
		})
		go ex.run()
		out = append(out, AdoptedFlow{ID: ent.ID, User: req.User.Name, Flow: req.Flow.Name, Resumed: true})
	}
	return out
}

// execSeq parses the numeric suffix of an engine-minted execution id
// ("<prefix>dgf-000042" → 42): an optional sign and the decimal digits
// that follow "dgf-", whatever comes after them.
func execSeq(prefix, id string) (int64, bool) {
	rest, ok := strings.CutPrefix(strings.TrimPrefix(id, prefix), "dgf-")
	if !ok {
		return 0, false
	}
	end := 0
	if end < len(rest) && (rest[end] == '+' || rest[end] == '-') {
		end++
	}
	for end < len(rest) && '0' <= rest[end] && rest[end] <= '9' {
		end++
	}
	n, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
