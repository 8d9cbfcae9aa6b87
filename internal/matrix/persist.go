package matrix

// persist.go integrates the durable flow-state store (internal/store,
// docs/STORE.md) into the engine: periodic snapshots of resumable
// state, passivation of idle executions out of engine memory, and
// transparent resurrection when something — a status query, a trigger
// firing, a wire control request, or a federated status route — needs
// a passivated flow again. The store is the engine's one lifecycle log:
// with it attached, every execution records its start, its completed
// steps and its end, resident memory is bounded by the *active* flow set
// and restart recovery (RecoverFromStore) replays O(snapshot + tail)
// records instead of the full history.

import (
	"errors"
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
// store. The store receives every lifecycle record the engine writes:
// exec.start, step.done, deleg.*, exec.end, snapshots, passivation
// markers and prune tombstones.
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

// errNoStore refuses a store operation on an engine without one.
var errNoStore = fmt.Errorf("matrix: no store attached: %w", dgferr.ErrInvalid)

// storeAppend stamps and writes one lifecycle record to the attached
// store with the verb its type calls for (store.Waits): Append where the
// writer waits for the fsync, Write where it does not (a step.done is
// written and left to ride the next commit). It returns errNoStore on a
// bare engine: callers that only log progress ignore the error, as a
// run goes on without a store.
func (e *Engine) storeAppend(rec store.Record) error {
	fsync, _ := store.Waits(rec.Type)
	_, err := e.storeWrite(rec, fsync)
	return err
}

// storeWrite stamps and writes one lifecycle record to the attached
// store, waiting for its sync when wait is set and otherwise returning
// the ticket store.Wait takes. A failed write is counted — a dead store
// must not stop the engine, but it must not die silently either: a
// restart would replay stale state.
func (e *Engine) storeWrite(rec store.Record, wait bool) (store.Ticket, error) {
	st := e.Store()
	if st == nil {
		return store.Ticket{}, errNoStore
	}
	rec.Time = e.Clock().Now()
	var t store.Ticket
	var err error
	if wait {
		err = st.Append(rec)
	} else {
		t, err = st.Write(rec)
	}
	if err != nil {
		e.Obs().Counter("store_append_errors_total").Inc()
		return t, err
	}
	e.chargeRecord(&rec)
	return t, nil
}

// writeStart writes the execution's exec.start, when a store is
// attached, on the caller's goroutine and without waiting for its sync:
// a caller that starts many flows shares their fsyncs. The record is
// still the commit point store.Waits makes it — run waits on its ticket
// before the first step (awaitStart), and an async acknowledgement for
// its fsync before it is sent.
func (ex *execRun) writeStart() error {
	if ex.engine.Store() == nil {
		return nil
	}
	// Encoding the request document is only worth paying for when a
	// store will actually persist it.
	t, err := ex.engine.storeWrite(store.Record{
		Type: store.TypeExecStart, ID: ex.ID, Request: codec.RequestDoc(ex.req),
	}, false)
	ex.started = t
	return err
}

// awaitStart returns once the exec.start writeStart wrote is durable,
// indexed and handed to the replication tap, as an Append of it would
// have: the run waits so before its first step.
func (ex *execRun) awaitStart() error {
	st := ex.engine.Store()
	if st == nil {
		return nil
	}
	if err := st.Wait(ex.started); err != nil {
		ex.engine.Obs().Counter("store_append_errors_total").Inc()
		return err
	}
	return nil
}

// snapshotRecord captures the execution's resumable state as one
// self-contained exec.snap record: the request document, the root
// scope's variables, and every node path proven complete — succeeded
// and skipped steps, whole delegated subtrees, plus the not-yet-reached
// checkpoint set a restart or resurrection seeded this run with.
func (ex *execRun) snapshotRecord() store.Record {
	abs := doneSink{ids: map[string]bool{}}
	ex.root.walk(true, &abs)
	done := make(map[string]bool, len(abs.ids)+len(ex.skip))
	for id := range abs.ids {
		done[ex.relID(id)] = true
	}
	for _, rel := range ex.skip {
		done[rel] = true
	}
	rel := make([]string, 0, len(done))
	for r := range done {
		rel = append(rel, r)
	}
	return store.Record{
		Type: store.TypeExecSnap, ID: ex.ID,
		Request: codec.RequestDoc(ex.req),
		Vars:    ex.scope.Snapshot(),
		Done:    rel,
		Paused:  ex.Paused(),
	}
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
		r := ex.live.Load()
		if r == nil || !r.dirty.Load() {
			continue // terminal (its exec.end record is the truth), or nothing new
		}
		if e.storeAppend(r.snapshotRecord()) == nil {
			r.dirty.Store(false)
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
		return fmt.Errorf("passivate %s: %w", id, errNoStore)
	}
	ex, ok := e.Execution(id)
	if !ok {
		return fmt.Errorf("%w: execution %s", ErrNotFound, id)
	}
	r := ex.live.Load()
	if r == nil {
		return fmt.Errorf("%w: %s already terminal", ErrNotRestartable, id)
	}
	if err := e.storeAppend(r.snapshotRecord()); err != nil {
		return err
	}
	if err := e.storeAppend(store.Record{
		Type: store.TypeExecPassivate, ID: id, Paused: r.ctrl.paused(),
	}); err != nil {
		return err
	}
	// Order matters: the flag must be visible before Cancel unwinds the
	// run goroutine, so its epilogue suppresses the exec.end record.
	r.passivated.Store(true)
	ex.Cancel()
	e.mu.Lock()
	delete(e.execs, id)
	n := len(e.execs)
	e.mu.Unlock()
	o := e.Obs()
	o.Counter("matrix_flows_passivated_total").Inc()
	o.Gauge("store_resident").Set(int64(n))
	e.record(e.Clock().Now(), provenance.Record{
		Actor: ex.user, Action: "flow.passivate",
		FlowID: id, Target: r.root.name,
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
		r := c.ex.live.Load()
		if r == nil || r.delegating.Load() > 0 {
			continue // terminal, or a peer is working for it
		}
		if now.Sub(time.Unix(0, r.lastActive.Load())) < idle {
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
// "federation" or "promotion". Already-resident executions are returned
// as-is. (A restart resumes its flows through RecoverFromStore, which
// writes no exec.resurrect and counts matrix_recoveries_total.)
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
	req, p, err := e.storedRequest(ent)
	if err != nil {
		return nil, err
	}
	ex, run := e.adoptExecution(ent, req, p, "flow.resurrect", provenance.Attr{Key: "path", Value: path})
	if run == nil {
		return ex, nil // lost a resurrection race: the winner's handle
	}
	_ = e.storeAppend(store.Record{Type: store.TypeExecResurrect, ID: id})
	e.Obs().Counter("store_resurrections_total", "path", path).Inc()
	go run.resume()
	return ex, nil
}

// storedRequest decodes the request a store entry holds, reading the
// document where it lies in the entry, and lowers its flow: a flow this
// build can no longer run (an op it lacks) is refused here.
func (e *Engine) storedRequest(ent store.Entry) (*dgl.Request, *plan, error) {
	req, err := codec.DecodeRequestDoc(ent.Request)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: stored request for %s: %v", dgl.ErrInvalid, ent.ID, err)
	}
	if req.Flow == nil {
		return nil, nil, fmt.Errorf("%w: stored request for %s has no flow", dgl.ErrInvalid, ent.ID)
	}
	p, err := buildPlan(req.Flow, e.knownOps())
	if err != nil {
		return nil, nil, fmt.Errorf("matrix: stored flow %s: %w", ent.ID, err)
	}
	return req, p, nil
}

// adoptExecution is the one way a stored execution comes back: it
// builds an execution of p, the plan of the entry's request req, under
// the entry's *existing* id — begin always mints a fresh one — registers
// it, not yet started, and records the resume in provenance as action,
// with the door's cause pair (none when cause.Key is empty) and the
// number of steps already done. The entry's done list (sorted, as Entry
// keeps it) is the checkpoint skip set, its variables are restored into
// the root scope when the run starts, and a paused entry resurrects
// paused. It returns the execution and its run, not yet started — or,
// recording nothing, the resident one and no run if the id is already
// resident (a concurrent resume registered it).
func (e *Engine) adoptExecution(ent store.Entry, req *dgl.Request, p *plan, action string, cause provenance.Attr) (*Execution, *execRun) {
	id := ent.ID
	ex := e.execution(id+"/"+req.Flow.Name, req, p, ent.Done)
	ex.restoreVars = ent.Vars
	if ent.Paused {
		ex.ctrl.pause()
	}
	e.mu.Lock()
	if cur, ok := e.execs[id]; ok {
		e.mu.Unlock()
		return cur, nil
	}
	e.register(ex, id)
	n := len(e.execs)
	e.mu.Unlock()
	e.Obs().Gauge("store_resident").Set(int64(n))
	r := provenance.Record{Actor: req.User.Name, Action: action, FlowID: id, Target: req.Flow.Name}
	done := provenance.Attr{Key: "steps-done", Value: strconv.Itoa(len(ent.Done))}
	// One call per arity: a detail list built with append would cost a
	// recovery an allocation per resumed flow (TestRecoverAllocs).
	if at := e.Clock().Now(); cause.Key == "" {
		e.record(at, r, done)
	} else {
		e.record(at, r, cause, done)
	}
	return ex.Execution, ex
}

// RecoverFromStore resumes every execution the attached store proves
// was running when the previous process died — live, non-passivated
// entries. Passivated executions stay in the store (that is the point:
// a restart does not re-inflate months of idle flows) and resurrect on
// demand. The engine's id counter advances past every stored id so
// fresh executions never collide with recovered ones. An entry whose
// request no longer decodes or validates — naming an operation this
// engine no longer registers, say — is left in the store and does not
// stop the others: every valid entry is resumed, and the failures come
// back joined, one per id, beside them.
func (e *Engine) RecoverFromStore() ([]*Execution, error) {
	st := e.Store()
	if st == nil {
		return nil, errNoStore
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
	var errs []error
	for _, ent := range st.Running() {
		req, p, err := e.storedRequest(ent)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ex, run := e.adoptExecution(ent, req, p, "flow.recover", provenance.Attr{})
		if run == nil {
			continue
		}
		e.Obs().Counter("matrix_recoveries_total").Inc()
		go run.resume()
		out = append(out, ex)
	}
	return out, errors.Join(errs...)
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
		req, p, err := e.storedRequest(ent)
		if err != nil {
			o.Counter("matrix_adoptions_total", "outcome", "invalid").Inc()
			continue
		}
		if e.Store() != nil {
			// Authored from the entry, not a live execution: the replica's
			// indexed state IS the adopted truth.
			_ = e.storeAppend(store.Record{
				Type: store.TypeExecSnap, ID: ent.ID,
				Request: ent.Request, Vars: ent.Vars, Done: ent.Done,
				Paused: ent.Paused, Passivated: ent.Passivated,
			})
		}
		if ent.Passivated {
			// Parked at the source, parked here: it now lives in our store
			// and resurrects on demand through the usual wake paths.
			o.Counter("matrix_adoptions_total", "outcome", "parked").Inc()
		} else {
			_, run := e.adoptExecution(ent, req, p, "flow.adopt", provenance.Attr{Key: "source", Value: source})
			if run == nil {
				continue // already resident (duplicate promotion race)
			}
			o.Counter("matrix_adoptions_total", "outcome", "resumed").Inc()
			go run.resume()
		}
		out = append(out, AdoptedFlow{ID: ent.ID, User: req.User.Name, Flow: req.Flow.Name})
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
