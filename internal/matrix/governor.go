package matrix

// governor.go is the engine half of the multi-tenant control plane
// (internal/tenant, docs/TENANCY.md). A FlowGovernor observes the
// engine's resource lifecycle at three points — flow admission, the
// terminal transition, and durable store appends — and may refuse
// admission with a typed quota error. The engine stays decoupled from
// the tenant package: tenant.Registry satisfies the interface, and a
// nil governor (the default) leaves untenanted engines unchanged.

import (
	"fmt"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/store"
)

// FlowGovernor meters per-user resource consumption. Implementations
// must be safe for concurrent use; every method may be called from
// multiple executions at once.
type FlowGovernor interface {
	// BeginFlow admits one flow for the user or refuses it with a
	// typed error (dgferr.ErrQuota). On success the engine owes a
	// matching EndFlow when the flow reaches a terminal state or is
	// passivated out of memory.
	BeginFlow(user string) error
	// EndFlow releases one admission charged by BeginFlow.
	EndFlow(user string)
	// ChargeStore accounts n bytes of durable store footprint to the
	// user. Negative n reclaims (compaction). Charges are
	// accounting-only: records of admitted flows are never dropped —
	// the byte quota gates future BeginFlow calls instead.
	ChargeStore(user string, n int64)
}

// SetGovernor installs (or, with nil, removes) the engine's flow
// governor. Install it before traffic: flows admitted while no
// governor was set are not retroactively charged.
func (e *Engine) SetGovernor(g FlowGovernor) {
	e.mu.Lock()
	e.governor = g
	e.mu.Unlock()
}

// admit clears one new flow of user to start: the store must still be
// able to record it — one a write failure poisoned takes no new flow,
// with a typed ErrResourceDown, while the flows it has keep running —
// and the governor must admit it. It returns true when the governor was
// charged (the execution must then carry the governed flag so the
// terminal transition releases exactly one admission).
func (e *Engine) admit(user string) (bool, error) {
	e.mu.RLock()
	g, st := e.governor, e.store
	e.mu.RUnlock()
	if st != nil {
		if err := st.Err(); err != nil {
			return false, fmt.Errorf("%w: matrix: the flow-state store failed, no new flow can be recorded: %v",
				dgferr.ErrResourceDown, err)
		}
	}
	if g == nil {
		return false, nil
	}
	if err := g.BeginFlow(user); err != nil {
		return false, err
	}
	return true, nil
}

// endGoverned releases the admission charged by admit, exactly
// once per execution. Called from the run goroutine's unwind — both
// the terminal transition and the passivation early-return, since a
// passivated flow no longer occupies an in-flight slot.
func (ex *execRun) endGoverned() {
	if !ex.governed.CompareAndSwap(true, false) {
		return
	}
	ex.engine.mu.RLock()
	g := ex.engine.governor
	ex.engine.mu.RUnlock()
	if g != nil {
		g.EndFlow(ex.user)
	}
}

// recordCost estimates the durable footprint of one store record: the
// variable-length payload fields plus a fixed envelope overhead. The
// estimate tracks the binary segment encoding closely enough for quota
// accounting without re-encoding every record a second time.
func recordCost(rec *store.Record) int64 {
	n := 64 + len(rec.Type) + len(rec.ID) + len(rec.Request) +
		len(rec.Node) + len(rec.Peer) + len(rec.Err)
	for k, v := range rec.Vars {
		n += len(k) + len(v) + 8
	}
	for _, d := range rec.Done {
		n += len(d) + 4
	}
	return int64(n)
}

// chargeRecord accounts one store-bound record to the owning
// execution's user. Records whose execution is no longer resident
// (prune markers, post-passivation bookkeeping) go uncharged — the
// estimate is deliberately conservative in the tenant's favour.
func (e *Engine) chargeRecord(rec *store.Record) {
	e.mu.RLock()
	g := e.governor
	var owner string
	if g != nil {
		if ex, ok := e.execs[rec.ID]; ok {
			owner = ex.user
		}
	}
	e.mu.RUnlock()
	if g == nil || owner == "" {
		return
	}
	g.ChargeStore(owner, recordCost(rec))
}
