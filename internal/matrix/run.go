package matrix

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/store"
)

// run drives a new execution to a terminal state: it waits until the
// exec.start its begin wrote is durable, so no step has an effect a
// restart would not know the flow for, and then runs it as resume does.
// It is called on the caller's goroutine for synchronous requests and on
// a fresh goroutine for asynchronous ones.
func (ex *execRun) run() {
	_ = ex.awaitStart() // counted; a failed store refuses the next flow
	ex.resume()
}

// resume drives an execution to a terminal state without writing an
// exec.start: a stored execution's entry holds its request already, so
// the resume doors (RecoverFromStore, ResurrectFor, AdoptEntries) call
// it directly and pay no second encode, fsync or store charge for it.
func (ex *execRun) resume() {
	defer ex.end()               // the record made, the run let go
	defer ex.endGoverned()       // release the tenant admission slot
	defer ex.cancelDelegations() // release any outstanding delegations
	o := ex.engine.Obs()
	o.Counter("matrix_flows_started_total").Inc()
	o.Gauge("matrix_executions_running").Add(1)
	defer o.Gauge("matrix_executions_running").Add(-1)
	ex.record(ex.now(), "flow.submit", "", ex.req.Flow.Name, "", "")
	root := ex.plan.root
	var reg region // stays empty when the root flow loops: its iterations open their own
	if root.body == nil {
		reg = ex.plan.shape.open(root, []*node{&ex.root})
	}
	err := ex.runFlowScoped(root, &ex.root, &ex.scope, reg)
	ex.err = err
	if ex.passivated.Load() {
		// Passivation unwound this run through the cancellation path;
		// the execution is not terminal — its resumable state is in
		// the store, and writing exec.end here would make recovery
		// treat it as finished. Engine.Passivate already recorded the
		// provenance event.
		return
	}
	outcome := provenance.OutcomeOK
	errText := ""
	switch {
	case err == nil:
		o.Counter("matrix_flows_succeeded_total").Inc()
	case errors.Is(err, ErrCancelled):
		o.Counter("matrix_flows_cancelled_total").Inc()
		outcome, errText = provenance.OutcomeError, err.Error()
	default:
		o.Counter("matrix_flows_failed_total").Inc()
		outcome, errText = provenance.OutcomeError, err.Error()
	}
	ex.record(ex.now(), "flow.complete", "", ex.req.Flow.Name, outcome, errText)
	// A flow reported finished has its provenance on disk. A closed
	// provenance store (one that retains nothing) answers ErrClosed.
	_ = ex.engine.grid.Provenance().Flush()
	_ = ex.engine.storeAppend(store.Record{
		Type: store.TypeExecEnd, ID: ex.ID, Err: errText,
	})
}

// relID strips the execution prefix from a node id, yielding the
// restart-stable node path.
func (ex *execRun) relID(id string) string {
	return strings.TrimPrefix(id, ex.ID)
}

func (ex *execRun) now() time.Time { return ex.engine.Clock().Now() }

// record writes the engine's provenance record of action on the node
// nodeID ("" for the execution itself), whose name is target, at the
// instant at.
func (ex *execRun) record(at time.Time, action, nodeID, target, outcome, errText string, detail ...provenance.Attr) {
	ex.engine.record(at, provenance.Record{
		Actor: ex.req.User.Name, Action: action, FlowID: ex.ID, StepID: nodeID,
		Target: target, Outcome: outcome, Err: errText,
	}, detail...)
}

// mark moves n to state s at one reading of the clock and returns that
// instant: the transition's span, provenance record and metrics carry
// it too, so watching a node costs no clock reading of its own.
func (ex *execRun) mark(n *node, s State) time.Time {
	at := ex.now()
	n.setState(s, at)
	return at
}

// runFlow interprets the child flow k into its status node n with the
// enclosing variable environment parent, pushing the flow's scope — its
// slot of reg, the region n belongs to, which also holds the nodes of the
// flow's children unless it loops.
func (ex *execRun) runFlow(k *planChild, n *node, parent *Scope, reg region) error {
	return ex.runFlowScoped(k.flow, n, reg.scopes[k.idx].init(parent), reg)
}

// runFlowScoped interprets one flow using scope as the flow's own scope.
// The root flow runs directly in the execution scope so its variables are
// visible through Execution.Vars.
func (ex *execRun) runFlowScoped(pf *planFlow, n *node, scope *Scope, reg region) error {
	f := pf.src
	if err := ex.ctrl.checkpoint(); err != nil {
		n.setState(StateCancelled, ex.now())
		return err
	}
	if err := scope.declareAll(pf.vars); err != nil {
		n.setError(err)
		n.setState(StateFailed, ex.now())
		return err
	}
	if n == &ex.root && len(ex.restoreVars) > 0 {
		// Resurrection: snapshot variables supersede the flow's own
		// declarations — setVariable results from skipped steps must
		// survive, not reset to their declared initial values.
		for name, val := range ex.restoreVars {
			scope.Declare(name, expr.String(val))
		}
		ex.restoreVars = nil
	}
	at := ex.mark(n, StateRunning)
	o := ex.engine.Obs()
	ex.engine.scopeDepth().Observe(float64(scope.Depth()))
	o.StartSpan(at, "flow", f.Name, n.id, obs.Attr{Key: "control", Value: string(f.Logic.Control)})
	ex.record(at, "flow.start", n.id, f.Name, "", "")
	fail := func(err error) error {
		n.setError(err)
		state := StateFailed
		if errors.Is(err, ErrCancelled) {
			state = StateCancelled
		}
		o.EndSpan(ex.mark(n, state), "flow", f.Name, n.id, obs.Attr{Key: "state", Value: string(state)})
		return err
	}
	if err := ex.fireRule(pf.before, scope, n.id); err != nil {
		return fail(err)
	}
	var err error
	switch f.Logic.Control {
	case dgl.Sequential:
		err = ex.runChildrenSequential(pf, n, scope, reg)
	case dgl.Parallel:
		err = ex.runChildrenParallel(pf, n, scope, reg)
	case dgl.While:
		err = ex.runWhile(pf, n, scope)
	case dgl.ForEach:
		err = ex.runForEach(pf, n, scope)
	case dgl.Switch:
		err = ex.runSwitch(pf, n, scope, reg)
	default:
		err = fmt.Errorf("%w: unknown control %q", dgl.ErrInvalid, f.Logic.Control)
	}
	if err != nil {
		return fail(err)
	}
	if err := ex.fireRule(pf.after, scope, n.id); err != nil {
		return fail(err)
	}
	at = ex.mark(n, StateSucceeded)
	o.EndSpan(at, "flow", f.Name, n.id, obs.Attr{Key: "state", Value: string(StateSucceeded)})
	ex.record(at, "flow.finish", n.id, f.Name, "", "")
	return nil
}

// runChild dispatches one child (sub-flow or step) under the given node.
func (ex *execRun) runChild(pf *planFlow, i int, under *node, scope *Scope, reg region) error {
	k, n := &pf.kids[i], reg.attach(pf, i, under)
	if k.flow != nil {
		return ex.runFlow(k, n, scope, reg)
	}
	return ex.runStep(k.step, n, scope, &reg.ctxs[k.idx])
}

func (ex *execRun) runChildrenSequential(pf *planFlow, under *node, scope *Scope, reg region) error {
	for i := range pf.kids {
		if err := ex.runChild(pf, i, under, scope, reg); err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs fn for every index below n on min(n, MaxParallel) workers
// that pull indices in order — the engine's per-flow parallelism cap,
// without a parked goroutine per item of a forEach over a query that
// matched a million objects. Every index runs to completion whatever its
// neighbours return; the errors join in index order.
func (ex *execRun) fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	workers := min(n, ex.engine.cfg.MaxParallel)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (ex *execRun) runChildrenParallel(pf *planFlow, under *node, scope *Scope, reg region) error {
	return ex.fanOut(len(pf.kids), func(i int) error {
		return ex.runChildDelegable(pf, i, under, scope, reg)
	})
}

// runChildDelegable runs one parallel child, offering child *flows* to
// the delegation plane first — parallel branches are the natural
// distribution unit (steps and sequential children always run locally).
func (ex *execRun) runChildDelegable(pf *planFlow, i int, under *node, scope *Scope, reg region) error {
	if k := &pf.kids[i]; k.flow != nil && ex.engine.delegator() != nil {
		n := reg.attach(pf, i, under)
		if handled, err := ex.maybeDelegate(k.flow, k.flow.src, n, scope); handled {
			return err
		}
		return ex.runFlow(k, n, scope, reg)
	}
	return ex.runChild(pf, i, under, scope, reg)
}

// nameIters makes nodes the iteration nodes of passes first, first+1, …
// of the loop whose node is parent, writing their ids into ids: each
// pass gets distinct, queryable status ids ("...ingest[3]/step"). A
// node's id ends in its name, so the iteration's name is the tail of its
// id.
func nameIters(nodes []node, parent *node, first int, ids *strings.Builder) {
	var num [20]byte
	for i := range nodes {
		at := ids.Len()
		ids.WriteString(parent.id)
		ids.WriteByte('[')
		ids.Write(strconv.AppendInt(num[:0], int64(first+i), 10))
		ids.WriteByte(']')
		c := &nodes[i]
		c.id, c.kind, c.state = ids.String()[at:], "flow", StatePending
		c.name = c.id[len(parent.id)-len(parent.name):]
	}
}

// iterIDLen is the length of the ids nameIters writes for k passes from
// first.
func iterIDLen(parent *node, first, k int) int {
	n, lo, end := k*(len(parent.id)+2), first, first+k
	for limit, width := 10, 1; lo < end; limit, width = limit*10, width+1 {
		if lo < limit {
			n += (min(end, limit) - lo) * width
			lo = min(end, limit)
		}
	}
	return n
}

// iterNodes allocates the status nodes of a forEach's m iterations at
// once — the nodes, their ids and the parent's children slice are one
// allocation each — without attaching them: iterations appear under the
// parent as they are reached (sequential) or all up front (parallel).
func iterNodes(parent *node, m int) []node {
	var ids strings.Builder
	ids.Grow(iterIDLen(parent, 0, m))
	nodes := make([]node, m)
	nameIters(nodes, parent, 0, &ids)
	parent.mu.Lock()
	parent.children = make([]*node, 0, m)
	parent.mu.Unlock()
	return nodes
}

// runIteration runs the loop body once under the iteration node in,
// whose static subtree is the region reg.
func (ex *execRun) runIteration(pf *planFlow, in *node, scope *Scope, reg region) error {
	in.setState(StateRunning, ex.now())
	if err := ex.runChildrenSequential(pf, in, scope, reg); err != nil {
		in.setError(err)
		if errors.Is(err, ErrCancelled) {
			in.setState(StateCancelled, ex.now())
		} else {
			in.setState(StateFailed, ex.now())
		}
		return err
	}
	in.setState(StateSucceeded, ex.now())
	return nil
}

func (ex *execRun) runWhile(pf *planFlow, n *node, scope *Scope) error {
	name, limit := pf.src.Name, ex.engine.cfg.MaxLoopIterations
	// How many passes there will be is the guard's to say, so a while
	// loop opens its passes by the block, each block twice the last, up
	// to blockSize, and never past the cap: what it holds for passes
	// that may never run is at most one block, and no more passes than
	// it has already run.
	var iters []node // the open block's passes, from pass first on
	var block region
	first := 0
	for i := 0; ; i++ {
		if err := ex.ctrl.checkpoint(); err != nil {
			return err
		}
		ok, err := pf.cond.Eval(scope)
		if err != nil {
			return fmt.Errorf("matrix: while condition in %s: %w", name, err)
		}
		if !ok.AsBool() {
			return nil
		}
		if i >= limit { // a pass beyond the cap would start
			return fmt.Errorf("matrix: while loop in %s exceeded %d iterations", name, i)
		}
		if i == first+len(iters) {
			k := min(max(2*len(iters), 1), blockSize, limit-i)
			iters, block = pf.body.openIters(pf, n, i, k)
			first = i
		}
		in := &iters[i-first]
		n.addChild(in)
		if err := ex.runIteration(pf, in, scope, pf.body.at(block, i-first)); err != nil {
			return err
		}
	}
}

func (ex *execRun) runForEach(pf *planFlow, n *node, scope *Scope) error {
	it := pf.iter
	items, err := ex.iterItems(it, scope)
	if err != nil {
		return err
	}
	nodes := iterNodes(n, len(items))
	regs := &iterRegions{owner: pf, iters: nodes}
	if it.src.Parallel {
		return ex.runForEachParallel(pf, n, scope, items, regs)
	}
	for i, item := range items {
		if err := ex.ctrl.checkpoint(); err != nil {
			return err
		}
		reg := regs.take(i)
		iterScope := reg.scopes[0].init(scope)
		iterScope.Declare(it.src.Var, expr.String(item))
		n.addChild(&nodes[i])
		if err := ex.runIteration(pf, &nodes[i], iterScope, reg); err != nil {
			return err
		}
	}
	return nil
}

// runForEachParallel fans iterations out under the engine's parallelism
// cap. All iterations run to completion; errors join.
func (ex *execRun) runForEachParallel(pf *planFlow, n *node, scope *Scope, items []string, regs *iterRegions) error {
	// Attach the iteration nodes up front so status ids stay ordered.
	for i := range regs.iters {
		n.addChild(&regs.iters[i])
	}
	return ex.fanOut(len(items), func(i int) error {
		in := &regs.iters[i]
		if err := ex.ctrl.checkpoint(); err != nil {
			in.setState(StateCancelled, ex.now())
			return err
		}
		reg := regs.take(i)
		iterScope := reg.scopes[0].init(scope)
		iterScope.Declare(pf.iter.src.Var, expr.String(items[i]))
		if ex.engine.delegator() != nil {
			// Parallel foreach shards delegate as synthetic sequential
			// flows with the iteration variable bound.
			if handled, err := ex.maybeDelegate(pf, shardFlow(pf.src, i), in, iterScope); handled {
				return err
			}
		}
		return ex.runIteration(pf, in, iterScope, reg)
	})
}

// iterItems materializes the forEach item list: an inline list, a repeat
// count, or the paths matched by a datagrid query evaluated *now* — late
// binding of the working set, per the paper.
func (ex *execRun) iterItems(pi *planIter, scope *Scope) ([]string, error) {
	it := pi.src
	switch {
	case it.In != "":
		raw, err := pi.in.Render(scope)
		if err != nil {
			return nil, err
		}
		parts := strings.Split(raw, ",")
		items := make([]string, 0, len(parts))
		for _, p := range parts {
			if t := strings.TrimSpace(p); t != "" {
				items = append(items, t)
			}
		}
		return items, nil
	case it.Times > 0:
		items := make([]string, it.Times)
		for i := range items {
			items[i] = strconv.Itoa(i)
		}
		return items, nil
	case it.Query != nil:
		q := namespace.Query{
			Scope:       it.Query.Scope,
			ObjectsOnly: it.Query.ObjectsOnly,
		}
		for i, c := range it.Query.Conditions {
			val, err := pi.conds[i].Render(scope)
			if err != nil {
				return nil, err
			}
			q.Conditions = append(q.Conditions, namespace.Condition{
				Attr: c.Attr, Op: namespace.QueryOp(c.Op), Value: val,
			})
		}
		entries, err := ex.engine.grid.Search(ex.req.User.Name, q)
		if err != nil {
			return nil, err
		}
		items := make([]string, len(entries))
		for i, e := range entries {
			items[i] = e.Path
		}
		return items, nil
	default:
		return nil, nil
	}
}

func (ex *execRun) runSwitch(pf *planFlow, n *node, scope *Scope, reg region) error {
	sel, err := pf.cond.Eval(scope)
	if err != nil {
		return fmt.Errorf("matrix: switch condition in %s: %w", pf.src.Name, err)
	}
	want := sel.AsString()
	chosen, fallback := -1, -1
	for i := range pf.kids {
		switch pf.kids[i].name {
		case want:
			if chosen < 0 {
				chosen = i
			}
		case "default":
			if fallback < 0 {
				fallback = i
			}
		}
	}
	if chosen < 0 {
		chosen = fallback
	}
	for i := range pf.kids {
		if i != chosen {
			reg.attach(pf, i, n).setState(StateSkipped, ex.now())
		}
	}
	if chosen < 0 {
		return nil // no arm matched and no default: nothing to do
	}
	return ex.runChild(pf, chosen, n, scope, reg)
}

// runStep executes one step with fault handling and rules. c is the
// step's context in its region, which its first attempt runs on.
func (ex *execRun) runStep(ps *planStep, n *node, parent *Scope, c *OpContext) error {
	st := ps.src
	if err := ex.ctrl.checkpoint(); err != nil {
		n.setState(StateCancelled, ex.now())
		return err
	}
	o := ex.engine.Obs()
	// Restart checkpointing: steps that succeeded in the prior run are
	// skipped wholesale.
	if ex.skipped(ex.relID(n.id)) {
		at := ex.mark(n, StateSkipped)
		ex.engine.countSkip()
		ex.record(at, "step.skip", n.id, st.Name, provenance.OutcomeSkipped, "")
		ex.stepDone(n, "", at)
		return nil
	}
	// Steps without their own variable block execute directly in the
	// enclosing flow scope, so results they Set (resultVar and friends)
	// bind where the rest of the flow can see them.
	scope := parent
	if len(ps.vars) > 0 {
		scope = NewScope(parent)
		if err := scope.declareAll(ps.vars); err != nil {
			n.setError(err)
			n.setState(StateFailed, ex.now())
			return err
		}
	}
	// Virtual-data memoization (docs/VDATA.md): a pure step whose
	// derivation the catalog already holds skips execution entirely. The
	// binding is resolved once, before execution, so a post-success
	// publish uses the exact key the lookup hashed — and the first
	// attempt runs on the parameters the key was derived from.
	var vd vdataBinding
	bound := false // c holds the parameters the key was derived from
	if st.Pure {
		if vd, bound = ex.vdataResolve(ps, scope, n.id, c); bound && ex.vdataHit(&vd, st, n, scope) {
			return nil
		}
	}
	op := ps.op.typ
	started := ex.mark(n, StateRunning)
	series := ex.engine.stepSeries(op)
	series.steps.Inc()
	o.StartSpan(started, "step", st.Name, n.id, obs.Attr{Key: "op", Value: op})
	// finish ends the step in state, and returns the instant it did.
	finish := func(state State) time.Time {
		at := ex.mark(n, state)
		series.seconds.Observe(at.Sub(started).Seconds())
		o.EndSpan(at, "step", st.Name, n.id, obs.Attr{Key: "op", Value: op}, obs.Attr{Key: "state", Value: string(state)})
		return at
	}
	ex.record(started, "step.start", n.id, st.Name, "", "")
	fail := func(err error) error {
		n.setError(err)
		o.Counter("matrix_step_failures_total", "op", op).Inc()
		ex.record(finish(StateFailed), "step.finish", n.id, st.Name, provenance.OutcomeError, err.Error())
		return err
	}
	if err := ex.fireRule(ps.before, scope, n.id); err != nil {
		return fail(err)
	}
	attempts, timing := ps.attempts, ps.timing
	var opErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if d := retryDelay(timing, n.id, attempt); d > 0 {
				o.Histogram("retry_backoff_seconds", "op", op).Observe(d.Seconds())
				ex.engine.Clock().Sleep(d)
			}
			o.Counter("matrix_step_retries_total", "op", op).Inc()
			ex.record(ex.now(), "step.retry", n.id, st.Name, "", "", provenance.Attr{Key: "attempt", Value: fmt.Sprint(attempt + 1)})
			// A retry binds afresh, against the scope as it is then, and
			// into a context of its own: the handler may have kept the
			// failed attempt's.
			c, bound = new(OpContext), false
		}
		var attemptStart time.Time
		if timing.Timeout > 0 {
			attemptStart = ex.now()
		}
		opErr = ex.execOperation(&ps.op, scope, n.id, c, bound)
		if timing.Timeout > 0 {
			// Under the virtual clock an operation cannot be interrupted
			// mid-flight; the budget is checked against the virtual time
			// the attempt consumed, and overruns fail with the (retryable)
			// timeout class even if the operation eventually returned.
			if el := ex.now().Sub(attemptStart); el > timing.Timeout {
				o.Counter("matrix_step_timeouts_total", "op", op).Inc()
				opErr = fmt.Errorf("%w: step %s attempt %d took %v (budget %v)",
					dgferr.ErrTimeout, st.Name, attempt+1, el, timing.Timeout)
			}
		}
		if opErr == nil {
			break
		}
		if !dgferr.Retryable(opErr) {
			break
		}
		if err := ex.ctrl.checkpoint(); err != nil {
			finish(StateCancelled)
			return err
		}
	}
	if opErr != nil && errors.Is(opErr, ErrCancelled) {
		// The operation itself was interrupted (a cancellable sleep,
		// typically — the passivation path): the step is cancelled, not
		// failed, so a resurrected run re-executes it cleanly.
		finish(StateCancelled)
		return opErr
	}
	if opErr != nil && st.OnError == dgl.OnErrorRetry && dgferr.Retryable(opErr) {
		o.Counter("retry_exhausted_total", "op", op).Inc()
		opErr = fmt.Errorf("%w: step %s after %d attempts: %w",
			dgferr.ErrRetryExhausted, st.Name, attempts, opErr)
	}
	if opErr != nil {
		if st.OnError == dgl.OnErrorContinue {
			// Record the failure but do not propagate: the flow carries on.
			n.setError(opErr)
			o.Counter("matrix_step_failures_total", "op", op).Inc()
			ex.record(finish(StateFailed), "step.finish", n.id, st.Name, provenance.OutcomeError, opErr.Error(), provenance.Attr{Key: "policy", Value: dgl.OnErrorContinue})
			return nil
		}
		return fail(opErr)
	}
	if err := ex.fireRule(ps.after, scope, n.id); err != nil {
		return fail(err)
	}
	at := finish(StateSucceeded)
	if vd.ctx != nil {
		ex.vdataPublish(&vd, st, n, scope)
	}
	ex.record(at, "step.finish", n.id, st.Name, "", "")
	ex.stepDone(n, "", at)
	return nil
}

// stepDone records that step n finished at the instant at — done by
// peer, when another peer did it: its step.done in the store and the
// progress mark.
func (ex *execRun) stepDone(n *node, peer string, at time.Time) {
	_ = ex.engine.storeAppend(store.Record{
		Type: store.TypeStepDone, ID: ex.ID, Node: ex.relID(n.id), Peer: peer,
	})
	ex.noteProgress(at)
}

// noteProgress records step progress at the instant at: the execution
// has new state worth snapshotting (dirty) and is not idle (lastActive)
// — the two signals SnapshotAll and PassivateIdle consult.
func (ex *execRun) noteProgress(at time.Time) {
	ex.dirty.Store(true)
	ex.lastActive.Store(at.UnixNano())
}

// retryDelay computes the virtual-clock pause before retry attempt
// (1-based): exponential growth from the base backoff, capped by
// MaxBackoff, plus deterministic jitter of up to 25% hashed from the
// node id and attempt number — so a seeded simulation replays its
// backoff schedule identically.
func retryDelay(t dgl.RetryTiming, nodeID string, attempt int) time.Duration {
	if t.Backoff <= 0 {
		return 0
	}
	d := t.Backoff
	for i := 1; i < attempt && d < 24*time.Hour; i++ {
		d *= 2
	}
	if t.MaxBackoff > 0 && d > t.MaxBackoff {
		d = t.MaxBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", nodeID, attempt)
	frac := float64(h.Sum64()%1024) / 4096 // [0, 0.25)
	return d + time.Duration(float64(d)*frac)
}

// fireRule evaluates one of the implicitly fired rules (nil when the
// flow or step declares none): the condition's string value selects the
// action to execute, per the paper's UserDefinedRule semantics ("The
// Actions are executed if the condition statement evaluates to the name
// of the action"). Boolean conditions select the actions named
// "true"/"false".
func (ex *execRun) fireRule(rule *planRule, scope *Scope, nodeID string) error {
	if rule == nil {
		return nil
	}
	v, err := rule.cond.Eval(scope)
	if err != nil {
		return fmt.Errorf("matrix: rule %q condition: %w", rule.name, err)
	}
	want := v.AsString()
	for i := range rule.actions {
		a := &rule.actions[i]
		if a.name != want {
			continue
		}
		if a.op == nil {
			return nil
		}
		if err := ex.execOperation(a.op, scope, nodeID+"#"+rule.name, new(OpContext), false); err != nil {
			return fmt.Errorf("matrix: rule %q action %q: %w", rule.name, a.name, err)
		}
		return nil
	}
	return nil // no action matched: nothing to execute
}

// bind renders the operation's parameters against the live scope (late
// binding) into c, the context its handler will read them from — a slot
// of the step's region or a fresh one, never one a handler has seen.
func (ex *execRun) bind(c *OpContext, op *planOp, scope *Scope, nodeID string) error {
	*c = OpContext{
		Engine: ex.engine,
		Grid:   ex.engine.grid,
		User:   ex.req.User.Name,
		Scope:  scope,
		ExecID: ex.ID,
		NodeID: nodeID,
		Cancel: ex.ctrl.cancelled(),
		op:     op,
	}
	c.vals = c.inline[:0]
	var stack [128]byte
	for i := range op.slots {
		v, buf, err := op.slots[i].value.Append(stack[:0], scope)
		if err != nil {
			return fmt.Errorf("parameter %q: %w", op.slots[i].name, err)
		}
		if len(buf) > 0 {
			v = ex.cut(buf)
		}
		c.vals = append(c.vals, v)
	}
	return nil
}

// cut copies a parameter rendered from several pieces into the
// execution's slab; a constant or a lone reference is the string it
// already was.
func (ex *execRun) cut(b []byte) string {
	ex.slabMu.Lock()
	defer ex.slabMu.Unlock()
	return ex.slab.Cut(b)
}

// execOperation binds the operation's parameters into c — unless the
// caller already has (a pure step binds once, for its derivation key and
// for its first attempt) — and dispatches to the registered handler.
func (ex *execRun) execOperation(op *planOp, scope *Scope, nodeID string, c *OpContext, bound bool) error {
	h, ok := ex.engine.handler(op.typ)
	if !ok {
		return fmt.Errorf("matrix: no handler for operation %q", op.typ)
	}
	if !bound {
		if err := ex.bind(c, op, scope, nodeID); err != nil {
			return err
		}
	}
	return h(c)
}
