package matrix

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
)

// run drives the execution to a terminal state. It is called on the
// caller's goroutine for synchronous requests and on a fresh goroutine
// for asynchronous ones.
func (ex *Execution) run() {
	defer close(ex.done)
	defer ex.endGoverned() // release the tenant admission slot
	defer ex.delegCancel() // release any outstanding delegations
	o := ex.engine.Obs()
	o.Counter("matrix_flows_started_total").Inc()
	o.Gauge("matrix_executions_running").Add(1)
	defer o.Gauge("matrix_executions_running").Add(-1)
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "flow.submit",
		FlowID: ex.ID, Target: ex.req.Flow.Name,
	})
	if ex.engine.journaling() {
		// Encoding the request document is only worth paying for when a
		// journal or store will actually persist it.
		ex.engine.journalAppend(journalRecord{
			Type: journalExecStart, ID: ex.ID, Request: codec.RequestDoc(ex.req),
		})
	}
	err := ex.runFlowScoped(ex.req.Flow, ex.root, ex.scope)
	ex.mu.Lock()
	ex.err = err
	ex.mu.Unlock()
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
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "flow.complete",
		FlowID: ex.ID, Target: ex.req.Flow.Name,
		Outcome: outcome, Err: errText,
	})
	ex.engine.journalAppend(journalRecord{
		Type: journalExecEnd, ID: ex.ID, Err: errText,
	})
}

// relID strips the execution prefix from a node id, yielding the
// restart-stable node path.
func (ex *Execution) relID(id string) string {
	return strings.TrimPrefix(id, ex.ID)
}

func (ex *Execution) now() time.Time { return ex.engine.Clock().Now() }

// runFlow interprets one flow into the status node n with the enclosing
// variable environment parent, pushing a fresh scope for the flow.
func (ex *Execution) runFlow(f *dgl.Flow, n *node, parent *Scope) error {
	return ex.runFlowScoped(f, n, NewScope(parent))
}

// runFlowScoped interprets one flow using scope as the flow's own scope.
// The root flow runs directly in the execution scope so its variables are
// visible through Execution.Vars.
func (ex *Execution) runFlowScoped(f *dgl.Flow, n *node, scope *Scope) error {
	if err := ex.ctrl.checkpoint(); err != nil {
		n.setState(StateCancelled, ex.now())
		return err
	}
	if err := scope.declareAll(f.Variables); err != nil {
		n.setError(err)
		n.setState(StateFailed, ex.now())
		return err
	}
	if n == ex.root && len(ex.restoreVars) > 0 {
		// Resurrection: snapshot variables supersede the flow's own
		// declarations — setVariable results from skipped steps must
		// survive, not reset to their declared initial values.
		for name, val := range ex.restoreVars {
			scope.Declare(name, expr.String(val))
		}
		ex.restoreVars = nil
	}
	n.setState(StateRunning, ex.now())
	o := ex.engine.Obs()
	o.HistogramBuckets("matrix_scope_depth", scopeDepthBuckets).Observe(float64(scope.Depth()))
	o.StartSpan("flow", f.Name, n.id, map[string]string{"control": string(f.Logic.Control)})
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "flow.start",
		FlowID: ex.ID, StepID: n.id, Target: f.Name,
	})
	fail := func(err error) error {
		n.setError(err)
		state := StateFailed
		if errors.Is(err, ErrCancelled) {
			state = StateCancelled
		}
		n.setState(state, ex.now())
		o.EndSpan("flow", f.Name, n.id, map[string]string{"state": string(state)})
		return err
	}
	if err := ex.fireRule(f.Logic.Rules, dgl.RuleBeforeEntry, scope, n.id); err != nil {
		return fail(err)
	}
	var err error
	switch f.Logic.Control {
	case dgl.Sequential:
		err = ex.runChildrenSequential(f, n, scope)
	case dgl.Parallel:
		err = ex.runChildrenParallel(f, n, scope)
	case dgl.While:
		err = ex.runWhile(f, n, scope)
	case dgl.ForEach:
		err = ex.runForEach(f, n, scope)
	case dgl.Switch:
		err = ex.runSwitch(f, n, scope)
	default:
		err = fmt.Errorf("%w: unknown control %q", dgl.ErrInvalid, f.Logic.Control)
	}
	if err != nil {
		return fail(err)
	}
	if err := ex.fireRule(f.Logic.Rules, dgl.RuleAfterExit, scope, n.id); err != nil {
		return fail(err)
	}
	n.setState(StateSucceeded, ex.now())
	o.EndSpan("flow", f.Name, n.id, map[string]string{"state": string(StateSucceeded)})
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "flow.finish",
		FlowID: ex.ID, StepID: n.id, Target: f.Name,
	})
	return nil
}

// scopeDepthBuckets bound the matrix_scope_depth histogram in scope
// levels (not seconds): deeply nested flow documents surface here.
var scopeDepthBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// childNode allocates a status node for a child under parent.
func childNode(parent *node, name, kind string) *node {
	c := &node{id: parent.id + "/" + name, name: name, kind: kind, state: StatePending}
	parent.addChild(c)
	return c
}

// runChild dispatches one child (sub-flow or step) under the given node.
func (ex *Execution) runChild(f *dgl.Flow, i int, under *node, scope *Scope) error {
	if i < len(f.Flows) {
		child := &f.Flows[i]
		return ex.runFlow(child, childNode(under, child.Name, "flow"), scope)
	}
	st := &f.Steps[i-len(f.Flows)]
	return ex.runStep(st, childNode(under, st.Name, "step"), scope)
}

// childCount is the number of children (flows xor steps by validation).
func childCount(f *dgl.Flow) int { return len(f.Flows) + len(f.Steps) }

func (ex *Execution) runChildrenSequential(f *dgl.Flow, under *node, scope *Scope) error {
	for i := 0; i < childCount(f); i++ {
		if err := ex.runChild(f, i, under, scope); err != nil {
			return err
		}
	}
	return nil
}

func (ex *Execution) runChildrenParallel(f *dgl.Flow, under *node, scope *Scope) error {
	n := childCount(f)
	sem := make(chan struct{}, ex.engine.cfg.MaxParallel)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = ex.runChildDelegable(f, i, under, scope)
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return errors.Join(errs...)
}

// runChildDelegable runs one parallel child, offering child *flows* to
// the delegation plane first — parallel branches are the natural
// distribution unit (steps and sequential children always run locally).
func (ex *Execution) runChildDelegable(f *dgl.Flow, i int, under *node, scope *Scope) error {
	if i < len(f.Flows) && ex.engine.delegator() != nil {
		child := &f.Flows[i]
		n := childNode(under, child.Name, "flow")
		if handled, err := ex.maybeDelegate(child, n, scope); handled {
			return err
		}
		return ex.runFlow(child, n, scope)
	}
	return ex.runChild(f, i, under, scope)
}

// iterNode wraps one loop iteration so each pass gets distinct,
// queryable status ids ("...ingest[3]/step").
func iterNode(parent *node, i int) *node {
	idx := strconv.Itoa(i)
	c := &node{id: parent.id + "[" + idx + "]", name: parent.name + "[" + idx + "]", kind: "flow", state: StatePending}
	parent.addChild(c)
	return c
}

func (ex *Execution) runIteration(f *dgl.Flow, parent *node, i int, scope *Scope) error {
	in := iterNode(parent, i)
	in.setState(StateRunning, ex.now())
	if err := ex.runChildrenSequential(f, in, scope); err != nil {
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

func (ex *Execution) runWhile(f *dgl.Flow, n *node, scope *Scope) error {
	cond, err := expr.Parse(f.Logic.Condition)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		if err := ex.ctrl.checkpoint(); err != nil {
			return err
		}
		if i >= ex.engine.cfg.MaxLoopIterations {
			return fmt.Errorf("matrix: while loop in %s exceeded %d iterations", f.Name, i)
		}
		ok, err := cond.EvalBool(scope)
		if err != nil {
			return fmt.Errorf("matrix: while condition in %s: %w", f.Name, err)
		}
		if !ok {
			return nil
		}
		if err := ex.runIteration(f, n, i, scope); err != nil {
			return err
		}
	}
}

func (ex *Execution) runForEach(f *dgl.Flow, n *node, scope *Scope) error {
	it := f.Logic.Iterate
	items, err := ex.iterItems(it, scope)
	if err != nil {
		return err
	}
	if it.Parallel {
		return ex.runForEachParallel(f, n, scope, items)
	}
	for i, item := range items {
		if err := ex.ctrl.checkpoint(); err != nil {
			return err
		}
		iterScope := NewScope(scope)
		iterScope.Declare(it.Var, expr.String(item))
		if err := ex.runIteration(f, n, i, iterScope); err != nil {
			return err
		}
	}
	return nil
}

// runForEachParallel fans iterations out under the engine's parallelism
// cap. All iterations run to completion; errors join.
func (ex *Execution) runForEachParallel(f *dgl.Flow, n *node, scope *Scope, items []string) error {
	it := f.Logic.Iterate
	sem := make(chan struct{}, ex.engine.cfg.MaxParallel)
	errs := make([]error, len(items))
	done := make(chan int, len(items))
	// Allocate iteration nodes up front so status ids stay ordered.
	nodes := make([]*node, len(items))
	for i := range items {
		nodes[i] = iterNode(n, i)
	}
	for i, item := range items {
		go func(i int, item string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ex.ctrl.checkpoint(); err != nil {
				nodes[i].setState(StateCancelled, ex.now())
				errs[i] = err
				done <- i
				return
			}
			iterScope := NewScope(scope)
			iterScope.Declare(it.Var, expr.String(item))
			in := nodes[i]
			if ex.engine.delegator() != nil {
				// Parallel foreach shards delegate as synthetic sequential
				// flows with the iteration variable bound.
				if handled, err := ex.maybeDelegate(shardFlow(f, i), in, iterScope); handled {
					errs[i] = err
					done <- i
					return
				}
			}
			in.setState(StateRunning, ex.now())
			if err := ex.runChildrenSequential(f, in, iterScope); err != nil {
				in.setError(err)
				if errors.Is(err, ErrCancelled) {
					in.setState(StateCancelled, ex.now())
				} else {
					in.setState(StateFailed, ex.now())
				}
				errs[i] = err
			} else {
				in.setState(StateSucceeded, ex.now())
			}
			done <- i
		}(i, item)
	}
	for range items {
		<-done
	}
	return errors.Join(errs...)
}

// iterItems materializes the forEach item list: an inline list, a repeat
// count, or the paths matched by a datagrid query evaluated *now* — late
// binding of the working set, per the paper.
func (ex *Execution) iterItems(it *dgl.Iterate, scope *Scope) ([]string, error) {
	switch {
	case it.In != "":
		raw, err := expr.Interpolate(it.In, scope)
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
			items[i] = fmt.Sprint(i)
		}
		return items, nil
	case it.Query != nil:
		q := namespace.Query{
			Scope:       it.Query.Scope,
			ObjectsOnly: it.Query.ObjectsOnly,
		}
		for _, c := range it.Query.Conditions {
			val, err := expr.Interpolate(c.Value, scope)
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

func (ex *Execution) runSwitch(f *dgl.Flow, n *node, scope *Scope) error {
	sel, err := expr.EvalString(f.Logic.Condition, scope)
	if err != nil {
		return fmt.Errorf("matrix: switch condition in %s: %w", f.Name, err)
	}
	want := sel.AsString()
	chosen := -1
	names := f.ChildNames()
	for i, name := range names {
		if name == want {
			chosen = i
			break
		}
	}
	if chosen < 0 {
		for i, name := range names {
			if name == "default" {
				chosen = i
				break
			}
		}
	}
	for i, name := range names {
		if i == chosen {
			continue
		}
		skipped := childNode(n, name, childKind(f, i))
		skipped.setState(StateSkipped, ex.now())
	}
	if chosen < 0 {
		return nil // no arm matched and no default: nothing to do
	}
	return ex.runChild(f, chosen, n, scope)
}

func childKind(f *dgl.Flow, i int) string {
	if i < len(f.Flows) {
		return "flow"
	}
	return "step"
}

// runStep executes one step with fault handling and rules.
func (ex *Execution) runStep(st *dgl.Step, n *node, parent *Scope) error {
	if err := ex.ctrl.checkpoint(); err != nil {
		n.setState(StateCancelled, ex.now())
		return err
	}
	o := ex.engine.Obs()
	// Restart checkpointing: steps that succeeded in the prior run are
	// skipped wholesale.
	if ex.skip[ex.relID(n.id)] {
		n.setState(StateSkipped, ex.now())
		o.Counter("matrix_checkpoint_skips_total").Inc()
		ex.engine.record(provenance.Record{
			Actor: ex.req.User.Name, Action: "step.skip",
			FlowID: ex.ID, StepID: n.id, Target: st.Name,
			Outcome: provenance.OutcomeSkipped,
		})
		ex.engine.journalAppend(journalRecord{
			Type: journalStepDone, ID: ex.ID, Node: ex.relID(n.id),
		})
		ex.noteProgress()
		return nil
	}
	// Steps without their own variable block execute directly in the
	// enclosing flow scope, so results they Set (resultVar and friends)
	// bind where the rest of the flow can see them.
	scope := parent
	if len(st.Variables) > 0 {
		scope = NewScope(parent)
		if err := scope.declareAll(st.Variables); err != nil {
			n.setError(err)
			n.setState(StateFailed, ex.now())
			return err
		}
	}
	// Virtual-data memoization (docs/VDATA.md): a pure step whose
	// derivation the catalog already holds skips execution entirely. The
	// binding is resolved once, before execution, so a post-success
	// publish uses the exact key the lookup hashed.
	var vd *vdataBinding
	if st.Pure {
		if vd = ex.vdataResolve(st, scope); vd != nil && ex.vdataHit(vd, st, n, scope) {
			return nil
		}
	}
	op := st.Operation.Type
	started := ex.now()
	n.setState(StateRunning, started)
	o.Counter("matrix_steps_total", "op", op).Inc()
	o.StartSpan("step", st.Name, n.id, map[string]string{"op": op})
	finish := func(state State) {
		now := ex.now()
		o.Histogram("matrix_step_seconds", "op", op).Observe(now.Sub(started).Seconds())
		o.EndSpan("step", st.Name, n.id, map[string]string{"op": op, "state": string(state)})
	}
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "step.start",
		FlowID: ex.ID, StepID: n.id, Target: st.Name,
	})
	fail := func(err error) error {
		n.setError(err)
		n.setState(StateFailed, ex.now())
		o.Counter("matrix_step_failures_total", "op", op).Inc()
		finish(StateFailed)
		ex.engine.record(provenance.Record{
			Actor: ex.req.User.Name, Action: "step.finish",
			FlowID: ex.ID, StepID: n.id, Target: st.Name,
			Outcome: provenance.OutcomeError, Err: err.Error(),
		})
		return err
	}
	if err := ex.fireRule(st.Rules, dgl.RuleBeforeEntry, scope, n.id); err != nil {
		return fail(err)
	}
	attempts := 1
	if st.OnError == dgl.OnErrorRetry {
		attempts = st.Retries + 1
	}
	timing := st.Timing()
	var opErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if d := retryDelay(timing, n.id, attempt); d > 0 {
				o.Histogram("retry_backoff_seconds", "op", op).Observe(d.Seconds())
				ex.engine.Clock().Sleep(d)
			}
			o.Counter("matrix_step_retries_total", "op", op).Inc()
			ex.engine.record(provenance.Record{
				Actor: ex.req.User.Name, Action: "step.retry",
				FlowID: ex.ID, StepID: n.id, Target: st.Name,
				Detail: map[string]string{"attempt": fmt.Sprint(attempt + 1)},
			})
		}
		attemptStart := ex.now()
		opErr = ex.execOperation(&st.Operation, scope, n.id)
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
			n.setState(StateCancelled, ex.now())
			finish(StateCancelled)
			return err
		}
	}
	if opErr != nil && errors.Is(opErr, ErrCancelled) {
		// The operation itself was interrupted (a cancellable sleep,
		// typically — the passivation path): the step is cancelled, not
		// failed, so a resurrected run re-executes it cleanly.
		n.setState(StateCancelled, ex.now())
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
			n.setState(StateFailed, ex.now())
			o.Counter("matrix_step_failures_total", "op", op).Inc()
			finish(StateFailed)
			ex.engine.record(provenance.Record{
				Actor: ex.req.User.Name, Action: "step.finish",
				FlowID: ex.ID, StepID: n.id, Target: st.Name,
				Outcome: provenance.OutcomeError, Err: opErr.Error(),
				Detail: map[string]string{"policy": dgl.OnErrorContinue},
			})
			return nil
		}
		return fail(opErr)
	}
	if err := ex.fireRule(st.Rules, dgl.RuleAfterExit, scope, n.id); err != nil {
		return fail(err)
	}
	n.setState(StateSucceeded, ex.now())
	finish(StateSucceeded)
	if vd != nil {
		ex.vdataPublish(vd, st, n, scope)
	}
	ex.engine.record(provenance.Record{
		Actor: ex.req.User.Name, Action: "step.finish",
		FlowID: ex.ID, StepID: n.id, Target: st.Name,
	})
	ex.engine.journalAppend(journalRecord{
		Type: journalStepDone, ID: ex.ID, Node: ex.relID(n.id),
	})
	ex.noteProgress()
	return nil
}

// noteProgress records step progress: the execution has new state worth
// snapshotting (dirty) and is not idle (lastActive) — the two signals
// SnapshotAll and PassivateIdle consult.
func (ex *Execution) noteProgress() {
	ex.dirty.Store(true)
	ex.lastActive.Store(ex.engine.Clock().Now().UnixNano())
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

// fireRule evaluates the named rule (if declared): the condition's string
// value selects the action to execute, per the paper's UserDefinedRule
// semantics ("The Actions are executed if the condition statement
// evaluates to the name of the action"). Boolean conditions select the
// actions named "true"/"false".
func (ex *Execution) fireRule(rules []dgl.Rule, name string, scope *Scope, nodeID string) error {
	rule, ok := dgl.FindRule(rules, name)
	if !ok {
		return nil
	}
	return ex.fireRuleDirect(rule, scope, nodeID)
}

func (ex *Execution) fireRuleDirect(rule dgl.Rule, scope *Scope, nodeID string) error {
	v, err := expr.EvalString(rule.Condition, scope)
	if err != nil {
		return fmt.Errorf("matrix: rule %q condition: %w", rule.Name, err)
	}
	want := v.AsString()
	for _, a := range rule.Actions {
		if a.Name != want {
			continue
		}
		if a.Operation == nil {
			return nil
		}
		if err := ex.execOperation(a.Operation, scope, nodeID+"#"+rule.Name); err != nil {
			return fmt.Errorf("matrix: rule %q action %q: %w", rule.Name, a.Name, err)
		}
		return nil
	}
	return nil // no action matched: nothing to execute
}

// execOperation interpolates the operation's parameters against the live
// scope (late binding) and dispatches to the registered handler.
func (ex *Execution) execOperation(op *dgl.Operation, scope *Scope, nodeID string) error {
	h, ok := ex.engine.handler(op.Type)
	if !ok {
		return fmt.Errorf("matrix: no handler for operation %q", op.Type)
	}
	raw := op.ParamMap()
	params, err := expr.InterpolateAll(raw, scope)
	if err != nil {
		return err
	}
	return h(&OpContext{
		Engine: ex.engine,
		Grid:   ex.engine.grid,
		User:   ex.req.User.Name,
		Params: params,
		Raw:    raw,
		Scope:  scope,
		ExecID: ex.ID,
		NodeID: nodeID,
		Cancel: ex.ctrl.cancelled(),
	})
}
