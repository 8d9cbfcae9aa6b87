// Package trigger implements datagrid triggers (paper §2.2): mappings
// from events in the logical namespace to processes initiated in
// response. A trigger has the three components the paper names —
//
//   - Event: any change in the datagrid namespace (ingest, replicate,
//     delete, metadata update, ...), deliverable before or after the
//     change completes;
//   - Condition: an expression over the event's attributes (and the
//     triggering user/path), in the same language as DGL tConditions;
//   - Actions: datagrid operations or whole DGL flows executed when the
//     condition holds.
//
// Before-phase triggers are synchronous and may veto the operation
// (retention policies). After-phase trigger actions run asynchronously on
// a worker pool — datagrid processes are non-transactional (paper §2.2),
// so actions observe, rather than participate in, the triggering
// operation. Flush drains the queue for deterministic tests and
// experiments.
//
// The paper flags multi-user trigger ordering as an open research issue;
// the firing log this package keeps, combined with the event bus's
// pluggable delivery order, is what experiment E8 uses to measure outcome
// divergence under different orderings.
package trigger

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/expr"
	"datagridflow/internal/matrix"
)

// Errors returned by the manager.
var (
	// ErrExists reports a duplicate trigger name.
	ErrExists = errors.New("trigger: already defined")
	// ErrNotFound reports an unknown trigger name.
	ErrNotFound = errors.New("trigger: not found")
	// ErrClosed reports use of a closed manager.
	ErrClosed = errors.New("trigger: manager closed")
	// ErrQueueFull reports that the firing queue overflowed; the firing
	// is dropped and logged.
	ErrQueueFull = errors.New("trigger: firing queue full")
)

// Trigger is one event-condition-action definition.
type Trigger struct {
	// Name identifies the trigger grid-wide.
	Name string
	// Owner is the grid user who defined the trigger; actions execute
	// with the owner's identity and permissions.
	Owner string
	// Events selects the namespace event types to match (empty = all).
	Events []dgms.EventType
	// Phase selects before- or after-event delivery.
	Phase dgms.Phase
	// Condition is an expression over the event environment: $path,
	// $user, $type, plus every event detail key (e.g. $resource, $size,
	// $attr, $value). Empty means "always".
	Condition string
	// Veto, valid only for Before triggers, rejects the operation when
	// the condition matches.
	Veto bool
	// VetoMessage is the error text for vetoed operations.
	VetoMessage string
	// Operations run in order when the condition matches (After phase).
	// Parameters interpolate against the event environment.
	Operations []dgl.Operation
	// Flow, if set, is launched as a full DGL execution when the
	// condition matches (After phase). The event environment is injected
	// as flow variables ("event_path", "event_user", ...).
	Flow *dgl.Flow
}

// firingTail is how many of the latest activations Firings keeps; the
// trigger_* counters count them all.
const firingTail = 1024

// Firing records one trigger activation for audit and experiments.
type Firing struct {
	Trigger string
	Event   dgms.Event
	At      time.Time
	// Vetoed is set when a before-trigger rejected the operation.
	Vetoed bool
	// Err records an action failure (nil firings succeeded).
	Err error
}

// Manager owns trigger definitions and their subscriptions on one grid.
type Manager struct {
	grid   *dgms.Grid
	engine *matrix.Engine

	mu       sync.Mutex
	closed   bool
	triggers map[string]*registered
	firings  []Firing // newest last; at most 2*firingTail (logFiring)

	queue chan work
	wg    sync.WaitGroup
	idle  sync.Cond // signalled when pending returns to zero
	pend  int
}

type registered struct {
	def   Trigger
	cond  *expr.Expr // nil = always
	subID int64
	fired int64
}

type work struct {
	trig *registered
	ev   dgms.Event
}

// NewManager creates a trigger manager over the grid, executing actions
// through the given engine with `workers` concurrent action runners
// (default 4) and a bounded queue of `queueCap` pending firings (default
// 1024).
func NewManager(grid *dgms.Grid, engine *matrix.Engine, workers, queueCap int) *Manager {
	if workers <= 0 {
		workers = 4
	}
	if queueCap <= 0 {
		queueCap = 1024
	}
	m := &Manager{
		grid:     grid,
		engine:   engine,
		triggers: make(map[string]*registered),
		queue:    make(chan work, queueCap),
	}
	m.idle.L = &m.mu
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Define validates and registers a trigger.
func (m *Manager) Define(t Trigger) error {
	if t.Name == "" {
		return fmt.Errorf("trigger: empty name")
	}
	if t.Owner == "" {
		return fmt.Errorf("trigger %q: empty owner", t.Name)
	}
	if t.Veto && t.Phase != dgms.Before {
		return fmt.Errorf("trigger %q: veto requires the before phase", t.Name)
	}
	if t.Phase == dgms.Before && (len(t.Operations) > 0 || t.Flow != nil) {
		return fmt.Errorf("trigger %q: before-phase triggers may only veto; attach actions to an after trigger", t.Name)
	}
	var cond *expr.Expr
	if t.Condition != "" {
		var err error
		cond, err = expr.Parse(t.Condition)
		if err != nil {
			return fmt.Errorf("trigger %q: condition: %w", t.Name, err)
		}
	}
	known := m.engine.KnownOps()
	for i := range t.Operations {
		op := t.Operations[i]
		if !known[op.Type] {
			return fmt.Errorf("trigger %q: unknown operation %q", t.Name, op.Type)
		}
	}
	if t.Flow != nil {
		if err := dgl.ValidateFlow(t.Flow, known); err != nil {
			return fmt.Errorf("trigger %q: %w", t.Name, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.triggers[t.Name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, t.Name)
	}
	reg := &registered{def: t, cond: cond}
	reg.subID = m.grid.Bus().Subscribe(t.Phase, func(ev dgms.Event) error {
		return m.dispatch(reg, ev)
	}, t.Events...)
	m.triggers[t.Name] = reg
	return nil
}

// Remove unregisters a trigger.
func (m *Manager) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	reg, ok := m.triggers[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	m.grid.Bus().Unsubscribe(reg.subID)
	delete(m.triggers, name)
	return nil
}

// Names lists defined triggers, sorted.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.triggers))
	for n := range m.triggers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FireCount returns how many times the named trigger has matched.
func (m *Manager) FireCount(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg, ok := m.triggers[name]; ok {
		return reg.fired
	}
	return 0
}

// Firings returns a copy of the firing log: the last firingTail
// activations, oldest first.
func (m *Manager) Firings() []Firing {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Firing(nil), m.firings[max(0, len(m.firings)-firingTail):]...)
}

// logFiring appends one activation, dropping the older half of the log
// once it holds twice the tail. Caller holds m.mu.
func (m *Manager) logFiring(f Firing) {
	if len(m.firings) == 2*firingTail {
		m.firings = append(m.firings[:0], m.firings[firingTail:]...)
	}
	m.firings = append(m.firings, f)
}

// eventEnv builds the expression environment for an event. Besides the
// event's own fields and details, conditions can probe the simulated
// instant ($hour, $weekday) — enough to window-gate a trigger ("only
// archive outside working hours") without an external scheduler.
func eventEnv(ev dgms.Event) expr.MapEnv {
	env := expr.MapEnv{
		"path":    expr.String(ev.Path),
		"user":    expr.String(ev.User),
		"type":    expr.String(string(ev.Type)),
		"phase":   expr.String(ev.Phase.String()),
		"hour":    expr.Int(int64(ev.Time.Hour())),
		"weekday": expr.String(ev.Time.Weekday().String()),
	}
	for _, a := range ev.Details() {
		env[a.Key] = expr.String(a.Value)
	}
	return env
}

// dispatch runs on the event publisher's goroutine. Before-phase matches
// may veto; after-phase matches enqueue their actions. Nothing stops a
// trigger whose actions cause an event its condition matches again: an
// event does not say what caused it, so the condition must exclude what
// the actions touch.
func (m *Manager) dispatch(reg *registered, ev dgms.Event) error {
	if reg.cond != nil {
		ok, err := reg.cond.EvalBool(eventEnv(ev))
		if err != nil || !ok {
			return nil // condition errors are treated as non-matches
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	reg.fired++
	m.grid.Obs().Counter("trigger_firings_total", "trigger", reg.def.Name).Inc()
	if reg.def.Phase == dgms.Before {
		m.logFiring(Firing{Trigger: reg.def.Name, Event: ev, At: m.grid.Clock().Now(), Vetoed: reg.def.Veto})
		m.mu.Unlock()
		if reg.def.Veto {
			m.grid.Obs().Counter("trigger_vetoes_total", "trigger", reg.def.Name).Inc()
			msg := reg.def.VetoMessage
			if msg == "" {
				msg = "operation vetoed by trigger " + reg.def.Name
			}
			return errors.New(msg)
		}
		return nil
	}
	m.pend++
	m.mu.Unlock()
	select {
	case m.queue <- work{trig: reg, ev: ev}:
		return nil
	default:
		m.grid.Obs().Counter("trigger_queue_drops_total").Inc()
		m.mu.Lock()
		m.pend--
		m.logFiring(Firing{
			Trigger: reg.def.Name, Event: ev, At: m.grid.Clock().Now(),
			Err: ErrQueueFull,
		})
		m.mu.Unlock()
		return nil
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for w := range m.queue {
		err := m.runActions(w.trig, w.ev)
		if err != nil {
			m.grid.Obs().Counter("trigger_action_errors_total", "trigger", w.trig.def.Name).Inc()
		}
		m.mu.Lock()
		m.logFiring(Firing{
			Trigger: w.trig.def.Name, Event: w.ev,
			At: m.grid.Clock().Now(), Err: err,
		})
		m.pend--
		if m.pend == 0 {
			m.idle.Broadcast()
		}
		m.mu.Unlock()
	}
}

// runActions executes a matched trigger's operations/flow through the
// engine, as the trigger owner, wrapped in a synthetic one-shot flow so
// provenance and status tracking apply.
func (m *Manager) runActions(reg *registered, ev dgms.Event) error {
	env := eventEnv(ev)
	if len(reg.def.Operations) > 0 {
		b := dgl.NewFlow("trigger:" + reg.def.Name)
		for k, v := range envStrings(env) {
			b.Var("event_"+k, v)
		}
		for i, op := range reg.def.Operations {
			interp := dgl.Operation{Type: op.Type}
			for _, p := range op.Params {
				tmpl := expr.CompileTemplate(p.Value)
				val, err := tmpl.Render(env)
				if err != nil {
					return err
				}
				interp.Params = append(interp.Params, dgl.Param{Name: p.Name, Value: val})
			}
			b.Step(fmt.Sprintf("action%d", i), interp)
		}
		ex, err := m.engine.Run(reg.def.Owner, b.Flow())
		if err != nil {
			return err
		}
		if err := ex.Wait(); err != nil {
			return err
		}
	}
	if reg.def.Flow != nil {
		f := *reg.def.Flow
		for k, v := range envStrings(env) {
			f.Variables = append(f.Variables, dgl.Variable{Name: "event_" + k, Value: v})
		}
		ex, err := m.engine.Run(reg.def.Owner, f)
		if err != nil {
			return err
		}
		if err := ex.Wait(); err != nil {
			return err
		}
	}
	return nil
}

func envStrings(env expr.MapEnv) map[string]string {
	out := make(map[string]string, len(env))
	for k, v := range env {
		out[k] = v.AsString()
	}
	return out
}

// Flush blocks until every queued firing has been processed.
func (m *Manager) Flush() {
	m.mu.Lock()
	for m.pend > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
}

// Close drains the queue and stops the workers. Triggers stop firing.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for name, reg := range m.triggers {
		m.grid.Bus().Unsubscribe(reg.subID)
		delete(m.triggers, name)
	}
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
}
