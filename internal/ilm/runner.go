package ilm

import (
	"fmt"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/provenance"
)

// TrackAccesses subscribes the value model to the grid's access events,
// closing the loop the paper describes: domain users read data, the
// data's domain value grows, and ILM placement follows. It returns the
// subscription id (pass to Bus().Unsubscribe to stop tracking).
func TrackAccesses(g *dgms.Grid, m *ValueModel) int64 {
	return g.Bus().Subscribe(dgms.After, func(ev dgms.Event) error {
		m.Record(ev.Path, ev.Time)
		return nil
	}, dgms.EventAccess)
}

// CycleResult summarizes one ILM pass.
type CycleResult struct {
	// StartedAt is when the pass actually ran (after window gating).
	StartedAt time.Time
	// Stats is the planner summary for the pass.
	Stats PlanStats
	// Decisions carried out (after execution; failed steps remain
	// visible in the flow's status and provenance, not here).
	Decisions []Decision
	// ExecID is the matrix execution that applied the plan ("" if the
	// plan was empty).
	ExecID string
}

// Runner drives a policy as a long-run process: each cycle waits for
// the policy's execution window, plans against current values, compiles
// the plan to DGL and executes it on the engine. The runner is
// deliberately synchronous over a simulated clock — a production
// deployment would run one cycle per cron-like tick; experiments run
// many simulated days in milliseconds.
type Runner struct {
	Policy Policy
	Valuer Valuer
	// Interval between cycle starts (default 24h).
	Interval time.Duration

	grid   *dgms.Grid
	engine *matrix.Engine
}

// NewRunner builds a runner for one policy.
func NewRunner(g *dgms.Grid, e *matrix.Engine, p Policy, v Valuer) *Runner {
	return &Runner{Policy: p, Valuer: v, Interval: 24 * time.Hour, grid: g, engine: e}
}

// RunCycle executes one pass: wait for the window, plan, apply.
func (r *Runner) RunCycle() (CycleResult, error) {
	clock := r.grid.Clock()
	now := clock.Now()
	if !r.Policy.Window.Contains(now) {
		next := r.Policy.Window.NextOpen(now)
		clock.Sleep(next.Sub(now))
		now = clock.Now()
	}
	decisions, stats, err := r.Policy.Plan(r.grid, r.Valuer, now)
	if err != nil {
		return CycleResult{}, err
	}
	o := r.grid.Obs()
	o.Counter("ilm_cycles_total", "policy", r.Policy.Name).Inc()
	o.Counter("ilm_objects_examined_total").Add(int64(stats.Examined))
	o.Counter("ilm_migrations_total").Add(int64(stats.Migrates))
	o.Counter("ilm_replications_total").Add(int64(stats.Replicas))
	o.Counter("ilm_deletions_total").Add(int64(stats.Deletes))
	o.Counter("ilm_bytes_tiered_total").Add(stats.BytesToMove)
	res := CycleResult{StartedAt: now, Stats: stats, Decisions: decisions}
	if len(decisions) == 0 {
		_, _ = r.grid.Provenance().Append(provenance.Record{
			Time: now, Actor: r.Policy.Owner, Action: "ilm.cycle",
			Target: r.Policy.Scope, Outcome: provenance.OutcomeSkipped,
		}, provenance.Attr{Key: "policy", Value: r.Policy.Name},
			provenance.Attr{Key: "examined", Value: fmt.Sprint(stats.Examined)})
		return res, nil
	}
	flow := r.Policy.Compile(decisions)
	exec, err := r.engine.Run(r.Policy.Owner, flow)
	if err != nil {
		return CycleResult{}, err
	}
	if err := exec.Wait(); err != nil {
		return res, fmt.Errorf("ilm: cycle execution: %w", err)
	}
	res.ExecID = exec.ID
	_, _ = r.grid.Provenance().Append(provenance.Record{
		Time: clock.Now(), Actor: r.Policy.Owner, Action: "ilm.cycle",
		Target: r.Policy.Scope, FlowID: exec.ID,
	}, provenance.Attr{Key: "policy", Value: r.Policy.Name},
		provenance.Attr{Key: "examined", Value: fmt.Sprint(stats.Examined)},
		provenance.Attr{Key: "migrates", Value: fmt.Sprint(stats.Migrates)},
		provenance.Attr{Key: "deletes", Value: fmt.Sprint(stats.Deletes)})
	return res, nil
}

// RunCycles runs n cycles, advancing the clock by Interval between
// cycle starts, and returns every cycle's result.
func (r *Runner) RunCycles(n int) ([]CycleResult, error) {
	clock := r.grid.Clock()
	out := make([]CycleResult, 0, n)
	for i := 0; i < n; i++ {
		cycleStart := clock.Now()
		res, err := r.RunCycle()
		if err != nil {
			return out, err
		}
		out = append(out, res)
		if i < n-1 {
			nextStart := cycleStart.Add(r.Interval)
			if now := clock.Now(); nextStart.After(now) {
				clock.Sleep(nextStart.Sub(now))
			}
		}
	}
	return out, nil
}
