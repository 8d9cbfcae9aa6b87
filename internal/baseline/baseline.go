// Package baseline implements the two comparators the paper itself
// names, with exactly the limitations it ascribes to them:
//
//   - CronScript (§2.1: "some simple datagrid ILM processes can be
//     implemented using simple scripts and cron jobs"): a hard-wired
//     sequential script run on a schedule. It has no checkpointing — a
//     failure aborts the run and the next cron slot re-runs *everything*
//     — no mid-run status, and no provenance beyond an exit code.
//
//   - ClientEngine (§5: "GridAnt is a client-side workflow engine ...
//     the state information of the workflow is managed at the client
//     side"): a DGL interpreter whose entire execution state lives in
//     the client process. If the client dies, the state dies with it;
//     recovery is a from-scratch re-run that re-attempts every step.
//
// Experiments E6 and E10 quantify these against the matrix engine.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/expr"
)

// ScriptOp is one hard-wired step of a cron script.
type ScriptOp func(g *dgms.Grid) error

// CronScript is a sequential script run from cron. It aborts on the
// first error (shell `set -e`) and keeps no state between runs.
type CronScript struct {
	Name string
	Ops  []ScriptOp

	// RunsAttempted and OpsExecuted count activity across all runs,
	// including every redundantly re-executed op.
	RunsAttempted int
	OpsExecuted   int
}

// Run executes the script once, top to bottom. On failure it returns the
// error with no record of partial progress — the defining limitation.
func (s *CronScript) Run(g *dgms.Grid) error {
	s.RunsAttempted++
	for _, op := range s.Ops {
		s.OpsExecuted++
		if err := op(g); err != nil {
			return fmt.Errorf("baseline: script %s aborted: %w", s.Name, err)
		}
	}
	return nil
}

// RunUntilSuccess models the operational reality of a failing cron job:
// every interval the script re-runs from the top until one run
// completes or maxRuns is exhausted. The grid's clock advances
// by `interval` between attempts.
func (s *CronScript) RunUntilSuccess(g *dgms.Grid, interval time.Duration, maxRuns int) error {
	var lastErr error
	for i := 0; i < maxRuns; i++ {
		if lastErr = s.Run(g); lastErr == nil {
			return nil
		}
		g.Clock().Sleep(interval)
	}
	return fmt.Errorf("baseline: script %s never succeeded in %d runs: %w", s.Name, maxRuns, lastErr)
}

// ErrClientCrashed simulates the client process dying mid-workflow.
var ErrClientCrashed = errors.New("baseline: client engine crashed")

// ClientEngine interprets DGL flows with all state in the client
// process (the GridAnt model). It supports the sequential, parallel
// (serialized — a single client walks the DAG), forEach-inline and while
// patterns, enough to run the same documents the matrix runs in the
// comparison experiments.
type ClientEngine struct {
	grid *dgms.Grid
	user string

	// CrashAfter kills the client after that many executed steps
	// (0 = never). The crash loses the in-memory progress map.
	CrashAfter int

	// StepsExecuted counts every step attempt across all runs, including
	// the redundant re-execution after crashes.
	StepsExecuted int

	// progress is the in-memory completion set — deliberately NOT
	// persisted anywhere.
	progress map[string]bool
}

// NewClientEngine builds a client-side engine over a grid.
func NewClientEngine(g *dgms.Grid, user string) *ClientEngine {
	return &ClientEngine{grid: g, user: user}
}

// Run interprets the flow. A crash (per CrashAfter) returns
// ErrClientCrashed and discards the progress map — a subsequent Run
// starts from zero knowledge, re-attempting completed steps. Steps whose
// re-execution fails with "already exists" are tolerated (the hard-wired
// script idiom of `|| true`), which is precisely the wasted work the
// experiment measures.
func (c *ClientEngine) Run(flow dgl.Flow) error {
	c.progress = make(map[string]bool) // fresh client process
	err := c.runFlow(&flow, NewScopeEnv(nil), "/"+flow.Name)
	if err != nil {
		c.progress = nil // the crash loses everything
	}
	return err
}

// ScopeEnv is a minimal variable scope for the client interpreter.
type ScopeEnv struct {
	vars   map[string]expr.Value
	parent *ScopeEnv
}

// NewScopeEnv creates a scope.
func NewScopeEnv(parent *ScopeEnv) *ScopeEnv {
	return &ScopeEnv{vars: map[string]expr.Value{}, parent: parent}
}

// Lookup implements expr.Env.
func (s *ScopeEnv) Lookup(name string) (expr.Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return expr.Null, false
}

// Set assigns in the nearest declaring scope, else locally.
func (s *ScopeEnv) Set(name string, v expr.Value) {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			cur.vars[name] = v
			return
		}
	}
	s.vars[name] = v
}

func (c *ClientEngine) runFlow(f *dgl.Flow, env *ScopeEnv, path string) error {
	scope := NewScopeEnv(env)
	for _, v := range f.Variables {
		tmpl := expr.CompileTemplate(v.Value)
		val, err := tmpl.Render(scope)
		if err != nil {
			return err
		}
		scope.vars[v.Name] = expr.String(val)
	}
	switch f.Logic.Control {
	case dgl.Sequential, dgl.Parallel: // a single client serializes both
		return c.runChildren(f, scope, path)
	case dgl.While:
		cond, err := expr.Parse(f.Logic.Condition)
		if err != nil {
			return err
		}
		for i := 0; ; i++ {
			if i > 1_000_000 {
				return errors.New("baseline: while guard tripped")
			}
			ok, err := cond.EvalBool(scope)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := c.runChildren(f, scope, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case dgl.ForEach:
		it := f.Logic.Iterate
		if it == nil {
			return errors.New("baseline: forEach without iterate")
		}
		var items []string
		switch {
		case it.In != "":
			tmpl := expr.CompileTemplate(it.In)
			raw, err := tmpl.Render(scope)
			if err != nil {
				return err
			}
			for _, p := range splitList(raw) {
				items = append(items, p)
			}
		case it.Times > 0:
			for i := 0; i < it.Times; i++ {
				items = append(items, fmt.Sprint(i))
			}
		default:
			return errors.New("baseline: client engine supports inline/times iteration only")
		}
		for i, item := range items {
			iter := NewScopeEnv(scope)
			iter.vars[it.Var] = expr.String(item)
			if err := c.runChildren(f, iter, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("baseline: client engine does not support %q", f.Logic.Control)
	}
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			item := trimSpace(s[start:i])
			if item != "" {
				out = append(out, item)
			}
			start = i + 1
		}
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func (c *ClientEngine) runChildren(f *dgl.Flow, env *ScopeEnv, path string) error {
	for i := range f.Flows {
		if err := c.runFlow(&f.Flows[i], env, path+"/"+f.Flows[i].Name); err != nil {
			return err
		}
	}
	for i := range f.Steps {
		if err := c.runStep(&f.Steps[i], env, path+"/"+f.Steps[i].Name); err != nil {
			return err
		}
	}
	return nil
}

func (c *ClientEngine) runStep(st *dgl.Step, env *ScopeEnv, path string) error {
	key := path // in-memory only; gone after a crash
	if c.progress[key] {
		return nil
	}
	c.StepsExecuted++
	if c.CrashAfter > 0 && c.StepsExecuted > c.CrashAfter {
		return ErrClientCrashed
	}
	params := map[string]string{}
	for _, p := range st.Operation.Params {
		tmpl := expr.CompileTemplate(p.Value)
		v, err := tmpl.Render(env)
		if err != nil {
			return err
		}
		params[p.Name] = v
	}
	err := c.execOp(st.Operation.Type, params, env)
	if err != nil {
		// Tolerate effects of a previous incarnation's partial progress.
		if errors.Is(err, dgms.ErrVetoed) {
			return err
		}
		if isAlreadyDone(err) {
			c.progress[key] = true
			return nil
		}
		if st.OnError == dgl.OnErrorContinue {
			return nil
		}
		return err
	}
	c.progress[key] = true
	return nil
}

func isAlreadyDone(err error) bool {
	// Duplicate ingests/collections/replicas all carry the Exists class.
	return errors.Is(err, dgferr.ErrExists)
}

func (c *ClientEngine) execOp(typ string, p map[string]string, env *ScopeEnv) error {
	g := c.grid
	switch typ {
	case dgl.OpNoop:
		return nil
	case dgl.OpFail:
		return errors.New(orDefault(p["message"], "fail operation"))
	case dgl.OpSleep:
		d, err := time.ParseDuration(orDefault(p["duration"], "1s"))
		if err != nil {
			return err
		}
		g.Clock().Sleep(d)
		return nil
	case dgl.OpMakeCollection:
		return g.CreateCollectionAll(c.user, p["path"])
	case dgl.OpIngest:
		var size int64
		fmt.Sscanf(orDefault(p["size"], "0"), "%d", &size)
		return g.Ingest(c.user, p["path"], size, nil, p["resource"])
	case dgl.OpReplicate:
		return g.ReplicateFrom(c.user, p["path"], p["from"], p["to"])
	case dgl.OpMigrate:
		return g.Migrate(c.user, p["path"], p["from"], p["to"])
	case dgl.OpTrim:
		return g.Trim(c.user, p["path"], p["resource"], p["force"] == "true")
	case dgl.OpDelete:
		return g.Delete(c.user, p["path"])
	case dgl.OpVerify:
		_, err := g.Verify(c.user, p["path"])
		return err
	case dgl.OpSetMeta:
		return g.SetMeta(c.user, p["path"], p["attr"], p["value"])
	case dgl.OpMove:
		return g.Move(c.user, p["src"], p["dst"])
	case dgl.OpExec:
		var cpu float64
		fmt.Sscanf(orDefault(p["cpuSeconds"], "1"), "%f", &cpu)
		d := time.Duration(cpu * float64(time.Second))
		g.Clock().Sleep(d)
		g.Meter().Charge(orDefault(p["lane"], "client-compute"), d)
		return nil
	case dgl.OpSetVariable:
		if p["name"] == "" {
			return errors.New("baseline: setVariable needs name")
		}
		env.Set(p["name"], expr.String(p["value"]))
		return nil
	default:
		return fmt.Errorf("baseline: unsupported operation %q", typ)
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
