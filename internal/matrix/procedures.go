package matrix

// procedures.go implements datagrid stored procedures: "This will allow
// the datagrid stored procedures to be run from the DGMS itself rather
// than executing the procedure outside the DGMS using client side
// components" (paper §2.2). A procedure is a named, server-held DGL flow
// with declared parameters; the built-in "call" operation invokes it
// from any step, passing parameters as variables. Each invocation runs
// as its own tracked execution, so stored-procedure runs are pausable,
// auditable and queryable like any datagridflow.

import (
	"errors"
	"fmt"
	"sort"

	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
)

// Procedure is one stored procedure.
type Procedure struct {
	// Name is the call target.
	Name string
	// Params declares required parameter names; calls must supply all
	// of them (extra call parameters are passed through as variables).
	Params []string
	// Flow is the body; call parameters are injected as variables in
	// its root scope.
	Flow dgl.Flow
}

// Procedure errors.
var (
	// ErrNoProcedure reports a call to an unknown procedure.
	ErrNoProcedure = errors.New("matrix: unknown procedure")
	// ErrProcedureExists reports a duplicate StoreProcedure.
	ErrProcedureExists = errors.New("matrix: procedure already stored")
)

// StoreProcedure validates and registers a stored procedure.
func (e *Engine) StoreProcedure(p Procedure) error {
	if p.Name == "" {
		return fmt.Errorf("%w: empty procedure name", dgl.ErrInvalid)
	}
	if err := dgl.ValidateFlow(&p.Flow, e.knownOps()); err != nil {
		return fmt.Errorf("procedure %q: %w", p.Name, err)
	}
	seen := map[string]bool{}
	for _, param := range p.Params {
		if param == "" {
			return fmt.Errorf("%w: procedure %q has an empty parameter", dgl.ErrInvalid, p.Name)
		}
		if seen[param] {
			return fmt.Errorf("%w: procedure %q duplicate parameter %q", dgl.ErrInvalid, p.Name, param)
		}
		seen[param] = true
	}
	// The body is lowered once, here; every call runs the same plan.
	sp := &storedProc{Procedure: p}
	sp.plan = buildPlan(&sp.Flow)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.procs[p.Name]; ok {
		return fmt.Errorf("%w: %s", ErrProcedureExists, p.Name)
	}
	e.procs[p.Name] = sp
	return nil
}

// storedProc is a registered procedure with its body's plan.
type storedProc struct {
	Procedure
	plan *plan
}

// DropProcedure removes a stored procedure.
func (e *Engine) DropProcedure(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.procs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoProcedure, name)
	}
	delete(e.procs, name)
	return nil
}

// Procedures lists stored procedure names, sorted.
func (e *Engine) Procedures() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.procs))
	for name := range e.procs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CallProcedure invokes a stored procedure synchronously as the given
// user, with args bound as variables in the body's root scope. It
// returns the completed execution.
func (e *Engine) CallProcedure(user, name string, args map[string]string) (*Execution, error) {
	e.mu.RLock()
	p, ok := e.procs[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProcedure, name)
	}
	for _, required := range p.Params {
		if _, ok := args[required]; !ok {
			return nil, fmt.Errorf("matrix: procedure %s missing argument %q", name, required)
		}
	}
	req := dgl.NewRequest(user, "", p.Flow)
	exec := e.newExecution(req, nil, p.plan)
	for k, v := range args {
		exec.scope.Declare(k, expr.String(v))
	}
	exec.run()
	return exec, nil
}

// registerCallOp installs the "call" operation: parameters other than
// "procedure" are passed to the procedure as arguments (after the usual
// interpolation against the calling scope). The optional "resultVar"
// receives the invocation's execution id for status queries.
func (e *Engine) registerCallOp() {
	e.handlers[dgl.OpCall] = func(c *OpContext) error {
		name, err := c.Param("procedure")
		if err != nil {
			return err
		}
		args := make(map[string]string)
		c.EachParam(func(k, v string) {
			if k != "procedure" && k != "resultVar" {
				args[k] = v
			}
		})
		// Offer the invocation to the federation first: a delegated
		// procedure runs as its own execution on whichever peer placement
		// picks (docs/FEDERATION.md).
		if id, derr, handled := c.Engine.delegateProcedure(c, name, args); handled {
			if v := c.ParamOr("resultVar", ""); v != "" && id != "" {
				c.Scope.Set(v, expr.String(id))
			}
			return derr
		}
		exec, err := c.Engine.CallProcedure(c.User, name, args)
		if err != nil {
			return err
		}
		if v := c.ParamOr("resultVar", ""); v != "" {
			c.Scope.Set(v, expr.String(exec.ID))
		}
		if err := exec.Err(); err != nil {
			return fmt.Errorf("matrix: procedure %s (%s): %w", name, exec.ID, err)
		}
		return nil
	}
}
