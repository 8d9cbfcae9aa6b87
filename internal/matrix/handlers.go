package matrix

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
)

// registerBuiltins installs the handlers for every built-in DGL operation
// type. Handlers run with the submitting user's identity; the DGMS
// enforces permissions.
func (e *Engine) registerBuiltins() {
	e.handlers[dgl.OpNoop] = func(*OpContext) error { return nil }

	e.handlers[dgl.OpFail] = func(c *OpContext) error {
		return errors.New(c.ParamOr("message", "fail operation"))
	}

	e.handlers[dgl.OpSleep] = func(c *OpContext) error {
		d, err := time.ParseDuration(c.ParamOr("duration", "1s"))
		if err != nil {
			return fmt.Errorf("matrix: sleep: %w", err)
		}
		// On the wall clock a sleep can span months; it must be
		// interruptible or cancellation (and passivation, which rides
		// on it) would block until the timer fires. The virtual clock
		// advances instantly, so it keeps the plain path.
		if _, real := c.Engine.Clock().(sim.RealClock); real && c.Cancel != nil {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-c.Cancel:
				return ErrCancelled
			}
		}
		c.Engine.Clock().Sleep(d)
		return nil
	}

	// resumeFlow wakes a passivated execution: the store resurrects it
	// under its original id with variables and checkpoints restored,
	// and (unless resume=false) a paused flow is un-paused. Triggers
	// use this as their action when the event a sleeping flow waits
	// for finally arrives.
	e.handlers[dgl.OpResumeFlow] = func(c *OpContext) error {
		id, err := c.Param("id")
		if err != nil {
			return err
		}
		ex, err := c.Engine.ResurrectFor(id, "trigger")
		if err != nil {
			return err
		}
		if c.ParamOr("resume", "true") == "true" {
			ex.Resume()
		}
		if v := c.ParamOr("resultVar", ""); v != "" {
			c.Scope.Set(v, expr.String(ex.ID))
		}
		return nil
	}

	e.handlers[dgl.OpSetVariable] = func(c *OpContext) error {
		name, err := c.Param("name")
		if err != nil {
			return err
		}
		// "expr" is evaluated in the scope (read raw — the evaluator
		// resolves $variables itself); "value" is taken literally after
		// the usual interpolation.
		if v, ok, err := c.EvalParam("expr"); ok {
			if err != nil {
				return fmt.Errorf("matrix: setVariable %s: %w", name, err)
			}
			c.Scope.Set(name, v)
			return nil
		}
		v, ok := c.Lookup("value")
		if !ok {
			return fmt.Errorf("matrix: setVariable %s needs value or expr", name)
		}
		c.Scope.Set(name, expr.String(v))
		return nil
	}

	e.handlers[dgl.OpMakeCollection] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		return c.Grid.CreateCollectionAll(c.User, path)
	}

	e.handlers[dgl.OpIngest] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		res, err := c.Param("resource")
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(c.ParamOr("size", "0"), 10, 64)
		if err != nil {
			return fmt.Errorf("matrix: ingest %s: bad size: %w", path, err)
		}
		var data []byte
		if s, ok := c.Lookup("data"); ok {
			data = []byte(s)
			size = int64(len(data))
		}
		return c.Grid.Ingest(c.User, path, size, data, res)
	}

	e.handlers[dgl.OpReplicate] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		to, err := c.Param("to")
		if err != nil {
			return err
		}
		// Optional "from" pins the source replica (staged distribution).
		return c.Grid.ReplicateFrom(c.User, path, c.ParamOr("from", ""), to)
	}

	e.handlers[dgl.OpMigrate] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		from, err := c.Param("from")
		if err != nil {
			return err
		}
		to, err := c.Param("to")
		if err != nil {
			return err
		}
		return c.Grid.Migrate(c.User, path, from, to)
	}

	e.handlers[dgl.OpTrim] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		res, err := c.Param("resource")
		if err != nil {
			return err
		}
		force := c.ParamOr("force", "false") == "true"
		return c.Grid.Trim(c.User, path, res, force)
	}

	e.handlers[dgl.OpDelete] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		return c.Grid.Delete(c.User, path)
	}

	e.handlers[dgl.OpVerify] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		results, err := c.Grid.Verify(c.User, path)
		if err != nil {
			return err
		}
		bad := 0
		for _, r := range results {
			if !r.OK {
				bad++
			}
		}
		if v := c.ParamOr("resultVar", ""); v != "" {
			c.Scope.Set(v, expr.Int(int64(bad)))
		}
		if bad > 0 && c.ParamOr("failOnMismatch", "true") == "true" {
			return fmt.Errorf("matrix: verify %s: %d replica(s) failed fixity", path, bad)
		}
		return nil
	}

	e.handlers[dgl.OpSetMeta] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		attr, err := c.Param("attr")
		if err != nil {
			return err
		}
		return c.Grid.SetMeta(c.User, path, attr, c.ParamOr("value", ""))
	}

	e.handlers[dgl.OpRegister] = func(c *OpContext) error {
		path, err := c.Param("path")
		if err != nil {
			return err
		}
		res, err := c.Param("resource")
		if err != nil {
			return err
		}
		physID, err := c.Param("physicalID")
		if err != nil {
			return err
		}
		return c.Grid.RegisterInPlace(c.User, path, res, physID)
	}

	e.handlers[dgl.OpMove] = func(c *OpContext) error {
		src, err := c.Param("src")
		if err != nil {
			return err
		}
		dst, err := c.Param("dst")
		if err != nil {
			return err
		}
		return c.Grid.Move(c.User, src, dst)
	}

	// exec runs business logic: in the paper a binary staged to a grid
	// node; here a simulated computation charging cpuSeconds to a named
	// compute lane. The isolation the paper asks for holds: the flow
	// document only names the command and its requirements, never how the
	// grid schedules it.
	e.handlers[dgl.OpExec] = func(c *OpContext) error {
		command, err := c.Param("command")
		if err != nil {
			return err
		}
		if c.ParamOr("fail", "false") == "true" {
			return fmt.Errorf("matrix: exec %s: simulated failure", command)
		}
		cpu, err := strconv.ParseFloat(c.ParamOr("cpuSeconds", "1"), 64)
		if err != nil || cpu < 0 {
			return fmt.Errorf("matrix: exec %s: bad cpuSeconds", command)
		}
		lane := c.ParamOr("lane", "compute")
		d := time.Duration(cpu * float64(time.Second))
		c.Engine.Clock().Sleep(d)
		c.Grid.Meter().Charge(lane, d, 0)
		_, _ = c.Grid.Provenance().Append(provenance.Record{
			Time: c.Engine.Clock().Now(), Actor: c.User, Action: "exec",
			Target: command, FlowID: c.ExecID, StepID: c.NodeID,
			Detail: map[string]string{"lane": lane, "cpuSeconds": c.ParamOr("cpuSeconds", "1")},
		})
		if v := c.ParamOr("resultVar", ""); v != "" {
			c.Scope.Set(v, expr.String("done:"+command))
		}
		return nil
	}
}
