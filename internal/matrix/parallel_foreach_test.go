package matrix

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datagridflow/internal/dgl"
)

func TestForEachParallelRunsConcurrently(t *testing.T) {
	e := newTestEngine(t)
	// A true barrier: every iteration must be in flight simultaneously
	// before any may proceed — impossible under sequential execution.
	const iterations = 6
	var arrived atomic.Int32
	gate := make(chan struct{})
	var once sync.Once
	e.RegisterOp("track", func(c *OpContext) error {
		if arrived.Add(1) == iterations {
			once.Do(func() { close(gate) })
		}
		<-gate
		return nil
	})
	flow := dgl.NewFlow("par-each").
		SubFlow(dgl.NewFlow("body").
			ForEachIn("x", "a,b,c,d,e,f").
			ParallelIterations().
			Step("work", dgl.Op("track", nil))).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if arrived.Load() != iterations {
		t.Errorf("arrived = %d", arrived.Load())
	}
	// Status tree has one subtree per iteration with ordered ids.
	st := ex.Status(true)
	body := st.Children[0]
	if len(body.Children) != 6 {
		t.Fatalf("iterations = %d", len(body.Children))
	}
	if !strings.Contains(body.Children[3].ID, "[3]") {
		t.Errorf("iteration id = %q", body.Children[3].ID)
	}
}

func TestForEachParallelCollectsErrors(t *testing.T) {
	e := newTestEngine(t)
	e.RegisterOp("failodd", func(c *OpContext) error {
		if c.ParamOr("x", "") == "1" || c.ParamOr("x", "") == "3" {
			return errors.New("odd failure " + c.ParamOr("x", ""))
		}
		return nil
	})
	flow := dgl.NewFlow("par-each").
		SubFlow(dgl.NewFlow("body").
			Repeat("i", 5).
			ParallelIterations().
			Step("work", dgl.Op("failodd", map[string]string{"x": "$i"}))).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	werr := ex.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "odd failure 1") || !strings.Contains(werr.Error(), "odd failure 3") {
		t.Errorf("joined errors = %v", werr)
	}
	st := ex.Status(true)
	body := st.Children[0]
	counts := body.CountByState()
	if counts[string(StateFailed)] < 2 { // 2 failed iterations (+their steps)
		t.Errorf("failed iterations = %v", counts)
	}
	if counts[string(StateSucceeded)] == 0 {
		t.Errorf("healthy iterations did not complete: %v", counts)
	}
}

func TestForEachParallelScopesIsolated(t *testing.T) {
	e := newTestEngine(t)
	// Each iteration writes an object named after its bound variable —
	// concurrent scopes must not bleed into each other.
	flow := dgl.NewFlow("iso").
		SubFlow(dgl.NewFlow("body").
			ForEachIn("name", "p,q,r,s").
			ParallelIterations().
			Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
				"path": "/grid/$name", "size": "1", "resource": "disk1",
			}))).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p", "q", "r", "s"} {
		if !e.Grid().Namespace().Exists("/grid/" + name) {
			t.Errorf("iteration %s lost its binding", name)
		}
	}
}

func TestPruneAndList(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	var last *Execution
	for i := 0; i < 5; i++ {
		ex, err := e.Run("user", flow)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
		last = ex
	}
	rows := e.ListExecutions()
	if len(rows) != 5 || rows[0].Name != "f" || rows[0].State != StateSucceeded || rows[0].User != "user" {
		t.Fatalf("ListExecutions = %+v", rows)
	}
	// A running execution is never pruned.
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	e.RegisterOp("hold", func(*OpContext) error {
		once.Do(func() { close(started) })
		<-gate
		return nil
	})
	running, err := e.Start("user", dgl.NewFlow("long").Step("s", dgl.Op("hold", nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	dropped := e.Prune(2)
	if dropped != 3 {
		t.Errorf("Prune dropped %d, want 3", dropped)
	}
	ids := e.Executions()
	if len(ids) != 3 { // 2 kept terminal + 1 running
		t.Errorf("after prune: %v", ids)
	}
	if _, ok := e.Execution(running.ID); !ok {
		t.Errorf("running execution pruned")
	}
	// Most recent terminals kept.
	if _, ok := e.Execution(last.ID); !ok {
		t.Errorf("most recent terminal pruned")
	}
	close(gate)
	if err := running.Wait(); err != nil {
		t.Fatal(err)
	}
	// Prune with negative keep clamps to zero.
	if n := e.Prune(-1); n != 3 {
		t.Errorf("final prune dropped %d", n)
	}
	if n := e.Prune(10); n != 0 {
		t.Errorf("prune under budget dropped %d", n)
	}
}
