package baseline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/expr"
	"datagridflow/internal/ilm"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/vfs"
)

func newGrid(t testing.TB) *dgms.Grid {
	t.Helper()
	g := dgms.New(dgms.Options{})
	for _, r := range []*vfs.Resource{
		vfs.New("disk", "sdsc", vfs.Disk, 0),
		vfs.New("tape", "archive", vfs.Archive, 0),
	} {
		if err := g.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCronScriptRun(t *testing.T) {
	g := newGrid(t)
	var order []string
	s := &CronScript{Name: "nightly", Ops: []ScriptOp{
		func(g *dgms.Grid) error { order = append(order, "a"); return nil },
		func(g *dgms.Grid) error { order = append(order, "b"); return nil },
	}}
	if err := s.Run(g); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b]" || s.RunsAttempted != 1 || s.OpsExecuted != 2 {
		t.Errorf("order=%v stats=%+v", order, s)
	}
}

func TestCronScriptAbortsAndReruns(t *testing.T) {
	g := newGrid(t)
	failures := 2
	executed := map[string]int{}
	s := &CronScript{Name: "flaky", Ops: []ScriptOp{
		func(g *dgms.Grid) error { executed["setup"]++; return nil },
		func(g *dgms.Grid) error {
			executed["transfer"]++
			if failures > 0 {
				failures--
				return errors.New("network down")
			}
			return nil
		},
		func(g *dgms.Grid) error { executed["cleanup"]++; return nil },
	}}
	if err := s.RunUntilSuccess(g, time.Hour, 10); err != nil {
		t.Fatal(err)
	}
	// The defining inefficiency: setup re-ran on every attempt.
	if executed["setup"] != 3 || executed["transfer"] != 3 || executed["cleanup"] != 1 {
		t.Errorf("re-execution counts = %v", executed)
	}
	if s.RunsAttempted != 3 {
		t.Errorf("stats = %+v", s)
	}
	// Never-succeeding script gives up after maxRuns.
	bad := &CronScript{Name: "doomed", Ops: []ScriptOp{
		func(g *dgms.Grid) error { return errors.New("always") },
	}}
	if err := bad.RunUntilSuccess(g, time.Minute, 3); err == nil {
		t.Errorf("doomed script succeeded")
	}
	if bad.RunsAttempted != 3 {
		t.Errorf("attempts = %d", bad.RunsAttempted)
	}
}

func TestCronScriptWindow(t *testing.T) {
	g := newGrid(t)
	// Window opens at 20:00; clock starts at midnight... sim.Epoch is
	// 00:00, which is inside a 20→6 window. Use a day window instead.
	s := &CronScript{
		Name:   "windowed",
		Window: ilm.Window{StartHour: 9, EndHour: 17},
		Ops:    []ScriptOp{func(g *dgms.Grid) error { return nil }},
	}
	start := g.Clock().Now() // 00:00 UTC
	if err := s.RunUntilSuccess(g, time.Hour, 5); err != nil {
		t.Fatal(err)
	}
	ranAt := g.Clock().Now()
	if ranAt.Sub(start) < 9*time.Hour {
		t.Errorf("script ran outside the window at %v", ranAt)
	}
}

func TestClientEngineRunsFlows(t *testing.T) {
	g := newGrid(t)
	c := NewClientEngine(g, "user")
	flow := dgl.NewFlow("pipeline").
		Var("base", "/grid/data").
		SubFlow(dgl.NewFlow("setup").
			Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "$base"}))).
		SubFlow(dgl.NewFlow("load").ForEachIn("f", "a,b,c").
			Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
				"path": "$base/$f", "size": "100", "resource": "disk",
			}))).
		SubFlow(dgl.NewFlow("protect").Parallel().
			Step("rep-a", dgl.Op(dgl.OpReplicate, map[string]string{"path": "$base/a", "to": "tape"})).
			Step("rep-b", dgl.Op(dgl.OpReplicate, map[string]string{"path": "$base/b", "to": "tape"}))).Flow()
	if err := c.Run(flow); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/grid/data/a", "/grid/data/b", "/grid/data/c"} {
		if !g.Namespace().Exists(p) {
			t.Errorf("%s missing", p)
		}
	}
	reps, _ := g.Namespace().Replicas("/grid/data/a")
	if len(reps) != 2 {
		t.Errorf("replicas = %d", len(reps))
	}
	if c.StepsExecuted != 6 {
		t.Errorf("StepsExecuted = %d", c.StepsExecuted)
	}
}

func TestClientEngineWhileAndVars(t *testing.T) {
	g := newGrid(t)
	c := NewClientEngine(g, "user")
	// The client engine supports literal setVariable only; drive the
	// loop with an inline count instead.
	flow := dgl.NewFlow("loop").
		SubFlow(dgl.NewFlow("body").Repeat("i", 3).
			Step("touch", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/it$i"}))).Flow()
	if err := c.Run(flow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !g.Namespace().Exists(fmt.Sprintf("/grid/it%d", i)) {
			t.Errorf("iteration %d missing", i)
		}
	}
}

func TestClientEngineCrashLosesState(t *testing.T) {
	g := newGrid(t)
	c := NewClientEngine(g, "user")
	b := dgl.NewFlow("job")
	for i := 0; i < 10; i++ {
		b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpIngest, map[string]string{
			"path": fmt.Sprintf("/grid/f%d", i), "size": "10", "resource": "disk",
		}))
	}
	flow := b.Flow()
	c.CrashAfter = 4
	if err := c.Run(flow); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("crash = %v", err)
	}
	firstRun := c.StepsExecuted
	if firstRun != 5 { // 4 completed + the fatal 5th attempt
		t.Errorf("steps before crash = %d", firstRun)
	}
	// Recovery: a fresh run must re-attempt everything (state was only in
	// the dead client). Completed ingests surface as "already exists" and
	// are tolerated, but they still cost a step execution each.
	c.CrashAfter = 0
	if err := c.Run(flow); err != nil {
		t.Fatal(err)
	}
	total := c.StepsExecuted
	if total != firstRun+10 {
		t.Errorf("recovery executed %d steps, want full re-run (%d)", total-firstRun, 10)
	}
	for i := 0; i < 10; i++ {
		if !g.Namespace().Exists(fmt.Sprintf("/grid/f%d", i)) {
			t.Errorf("f%d missing after recovery", i)
		}
	}
}

// TestServerVsClientRecovery contrasts the matrix engine's checkpointed
// restart with the client engine's from-scratch re-run on the same
// document — the E10 comparison in miniature.
func TestServerVsClientRecovery(t *testing.T) {
	mkFlow := func(prefix string, n int) dgl.Flow {
		b := dgl.NewFlow("job")
		for i := 0; i < n; i++ {
			b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpIngest, map[string]string{
				"path": fmt.Sprintf("%s/f%d", prefix, i), "size": "10", "resource": "disk",
			}))
		}
		return b.Flow()
	}
	// Server side: fail step 5 once, restart skips 0-4.
	g1 := newGrid(t)
	e := matrix.NewEngine(g1)
	attempted := 0
	shouldFail := true
	e.RegisterOp("maybe", func(c *matrix.OpContext) error {
		attempted++
		if shouldFail {
			return errors.New("outage")
		}
		return nil
	})
	sb := dgl.NewFlow("job")
	for i := 0; i < 5; i++ {
		sb.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpIngest, map[string]string{
			"path": fmt.Sprintf("/grid/s/f%d", i), "size": "10", "resource": "disk",
		}))
	}
	sb.Step("gate", dgl.Op("maybe", nil))
	if err := g1.CreateCollectionAll(g1.Admin(), "/grid/s"); err != nil {
		t.Fatal(err)
	}
	ex, err := e.Run("user", sb.Flow())
	if err != nil {
		t.Fatal(err)
	}
	_ = ex.Wait()
	shouldFail = false
	ex2, err := e.Restart(ex.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	serverRedundant := 0 // ingest steps re-executed by the server engine
	st := ex2.Status(true)
	for _, child := range st.Children {
		if child.Kind == "step" && child.State == "succeeded" && child.Name != "gate" {
			serverRedundant++
		}
	}
	// Client side: crash after 5 of 10 steps, full re-run.
	g2 := newGrid(t)
	c := NewClientEngine(g2, "user")
	if err := g2.CreateCollectionAll(g2.Admin(), "/grid/c"); err != nil {
		t.Fatal(err)
	}
	flow := mkFlow("/grid/c", 10)
	c.CrashAfter = 5
	_ = c.Run(flow)
	c.CrashAfter = 0
	if err := c.Run(flow); err != nil {
		t.Fatal(err)
	}
	clientRedundant := c.StepsExecuted - 10 - 1 // total minus useful minus the crash attempt
	if serverRedundant != 0 {
		t.Errorf("server re-executed %d completed steps", serverRedundant)
	}
	if clientRedundant <= 0 {
		t.Errorf("client redundant work = %d, expected > 0", clientRedundant)
	}
}

func TestClientEngineUnsupported(t *testing.T) {
	g := newGrid(t)
	c := NewClientEngine(g, "user")
	sw := dgl.NewFlow("sw").SwitchOn("'x'").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	if err := c.Run(sw); err == nil {
		t.Errorf("switch should be unsupported client-side")
	}
	q := dgl.NewFlow("q").ForEachQuery("p", dgl.NSQuery{Scope: "/grid"}).
		Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	if err := c.Run(q); err == nil {
		t.Errorf("query iteration should be unsupported client-side")
	}
	bad := dgl.NewFlow("b").Step("s", dgl.Op("mystery", nil)).Flow()
	if err := c.Run(bad); err == nil {
		t.Errorf("unknown op accepted")
	}
	failFlow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpFail, nil)).Flow()
	if err := c.Run(failFlow); err == nil {
		t.Errorf("fail op succeeded")
	}
	// onError=continue tolerated.
	contFlow := dgl.NewFlow("f").
		StepWith(dgl.Step{Name: "s", OnError: dgl.OnErrorContinue, Operation: dgl.Operation{Type: dgl.OpFail}}).
		Step("after", dgl.Op(dgl.OpNoop, nil)).Flow()
	if err := c.Run(contFlow); err != nil {
		t.Errorf("continue policy: %v", err)
	}
}

func TestClientEngineOps(t *testing.T) {
	g := newGrid(t)
	c := NewClientEngine(g, "user")
	flow := dgl.NewFlow("all").
		Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/x"})).
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/x/a", "size": "64", "resource": "disk"})).
		Step("meta", dgl.Op(dgl.OpSetMeta, map[string]string{"path": "/grid/x/a", "attr": "k", "value": "v"})).
		Step("rep", dgl.Op(dgl.OpReplicate, map[string]string{"path": "/grid/x/a", "to": "tape"})).
		Step("verify", dgl.Op(dgl.OpVerify, map[string]string{"path": "/grid/x/a"})).
		Step("trim", dgl.Op(dgl.OpTrim, map[string]string{"path": "/grid/x/a", "resource": "tape"})).
		Step("mv", dgl.Op(dgl.OpMove, map[string]string{"src": "/grid/x/a", "dst": "/grid/x/b"})).
		Step("exec", dgl.Op(dgl.OpExec, map[string]string{"command": "c", "cpuSeconds": "2"})).
		Step("sleep", dgl.Op(dgl.OpSleep, map[string]string{"duration": "1s"})).
		Step("del", dgl.Op(dgl.OpDelete, map[string]string{"path": "/grid/x/b"})).Flow()
	if err := c.Run(flow); err != nil {
		t.Fatal(err)
	}
	if g.Namespace().Exists("/grid/x/b") {
		t.Errorf("delete failed")
	}
	if g.Meter().Busy("client-compute") != 2*time.Second {
		t.Errorf("exec not charged")
	}
}

func TestClientEngineWhileLoop(t *testing.T) {
	g := newGrid(t)
	c := NewClientEngine(g, "user")
	flow := dgl.NewFlow("w").
		Var("n", "0").
		SubFlow(dgl.NewFlow("body").WhileLoop("$n < 3").
			Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/w$n"})).
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "n", "value": "x"}))).Flow()
	// The client engine's setVariable is literal-only, so drive the loop
	// break by overwriting n with a non-numeric value... which makes
	// "$n < 3" false on the second check ("x" vs numeric compare is
	// lexical: "x" > "3"). The loop runs once.
	if err := c.Run(flow); err != nil {
		t.Fatal(err)
	}
	if !g.Namespace().Exists("/grid/w0") {
		t.Errorf("first iteration missing")
	}
	if g.Namespace().Exists("/grid/w1") {
		t.Errorf("loop did not stop")
	}
	// Condition errors propagate.
	bad := dgl.NewFlow("w").Flow()
	bad.Logic.Control = dgl.While
	bad.Logic.Condition = "1/0 > 0"
	bad.Steps = []dgl.Step{{Name: "s", Operation: dgl.Operation{Type: dgl.OpNoop}}}
	if err := c.Run(bad); err == nil {
		t.Errorf("condition error swallowed")
	}
	// Variable interpolation errors propagate.
	badVar := dgl.NewFlow("v").Var("x", "${unterminated").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	if err := c.Run(badVar); err == nil {
		t.Errorf("bad variable accepted")
	}
	// forEach without iterate.
	noIter := dgl.NewFlow("fe").Flow()
	noIter.Logic.Control = dgl.ForEach
	noIter.Steps = []dgl.Step{{Name: "s", Operation: dgl.Operation{Type: dgl.OpNoop}}}
	if err := c.Run(noIter); err == nil {
		t.Errorf("forEach without iterate accepted")
	}
	// setVariable without name.
	noName := dgl.NewFlow("sv").Step("s", dgl.Op(dgl.OpSetVariable, map[string]string{"value": "1"})).Flow()
	if err := c.Run(noName); err == nil {
		t.Errorf("setVariable without name accepted")
	}
	// Bad sleep duration.
	badSleep := dgl.NewFlow("sl").Step("s", dgl.Op(dgl.OpSleep, map[string]string{"duration": "zz"})).Flow()
	if err := c.Run(badSleep); err == nil {
		t.Errorf("bad sleep accepted")
	}
}

func TestScopeEnvSet(t *testing.T) {
	outer := NewScopeEnv(nil)
	outer.vars["a"] = expr.Int(1)
	inner := NewScopeEnv(outer)
	inner.Set("a", expr.Int(5)) // updates outer binding
	if v, _ := outer.Lookup("a"); !v.Equal(expr.Int(5)) {
		t.Errorf("Set missed declaring scope")
	}
	inner.Set("fresh", expr.Int(7)) // declares locally
	if _, ok := outer.Lookup("fresh"); ok {
		t.Errorf("local binding leaked")
	}
	if v, ok := inner.Lookup("fresh"); !ok || !v.Equal(expr.Int(7)) {
		t.Errorf("local binding lost")
	}
}

func TestSplitListAndTrim(t *testing.T) {
	got := splitList(" a, b ,, c\t,")
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("splitList = %v", got)
	}
	if trimSpace("  ") != "" || trimSpace("\tx ") != "x" || trimSpace("") != "" {
		t.Errorf("trimSpace wrong")
	}
}
