package matrix

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/expr"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/vfs"
)

// newTestEngine builds an engine over a small two-domain grid.
func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	g := dgms.New(dgms.Options{})
	for _, r := range []*vfs.Resource{
		vfs.New("disk1", "sdsc", vfs.Disk, 0),
		vfs.New("disk2", "cern", vfs.Disk, 0),
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
	return NewEngine(g)
}

func mustRun(t *testing.T, e *Engine, flow dgl.Flow) *Execution {
	t.Helper()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatalf("flow failed: %v\nstatus: %+v", err, ex.Status(true))
	}
	return ex
}

func TestSequentialFlow(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("seq").
		Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/a"})).
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/a/f1", "size": "100", "resource": "disk1"})).
		Step("replicate", dgl.Op(dgl.OpReplicate, map[string]string{"path": "/grid/a/f1", "to": "disk2"})).Flow()
	ex := mustRun(t, e, flow)
	reps, err := e.Grid().Namespace().Replicas("/grid/a/f1")
	if err != nil || len(reps) != 2 {
		t.Fatalf("replicas = %v, %v", reps, err)
	}
	st := ex.Status(true)
	if st.State != string(StateSucceeded) || len(st.Children) != 3 {
		t.Errorf("status = %+v", st)
	}
	// Order is preserved: steps started in document order.
	parse := func(s string) time.Time {
		tt, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatalf("bad timestamp %q: %v", s, err)
		}
		return tt
	}
	for i := 1; i < len(st.Children); i++ {
		if parse(st.Children[i].Started).Before(parse(st.Children[i-1].Started)) {
			t.Errorf("sequential steps out of order")
		}
	}
}

func TestSequentialAbortsOnFailure(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("abort").
		Step("ok", dgl.Op(dgl.OpNoop, nil)).
		Step("bad", dgl.Op(dgl.OpFail, map[string]string{"message": "kaput"})).
		Step("never", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("want failure, got %v", err)
	}
	st := ex.Status(true)
	if st.State != string(StateFailed) {
		t.Errorf("root state = %s", st.State)
	}
	states := map[string]string{}
	for _, c := range st.Children {
		states[c.Name] = c.State
	}
	if states["ok"] != string(StateSucceeded) || states["bad"] != string(StateFailed) {
		t.Errorf("states = %v", states)
	}
	if _, ran := states["never"]; ran {
		t.Errorf("step after failure was scheduled: %v", states)
	}
}

func TestParallelFlow(t *testing.T) {
	e := newTestEngine(t)
	b := dgl.NewFlow("par").Parallel()
	for i := 0; i < 8; i++ {
		b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpIngest, map[string]string{
			"path": fmt.Sprintf("/grid/p%d", i), "size": "10", "resource": "disk1",
		}))
	}
	ex := mustRun(t, e, b.Flow())
	st := ex.Status(true)
	if got := st.CountByState()[string(StateSucceeded)]; got != 9 { // 8 steps + root
		t.Errorf("succeeded = %d", got)
	}
	for i := 0; i < 8; i++ {
		if !e.Grid().Namespace().Exists(fmt.Sprintf("/grid/p%d", i)) {
			t.Errorf("p%d missing", i)
		}
	}
}

func TestParallelCollectsAllErrors(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("par").Parallel().
		Step("a", dgl.Op(dgl.OpFail, map[string]string{"message": "first"})).
		Step("b", dgl.Op(dgl.OpNoop, nil)).
		Step("c", dgl.Op(dgl.OpFail, map[string]string{"message": "second"})).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	werr := ex.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "first") || !strings.Contains(werr.Error(), "second") {
		t.Errorf("joined errors = %v", werr)
	}
	// The healthy sibling still completed (no cancellation of siblings).
	st := ex.Status(true)
	for _, c := range st.Children {
		if c.Name == "b" && c.State != string(StateSucceeded) {
			t.Errorf("sibling b = %s", c.State)
		}
	}
}

func TestWhileLoop(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("loop").
		Var("n", "0").
		SubFlow(dgl.NewFlow("body").
			WhileLoop("$n < 5").
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "n", "expr": "$n + 1"}))).Flow()
	ex := mustRun(t, e, flow)
	if got := ex.Vars()["n"]; got != "5" {
		t.Errorf("n = %q, want 5", got)
	}
	// 5 iterations visible in the status tree.
	st := ex.Status(true)
	body := st.Children[0]
	if len(body.Children) != 5 {
		t.Errorf("iterations = %d", len(body.Children))
	}
	if !strings.Contains(body.Children[2].ID, "[2]") {
		t.Errorf("iteration id = %q", body.Children[2].ID)
	}
}

// TestIterationIDs pins the exact strings nameIters builds, two digits
// included: the iteration's name and id are the parent's plus "[i]", and
// the id is what a status query is addressed by.
func TestIterationIDs(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("outer").
		SubFlow(dgl.NewFlow("body").Repeat("i", 13).
			Step("work", dgl.Op(dgl.OpNoop, nil))).Flow()
	ex := mustRun(t, e, flow)
	body := ex.Status(true).Children[0]
	if len(body.Children) != 13 {
		t.Fatalf("iterations = %d", len(body.Children))
	}
	for _, i := range []int{0, 9, 12} {
		it := body.Children[i]
		suffix := fmt.Sprintf("[%d]", i)
		if it.Name != "body"+suffix || it.ID != body.ID+suffix {
			t.Errorf("iteration %d: name %q id %q, want %q and %q", i, it.Name, it.ID, "body"+suffix, body.ID+suffix)
		}
		if len(it.Children) != 1 || it.Children[0].ID != body.ID+suffix+"/work" {
			t.Errorf("iteration %d: children %+v, want one step %q", i, it.Children, body.ID+suffix+"/work")
		}
		if st, err := e.Status(it.ID, false); err != nil || st.Name != it.Name {
			t.Errorf("Status(%q) = %q, %v", it.ID, st.Name, err)
		}
	}
}

func TestWhileLoopGuard(t *testing.T) {
	g := dgms.New(dgms.Options{})
	e := NewEngineConfig(g, Config{MaxLoopIterations: 10})
	flow := dgl.NewFlow("forever").WhileLoop("true").
		Step("spin", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex, err := e.Run(g.Admin(), flow)
	if err != nil {
		t.Fatal(err)
	}
	if werr := ex.Wait(); werr == nil || !strings.Contains(werr.Error(), "exceeded") {
		t.Errorf("guard = %v", werr)
	}
}

// TestWhileLoopCap: the cap bounds the passes a loop runs, not the times
// its guard is evaluated — a loop whose guard turns false after exactly
// MaxLoopIterations passes has ended, not run away. The caps end inside
// a block, on a block's last pass (1+2+4) and past the largest block; a
// loop opens its passes by the block, but never one the cap forbids.
func TestWhileLoopCap(t *testing.T) {
	opened := 0
	blockOpened = func(_ *planFlow, regions int) { opened += regions }
	defer func() { blockOpened = nil }()
	for _, limit := range []int{4, 7, 40} {
		g := dgms.New(dgms.Options{})
		e := NewEngineConfig(g, Config{MaxLoopIterations: limit})
		for _, passes := range []int{limit - 1, limit, limit + 1} {
			flow := dgl.NewFlow("loop").Var("i", "0").WhileLoop(fmt.Sprintf("$i < %d", passes)).
				Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"})).Flow()
			opened = 0
			ex, err := e.Run(g.Admin(), flow)
			if err != nil {
				t.Fatal(err)
			}
			werr, ran := ex.Wait(), len(ex.Status(true).Children)
			if passes <= limit {
				if werr != nil || ran != passes {
					t.Errorf("a loop of %d passes under a cap of %d: %d ran, error %v", passes, limit, ran, werr)
				}
			} else if want := fmt.Sprintf("matrix: while loop in loop exceeded %d iterations", limit); werr == nil || werr.Error() != want || ran != limit {
				t.Errorf("a loop of %d passes under a cap of %d: %d ran, error %v, want %q", passes, limit, ran, werr, want)
			}
			if opened > limit {
				t.Errorf("a loop of %d passes under a cap of %d opened %d passes", passes, limit, opened)
			}
		}
	}
}

func TestForEachInline(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("fe").
		ForEachIn("f", "alpha, beta ,gamma,").
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/$f", "size": "10", "resource": "disk1",
		})).Flow()
	mustRun(t, e, flow)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if !e.Grid().Namespace().Exists("/grid/" + name) {
			t.Errorf("%s missing", name)
		}
	}
}

func TestForEachTimes(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("rep").
		Var("total", "0").
		SubFlow(dgl.NewFlow("body").Repeat("i", 4).
			Step("add", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "total", "expr": "$total + $i"}))).Flow()
	ex := mustRun(t, e, flow)
	if got := ex.Vars()["total"]; got != "6" { // 0+1+2+3
		t.Errorf("total = %q", got)
	}
}

func TestForEachQuery(t *testing.T) {
	e := newTestEngine(t)
	g := e.Grid()
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/grid/q%d", i)
		if err := g.Ingest("user", path, 10, nil, "disk1"); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := g.SetMeta("user", path, "stage", "raw"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Late binding: the query runs at loop start, selecting the raw files.
	flow := dgl.NewFlow("process").
		ForEachQuery("path", dgl.NSQuery{
			Scope: "/grid", ObjectsOnly: true,
			Conditions: []dgl.QueryCond{{Attr: "stage", Op: "=", Value: "raw"}},
		}).
		Step("mark", dgl.Op(dgl.OpSetMeta, map[string]string{
			"path": "$path", "attr": "stage", "value": "processed",
		})).Flow()
	mustRun(t, e, flow)
	got, _ := g.Namespace().Search(namespace.Query{
		ObjectsOnly: true,
		Conditions:  []namespace.Condition{{Attr: "stage", Op: namespace.OpEq, Value: "processed"}},
	})
	if len(got) != 3 {
		t.Errorf("processed = %d, want 3", len(got))
	}
}

func TestSwitch(t *testing.T) {
	e := newTestEngine(t)
	mk := func(tier string) dgl.Flow {
		return dgl.NewFlow("route").
			Var("tier", tier).
			Var("chose", "").
			SubFlow(dgl.NewFlow("sel").SwitchOn("$tier").
				SubFlow(dgl.NewFlow("hot").Step("h", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "chose", "value": "hot"}))).
				SubFlow(dgl.NewFlow("cold").Step("c", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "chose", "value": "cold"}))).
				SubFlow(dgl.NewFlow("default").Step("d", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "chose", "value": "default"})))).Flow()
	}
	ex := mustRun(t, e, mk("hot"))
	if ex.Vars()["chose"] != "hot" {
		t.Errorf("switch hot chose %q", ex.Vars()["chose"])
	}
	ex = mustRun(t, e, mk("warm"))
	if ex.Vars()["chose"] != "default" {
		t.Errorf("switch default chose %q", ex.Vars()["chose"])
	}
	// Non-selected arms are reported as skipped.
	st := ex.Status(true)
	sel := st.Children[0]
	counts := sel.CountByState()
	if counts[string(StateSkipped)] != 2 {
		t.Errorf("skipped arms = %v", counts)
	}
	// No arm and no default: everything skipped, flow succeeds.
	noDefault := dgl.NewFlow("route").
		Var("tier", "none").
		SubFlow(dgl.NewFlow("sel").SwitchOn("$tier").
			SubFlow(dgl.NewFlow("hot").Step("h", dgl.Op(dgl.OpNoop, nil)))).Flow()
	mustRun(t, e, noDefault)
}

func TestVariableScoping(t *testing.T) {
	e := newTestEngine(t)
	// Inner flow shadows outer variable; outer survives unchanged.
	flow := dgl.NewFlow("outer").
		Var("x", "outer").
		Var("z", "").
		SubFlow(dgl.NewFlow("inner").
			Var("x", "inner").
			Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "y", "expr": "$x"}))).
		SubFlow(dgl.NewFlow("tail").
			Step("capture", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "z", "expr": "$x"}))).Flow()
	ex := mustRun(t, e, flow)
	vars := ex.Vars()
	if vars["x"] != "outer" || vars["z"] != "outer" {
		t.Errorf("outer scope corrupted: %v", vars)
	}
	// y was set inside the inner scope; since it wasn't declared anywhere,
	// Set declared it in the step's local scope — invisible at root.
	if _, ok := vars["y"]; ok {
		t.Errorf("inner variable leaked to root: %v", vars)
	}
	// Declared-at-root variables are updated through nested scopes.
	flow2 := dgl.NewFlow("outer").
		Var("counter", "0").
		SubFlow(dgl.NewFlow("inner").
			Step("bump", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "counter", "expr": "$counter + 41"}))).Flow()
	ex2 := mustRun(t, e, flow2)
	if ex2.Vars()["counter"] != "41" {
		t.Errorf("counter = %q", ex2.Vars()["counter"])
	}
}

func TestVariableInterpolationInDeclarations(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("f").
		Var("base", "/grid").
		Var("dir", "$base/sub").
		Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "$dir"})).Flow()
	mustRun(t, e, flow)
	if !e.Grid().Namespace().Exists("/grid/sub") {
		t.Errorf("interpolated declaration failed")
	}
}

func TestRulesBeforeEntryAfterExit(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("ruled").
		Var("log", "").
		OnEntry(dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "value": "entered"})).
		OnExit(dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "expr": "$log + '+exited'"})).
		Step("work", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex := mustRun(t, e, flow)
	if ex.Vars()["log"] != "entered+exited" {
		t.Errorf("rule order: %q", ex.Vars()["log"])
	}
}

func TestRuleConditionSelectsAction(t *testing.T) {
	e := newTestEngine(t)
	// UserDefinedRule as switch: condition evaluates to the action name.
	mk := func(size string) dgl.Flow {
		rule := dgl.Rule{
			Name:      dgl.RuleBeforeEntry,
			Condition: "$size > 1000 && 'big' || 'small'",
			Actions: []dgl.Action{
				{Name: "big", Operation: &dgl.Operation{Type: dgl.OpSetVariable,
					Params: []dgl.Param{{Name: "name", Value: "class"}, {Name: "value", Value: "big"}}}},
				{Name: "small", Operation: &dgl.Operation{Type: dgl.OpSetVariable,
					Params: []dgl.Param{{Name: "name", Value: "class"}, {Name: "value", Value: "small"}}}},
			},
		}
		return dgl.NewFlow("r").Var("size", size).Var("class", "unset").Rule(rule).
			Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	}
	// Note: "cond && 'big' || 'small'" returns booleans in this language,
	// so use explicit string-valued conditions instead.
	ruleStr := dgl.Rule{
		Name:      dgl.RuleBeforeEntry,
		Condition: "coalesce($label, 'none')",
		Actions: []dgl.Action{
			{Name: "alpha", Operation: &dgl.Operation{Type: dgl.OpSetVariable,
				Params: []dgl.Param{{Name: "name", Value: "hit"}, {Name: "value", Value: "alpha"}}}},
			{Name: "none", Operation: &dgl.Operation{Type: dgl.OpSetVariable,
				Params: []dgl.Param{{Name: "name", Value: "hit"}, {Name: "value", Value: "none"}}}},
		},
	}
	flow := dgl.NewFlow("r").Var("label", "alpha").Var("hit", "unset").Rule(ruleStr).
		Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex := mustRun(t, e, flow)
	if ex.Vars()["hit"] != "alpha" {
		t.Errorf("rule selected %q", ex.Vars()["hit"])
	}
	// Boolean conditions select "true"/"false" action names.
	_ = mk
	boolRule := dgl.Rule{
		Name:      dgl.RuleBeforeEntry,
		Condition: "$size > 1000",
		Actions: []dgl.Action{
			{Name: "true", Operation: &dgl.Operation{Type: dgl.OpSetVariable,
				Params: []dgl.Param{{Name: "name", Value: "class"}, {Name: "value", Value: "big"}}}},
			{Name: "false", Operation: &dgl.Operation{Type: dgl.OpSetVariable,
				Params: []dgl.Param{{Name: "name", Value: "class"}, {Name: "value", Value: "small"}}}},
		},
	}
	f2 := dgl.NewFlow("r2").Var("size", "2048").Var("class", "unset").Rule(boolRule).
		Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex2 := mustRun(t, e, f2)
	if ex2.Vars()["class"] != "big" {
		t.Errorf("bool rule selected %q", ex2.Vars()["class"])
	}
	// No matching action: nothing runs, flow proceeds.
	noMatch := dgl.Rule{Name: dgl.RuleBeforeEntry, Condition: "'zzz'",
		Actions: []dgl.Action{{Name: "aaa", Operation: &dgl.Operation{Type: dgl.OpFail}}}}
	f3 := dgl.NewFlow("r3").Rule(noMatch).Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	mustRun(t, e, f3)
	// Action without operation is legal and does nothing.
	noOp := dgl.Rule{Name: dgl.RuleBeforeEntry, Condition: "'x'",
		Actions: []dgl.Action{{Name: "x"}}}
	f4 := dgl.NewFlow("r4").Rule(noOp).Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	mustRun(t, e, f4)
}

func TestStepRetryPolicy(t *testing.T) {
	e := newTestEngine(t)
	// A handler that fails twice then succeeds.
	var mu sync.Mutex
	calls := 0
	e.RegisterOp("flaky", func(c *OpContext) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	flow := dgl.NewFlow("retry").
		StepWith(dgl.Step{Name: "s", OnError: dgl.OnErrorRetry, Retries: 5,
			Operation: dgl.Operation{Type: "flaky"}}).Flow()
	mustRun(t, e, flow)
	if calls != 3 {
		t.Errorf("calls = %d", calls)
	}
	// Retry exhaustion fails the step.
	calls = -100 // never succeeds within retries
	ex, err := e.Run("user", dgl.NewFlow("retry2").
		StepWith(dgl.Step{Name: "s", OnError: dgl.OnErrorRetry, Retries: 2,
			Operation: dgl.Operation{Type: "flaky"}}).Flow())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Wait() == nil {
		t.Errorf("exhausted retries should fail")
	}
	// Retry provenance recorded.
	n := e.Grid().Provenance().Count(provenance.Filter{Action: "step.retry"})
	if n == 0 {
		t.Errorf("no retry provenance")
	}
}

func TestStepContinuePolicy(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("cont").
		StepWith(dgl.Step{Name: "bad", OnError: dgl.OnErrorContinue,
			Operation: dgl.Operation{Type: dgl.OpFail}}).
		Step("after", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "reached", "value": "yes"})).Flow()
	ex := mustRun(t, e, flow)
	if ex.Vars()["reached"] != "yes" {
		t.Errorf("continue policy did not continue")
	}
	st := ex.Status(true)
	if st.Children[0].State != string(StateFailed) {
		t.Errorf("failed step not marked: %s", st.Children[0].State)
	}
	if st.State != string(StateSucceeded) {
		t.Errorf("flow state = %s", st.State)
	}
}

func TestStepVariablesAndRules(t *testing.T) {
	e := newTestEngine(t)
	st := dgl.Step{
		Name:      "s",
		Variables: []dgl.Variable{{Name: "local", Value: "42"}},
		Rules: []dgl.Rule{{
			Name: dgl.RuleAfterExit, Condition: "$local == 42",
			Actions: []dgl.Action{{Name: "true", Operation: &dgl.Operation{
				Type:   dgl.OpSetVariable,
				Params: []dgl.Param{{Name: "name", Value: "seen"}, {Name: "value", Value: "yes"}},
			}}},
		}},
		Operation: dgl.Operation{Type: dgl.OpNoop},
	}
	flow := dgl.NewFlow("f").Var("seen", "no").StepWith(st).Flow()
	ex := mustRun(t, e, flow)
	if ex.Vars()["seen"] != "yes" {
		t.Errorf("step rule did not fire: %v", ex.Vars())
	}
}

func TestSubmitSyncAndAsync(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()

	// Synchronous: response carries the final tree.
	resp, err := e.Submit(dgl.NewRequest("user", "vo", flow))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == nil || resp.Status.State != string(StateSucceeded) || resp.Error != "" {
		t.Errorf("sync response = %+v", resp)
	}

	// Asynchronous: ack now, status later.
	resp, err = e.Submit(dgl.NewAsyncRequest("user", "vo", flow))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !resp.Ack.Valid || resp.Ack.ID == "" {
		t.Fatalf("async ack = %+v", resp)
	}
	ex, ok := e.Execution(resp.Ack.ID)
	if !ok {
		t.Fatal("execution not tracked")
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// Poll status through a DGL status request, per Figure 4.
	sreq := dgl.NewStatusRequest("user", resp.Ack.ID, true)
	sresp, err := e.Submit(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if sresp.Status == nil || sresp.Status.State != string(StateSucceeded) {
		t.Errorf("status response = %+v", sresp)
	}
	// Unknown id yields an error response, not a transport error.
	sresp, err = e.Submit(dgl.NewStatusRequest("user", "dgf-999999", false))
	if err != nil || sresp.Error == "" {
		t.Errorf("unknown id: %+v, %v", sresp, err)
	}
	// Sync failure surfaces in the response error.
	bad := dgl.NewFlow("bad").Step("s", dgl.Op(dgl.OpFail, nil)).Flow()
	resp, err = e.Submit(dgl.NewRequest("user", "vo", bad))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || resp.Status.State != string(StateFailed) {
		t.Errorf("failed sync response = %+v", resp)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Submit(&dgl.Request{User: dgl.GridUser{Name: "u"}}); err == nil {
		t.Errorf("empty request accepted")
	}
	flow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	req := dgl.NewRequest("", "", flow)
	if _, err := e.Submit(req); err == nil {
		t.Errorf("missing user accepted")
	}
	badFlow := dgl.NewFlow("f").Step("s", dgl.Op("nosuch", nil)).Flow()
	if _, err := e.Submit(dgl.NewRequest("u", "", badFlow)); !errors.Is(err, dgl.ErrInvalid) {
		t.Errorf("invalid flow: %v", err)
	}
	both := dgl.NewRequest("u", "", flow)
	both.StatusQuery = &dgl.StatusQuery{ID: "x"}
	if _, err := e.Submit(both); !errors.Is(err, dgl.ErrInvalid) {
		t.Errorf("both choices: %v", err)
	}
}

func TestStatusGranularity(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("root").
		SubFlow(dgl.NewFlow("stage1").
			Step("s1", dgl.Op(dgl.OpNoop, nil)).
			Step("s2", dgl.Op(dgl.OpNoop, nil))).
		SubFlow(dgl.NewFlow("stage2").
			Step("s3", dgl.Op(dgl.OpNoop, nil))).Flow()
	ex := mustRun(t, e, flow)
	// Query an individual step by its hierarchical id.
	stepID := ex.ID + "/root/stage1/s2"
	st, err := e.Status(stepID, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "s2" || st.Kind != "step" || st.State != string(StateSucceeded) {
		t.Errorf("step status = %+v", st)
	}
	// Query a mid-level flow with detail.
	st, err = e.Status(ex.ID+"/root/stage1", true)
	if err != nil || len(st.Children) != 2 {
		t.Errorf("flow status = %+v, %v", st, err)
	}
	// Execution id alone yields the root.
	st, err = e.Status(ex.ID, false)
	if err != nil || st.Name != "root" {
		t.Errorf("root status = %+v, %v", st, err)
	}
	if _, err := e.Status(ex.ID+"/root/nope", false); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing node: %v", err)
	}
	if _, err := e.Status("dgf-404", false); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing exec: %v", err)
	}
	// Executions lists the run.
	found := false
	for _, id := range e.Executions() {
		if id == ex.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("Executions missing %s", ex.ID)
	}
}

func TestPauseResume(t *testing.T) {
	e := newTestEngine(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.RegisterOp("gate", func(c *OpContext) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	})
	b := dgl.NewFlow("long")
	b.Step("gate", dgl.Op("gate", nil))
	for i := 0; i < 5; i++ {
		b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpNoop, nil))
	}
	ex, err := e.Start("user", b.Flow())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ex.Pause()
	if !ex.Paused() {
		t.Errorf("not paused")
	}
	close(release) // gate finishes; next checkpoint blocks
	time.Sleep(20 * time.Millisecond)
	st := ex.Status(true)
	if st.CountByState()[string(StateSucceeded)] > 1 {
		t.Errorf("steps ran while paused: %+v", st.CountByState())
	}
	ex.Resume()
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if ex.Status(true).State != string(StateSucceeded) {
		t.Errorf("final state = %s", ex.Status(true).State)
	}
}

func TestCancel(t *testing.T) {
	e := newTestEngine(t)
	started := make(chan struct{})
	var once sync.Once
	e.RegisterOp("slow", func(c *OpContext) error {
		once.Do(func() { close(started) })
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	b := dgl.NewFlow("long")
	for i := 0; i < 50; i++ {
		b.Step(fmt.Sprintf("s%d", i), dgl.Op("slow", nil))
	}
	ex, err := e.Start("user", b.Flow())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ex.Cancel()
	if werr := ex.Wait(); !errors.Is(werr, ErrCancelled) {
		t.Fatalf("Wait = %v", werr)
	}
	st := ex.Status(true)
	if st.State != string(StateCancelled) {
		t.Errorf("root = %s", st.State)
	}
	if st.CountByState()[string(StateSucceeded)] >= 50 {
		t.Errorf("cancel had no effect")
	}
}

func TestRestartSkipsSucceededSteps(t *testing.T) {
	e := newTestEngine(t)
	var mu sync.Mutex
	runs := map[string]int{}
	failFirst := true
	e.RegisterOp("count", func(c *OpContext) error {
		mu.Lock()
		defer mu.Unlock()
		name := c.ParamOr("tag", "")
		runs[name]++
		if name == "s2" && failFirst {
			return errors.New("transient outage")
		}
		return nil
	})
	b := dgl.NewFlow("job")
	for _, s := range []string{"s0", "s1", "s2", "s3"} {
		b.Step(s, dgl.Op("count", map[string]string{"tag": s}))
	}
	flow := b.Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Wait() == nil {
		t.Fatal("first run should fail")
	}
	// Fix the outage and restart: s0/s1 skipped, s2 retried, s3 runs.
	mu.Lock()
	failFirst = false
	mu.Unlock()
	ex2, err := e.Restart(ex.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs["s0"] != 1 || runs["s1"] != 1 {
		t.Errorf("succeeded steps re-ran: %v", runs)
	}
	if runs["s2"] != 2 || runs["s3"] != 1 {
		t.Errorf("failed/pending steps not re-run: %v", runs)
	}
	// Skipped steps visible in the new status tree.
	st := ex2.Status(true)
	if st.CountByState()[string(StateSkipped)] != 2 {
		t.Errorf("skip states = %v", st.CountByState())
	}
	// Restart preconditions.
	if _, err := e.Restart("dgf-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("restart missing: %v", err)
	}
	if _, err := e.Restart(ex2.ID); !errors.Is(err, ErrNotRestartable) {
		t.Errorf("restart succeeded run: %v", err)
	}
}

func TestRestartRunningRejected(t *testing.T) {
	e := newTestEngine(t)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	e.RegisterOp("hold", func(c *OpContext) error {
		once.Do(func() { close(started) })
		<-release
		return errors.New("always fails")
	})
	ex, err := e.Start("user", dgl.NewFlow("f").Step("s", dgl.Op("hold", nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Restart(ex.ID); !errors.Is(err, ErrNotRestartable) {
		t.Errorf("restart running: %v", err)
	}
	close(release)
	_ = ex.Wait()
}

func TestProvenanceOfExecution(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("audited").
		Step("a", dgl.Op(dgl.OpNoop, nil)).
		Step("b", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex := mustRun(t, e, flow)
	p := e.Grid().Provenance()
	if n := p.Count(provenance.Filter{FlowID: ex.ID, Action: "step.start"}); n != 2 {
		t.Errorf("step.start records = %d", n)
	}
	if n := p.Count(provenance.Filter{FlowID: ex.ID, Action: "flow.complete"}); n != 1 {
		t.Errorf("flow.complete records = %d", n)
	}
	// Step ids in provenance resolve through the status API.
	recs := p.Query(provenance.Filter{FlowID: ex.ID, Action: "step.finish"})
	for _, r := range recs {
		if _, err := e.Status(r.StepID, false); err != nil {
			t.Errorf("provenance step id %s unresolvable: %v", r.StepID, err)
		}
	}
}

func TestExecOperation(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("compute").
		Step("run", dgl.Op(dgl.OpExec, map[string]string{
			"command": "md5deep", "cpuSeconds": "30", "lane": "sdsc-node1", "resultVar": "out",
		})).Flow()
	start := e.Clock().Now()
	ex := mustRun(t, e, flow)
	if got := e.Clock().Now().Sub(start); got < 30*time.Second {
		t.Errorf("exec did not charge cpu time: %v", got)
	}
	if e.Grid().Meter().Busy("sdsc-node1") != 30*time.Second {
		t.Errorf("lane not charged")
	}
	if ex.Vars()["out"] != "done:md5deep" {
		t.Errorf("resultVar = %q", ex.Vars()["out"])
	}
	// Failure knob.
	bad := dgl.NewFlow("compute").
		Step("run", dgl.Op(dgl.OpExec, map[string]string{"command": "x", "fail": "true"})).Flow()
	ex2, _ := e.Run("user", bad)
	if ex2.Wait() == nil {
		t.Errorf("exec fail=true succeeded")
	}
	// Bad cpuSeconds.
	bad2 := dgl.NewFlow("compute").
		Step("run", dgl.Op(dgl.OpExec, map[string]string{"command": "x", "cpuSeconds": "-1"})).Flow()
	ex3, _ := e.Run("user", bad2)
	if ex3.Wait() == nil {
		t.Errorf("negative cpuSeconds accepted")
	}
}

func TestVerifyOperation(t *testing.T) {
	e := newTestEngine(t)
	g := e.Grid()
	if err := g.Ingest("user", "/grid/v1", 100, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	flow := dgl.NewFlow("fixity").
		Step("verify", dgl.Op(dgl.OpVerify, map[string]string{
			"path": "/grid/v1", "resultVar": "bad",
		})).Flow()
	ex := mustRun(t, e, flow)
	if ex.Vars()["bad"] != "0" {
		t.Errorf("bad = %q", ex.Vars()["bad"])
	}
}

func TestMissingParamErrors(t *testing.T) {
	e := newTestEngine(t)
	cases := []dgl.Operation{
		dgl.Op(dgl.OpIngest, map[string]string{"resource": "disk1"}),  // no path
		dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/x"}),    // no resource
		dgl.Op(dgl.OpReplicate, map[string]string{"path": "/grid/x"}), // no to
		dgl.Op(dgl.OpMigrate, map[string]string{"path": "/grid/x"}),   // no from/to
		dgl.Op(dgl.OpTrim, map[string]string{"path": "/grid/x"}),      // no resource
		dgl.Op(dgl.OpDelete, nil),                                     // no path
		dgl.Op(dgl.OpVerify, nil),                                     // no path
		dgl.Op(dgl.OpSetMeta, map[string]string{"path": "/grid/x"}),   // no attr
		dgl.Op(dgl.OpMove, map[string]string{"src": "/grid/x"}),       // no dst
		dgl.Op(dgl.OpMakeCollection, nil),                             // no path
		dgl.Op(dgl.OpSetVariable, nil),                                // no name
		dgl.Op(dgl.OpSetVariable, map[string]string{"name": "v"}),     // no value/expr
		dgl.Op(dgl.OpExec, nil),                                       // no command
		dgl.Op(dgl.OpSleep, map[string]string{"duration": "not-a-duration"}),
		dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/x", "resource": "disk1", "size": "zz"}),
	}
	for i, op := range cases {
		ex, err := e.Run("user", dgl.NewFlow("f").Step("s", op).Flow())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if ex.Wait() == nil {
			t.Errorf("case %d (%s) should fail", i, op.Type)
		}
	}
}

func TestIngestWithInlineData(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("f").
		Step("s", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/inline", "resource": "disk1", "data": "hello",
		})).Flow()
	mustRun(t, e, flow)
	data, err := e.Grid().Get("user", "", "/grid/inline")
	if err != nil || string(data) != "hello" {
		t.Errorf("inline data = %q, %v", data, err)
	}
}

func TestScope(t *testing.T) {
	root := NewScope(nil)
	root.Declare("a", expr.Int(1))
	child := NewScope(root)
	child.Declare("b", expr.Int(2))
	if v, ok := child.Lookup("a"); !ok || !v.Equal(expr.Int(1)) {
		t.Errorf("chained lookup failed")
	}
	child.Set("a", expr.Int(10)) // updates root's binding
	if v, _ := root.Lookup("a"); !v.Equal(expr.Int(10)) {
		t.Errorf("Set did not reach declaring scope")
	}
	child.Set("fresh", expr.Int(3)) // declares locally
	if _, ok := root.Lookup("fresh"); ok {
		t.Errorf("local declaration leaked")
	}
	snap := child.Snapshot()
	if snap["a"] != "10" || snap["b"] != "2" || snap["fresh"] != "3" {
		t.Errorf("Snapshot = %v", snap)
	}
	// Shadowing shows inner value.
	child.Declare("a", expr.Int(99))
	if child.Snapshot()["a"] != "99" {
		t.Errorf("shadowing broken")
	}
	if root.Snapshot()["a"] != "10" {
		t.Errorf("outer scope affected by shadow")
	}
}

func BenchmarkE3ControlPatterns(b *testing.B) {
	e := newTestEngine(b)
	flow := dgl.NewFlow("mixed").
		Var("n", "0").
		SubFlow(dgl.NewFlow("loop").WhileLoop("$n < 3").
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "n", "expr": "$n + 1"}))).
		SubFlow(dgl.NewFlow("par").Parallel().
			Step("a", dgl.Op(dgl.OpNoop, nil)).
			Step("b", dgl.Op(dgl.OpNoop, nil))).
		SubFlow(dgl.NewFlow("each").ForEachIn("x", "1,2,3").
			Step("touch", dgl.Op(dgl.OpNoop, nil))).Flow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := e.Run("user", flow)
		if err != nil {
			b.Fatal(err)
		}
		if err := ex.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5StepsPerFlow(b *testing.B) {
	e := newTestEngine(b)
	flowOf := func(n int) dgl.Flow {
		fb := dgl.NewFlow("scale")
		for i := 0; i < n; i++ {
			fb.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpNoop, nil))
		}
		return fb.Flow()
	}
	for _, n := range []int{10, 100, 1000} {
		flow := flowOf(n)
		b.Run(fmt.Sprintf("steps=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex, err := e.Run("user", flow)
				if err != nil {
					b.Fatal(err)
				}
				if err := ex.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKnownOpsFollowRegisterOp: the validation set is kept, not rebuilt
// per submit, so it must follow RegisterOp — an operation registered
// after the first submit validates — and the exported copy must stay the
// caller's own.
func TestKnownOpsFollowRegisterOp(t *testing.T) {
	e := newTestEngine(t)
	late := dgl.NewFlow("late").Step("s", dgl.Op("lateOp", nil)).Flow()
	if _, err := e.Submit(dgl.NewRequest("user", "", late)); !errors.Is(err, dgl.ErrInvalid) {
		t.Fatalf("submit before RegisterOp: %v, want ErrInvalid", err)
	}
	ran := false
	e.RegisterOp("lateOp", func(*OpContext) error { ran = true; return nil })
	resp, err := e.Submit(dgl.NewRequest("user", "", late))
	if err != nil || resp.Error != "" || !ran {
		t.Fatalf("submit after RegisterOp: %+v, %v (ran %v)", resp, err, ran)
	}
	mine := e.KnownOps()
	if !mine["lateOp"] || !mine[dgl.OpNoop] {
		t.Fatalf("KnownOps = %v", mine)
	}
	mine["neverRegistered"] = true
	delete(mine, dgl.OpNoop)
	if again := e.KnownOps(); again["neverRegistered"] || !again[dgl.OpNoop] {
		t.Fatalf("editing the returned set changed the engine's: %v", again)
	}
}
