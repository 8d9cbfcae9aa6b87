package matrix

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
)

// TestSharedPlanUnderParallelShards runs 64 parallel foreach shards over
// one plan — one compiled switch, one set of parameter templates, one
// lazily parsed setVariable expr, one rule — with a step that fails its
// first attempt in every shard, so binding, retry and rule firing all
// read the shared plan at once. Run under -race.
func TestSharedPlanUnderParallelShards(t *testing.T) {
	e := NewEngineConfig(newTestEngine(t).Grid(), Config{MaxParallel: 64})
	const shards = 64
	var mu sync.Mutex
	attempts := map[string]int{}
	var ruleFired atomic.Int32
	e.RegisterOp("flaky", func(c *OpContext) error {
		x, err := c.Param("x")
		if err != nil {
			return err
		}
		mu.Lock()
		attempts[x]++
		first := attempts[x] == 1
		mu.Unlock()
		if first {
			return errors.New("first attempt fails")
		}
		return nil
	})
	e.RegisterOp("noted", func(c *OpContext) error {
		ruleFired.Add(1)
		return nil
	})
	items := make([]string, shards)
	for i := range items {
		items[i] = strconv.Itoa(i)
	}
	body := dgl.NewFlow("shard").Var("sq", "0").
		Rule(dgl.Rule{Name: dgl.RuleAfterExit, Condition: `$sq == $it * $it`, Actions: []dgl.Action{
			{Name: "true", Operation: &dgl.Operation{Type: "noted", Params: []dgl.Param{{Name: "of", Value: "$it"}}}},
		}}).
		StepWith(dgl.Step{Name: "work", OnError: dgl.OnErrorRetry, Retries: 2,
			Operation: dgl.Op("flaky", map[string]string{"x": "${it}"})}).
		Step("square", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "sq", "expr": "$it * $it"}))
	flow := dgl.NewFlow("fan").
		SubFlow(dgl.NewFlow("each").ForEachIn("it", strings.Join(items, ",")).ParallelIterations().
			SubFlow(body).
			SubFlow(dgl.NewFlow("pick").SwitchOn(`"arm" + ($it % 2)`).
				Step("arm0", dgl.Op(dgl.OpNoop, nil)).
				Step("arm1", dgl.Op(dgl.OpNoop, nil)))).Flow()
	ex := mustRun(t, e, flow)
	if got := ruleFired.Load(); got != shards {
		t.Errorf("afterExit rule fired %d times, want %d", got, shards)
	}
	for _, x := range items {
		if attempts[x] != 2 {
			t.Errorf("shard %s: %d attempts, want 2", x, attempts[x])
		}
	}
	each := ex.Status(true).Children[0]
	if len(each.Children) != shards {
		t.Fatalf("iterations = %d", len(each.Children))
	}
	for i, it := range each.Children {
		wantID := each.ID + "[" + strconv.Itoa(i) + "]"
		if it.ID != wantID || it.State != string(StateSucceeded) || len(it.Children) != 2 {
			t.Fatalf("iteration %d = %+v", i, it)
		}
		pick := it.Children[1]
		// The skipped arm is listed first, the chosen one after it.
		skipped, chosen := "arm"+strconv.Itoa(1-i%2), "arm"+strconv.Itoa(i%2)
		if pick.ID != wantID+"/pick" || len(pick.Children) != 2 ||
			pick.Children[0].Name != skipped || pick.Children[0].State != string(StateSkipped) ||
			pick.Children[1].Name != chosen || pick.Children[1].ID != wantID+"/pick/"+chosen {
			t.Fatalf("iteration %d switch = %+v", i, pick)
		}
	}
}

// TestFanOutBoundsGoroutines: a parallel forEach starts MaxParallel
// workers, not a goroutine per item.
func TestFanOutBoundsGoroutines(t *testing.T) {
	e := NewEngineConfig(newTestEngine(t).Grid(), Config{MaxParallel: 8})
	const items = 10000
	base := runtime.NumGoroutine()
	var ran, high atomic.Int64
	e.RegisterOp("count", func(c *OpContext) error {
		if n := int64(runtime.NumGoroutine() - base); n > high.Load() {
			high.Store(n) // racy max: an undercount only makes the test laxer
		}
		ran.Add(1)
		return nil
	})
	flow := dgl.NewFlow("wide").Repeat("i", items).ParallelIterations().
		Step("one", dgl.Op("count", nil)).Flow()
	ex := mustRun(t, e, flow)
	if ran.Load() != items {
		t.Fatalf("ran %d of %d iterations", ran.Load(), items)
	}
	if high.Load() >= 64 {
		t.Errorf("goroutine high-water %d above the test's baseline, want under 64 with MaxParallel 8", high.Load())
	}
	st := ex.Status(true)
	if len(st.Children) != items || st.Children[items-1].ID != st.ID+"["+strconv.Itoa(items-1)+"]" ||
		st.Children[items-1].Name != "wide["+strconv.Itoa(items-1)+"]" {
		t.Errorf("last iteration = %+v", st.Children[len(st.Children)-1])
	}
}

// TestPlanReleasedAtRunExit: the plan serves the run goroutine only. A
// terminal execution and a passivated one — the populations a long-lived
// engine retains by the thousand — hold none: their whole run state,
// the plan in it, is let go.
func TestPlanReleasedAtRunExit(t *testing.T) {
	e, _ := newStoreEngine(t, t.TempDir())
	b := registerBlockingOp(e, "work", "1")

	done := mustRun(t, e, workFlow("short", 1))
	if done.live.Load() != nil {
		t.Error("terminal execution still holds its plan")
	}

	parked := startFlow(t, e, workFlow("parked", 3))
	<-b.reached
	if err := e.Passivate(parked.ID); err != nil {
		t.Fatal(err)
	}
	_ = parked.Wait()
	if parked.live.Load() != nil {
		t.Error("passivated execution still holds its plan")
	}

	failed, err := e.Run("user", dgl.NewFlow("bad").Step("boom", dgl.Op(dgl.OpFail, nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	if failed.Err() == nil || failed.live.Load() != nil {
		t.Errorf("failed execution: err %v, plan held %v", failed.Err(), failed.live.Load() != nil)
	}
}

// TestPlanErrorsSurfaceWhereTheyDid: what a plan cannot compile fails at
// the step that would have interpolated or parsed it, with the same
// text, and only if the run gets there.
func TestPlanErrorsSurfaceWhereTheyDid(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("late").
		Step("ok", dgl.Op(dgl.OpNoop, map[string]string{"note": "fine"})).
		Step("bad", dgl.Op(dgl.OpNoop, map[string]string{"path": "/grid/${unclosed"})).
		Step("never", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := expr.CompileTemplate("/grid/${unclosed")
	_, want := tmpl.Render(nil)
	if got := ex.Err(); got == nil || got.Error() != `parameter "path": `+want.Error() {
		t.Errorf("run error = %v, want the interpolation error of parameter path", got)
	}
	st := ex.Status(true)
	if len(st.Children) != 2 || st.Children[0].State != string(StateSucceeded) || st.Children[1].State != string(StateFailed) {
		t.Errorf("status = %+v", st.Children)
	}

	// An unparsable setVariable expr fails that step, each time it runs.
	loop := dgl.NewFlow("loop").Repeat("i", 2).
		StepWith(dgl.Step{Name: "set", OnError: dgl.OnErrorContinue,
			Operation: dgl.Op(dgl.OpSetVariable, map[string]string{"name": "x", "expr": "1 +"})}).Flow()
	ex = mustRun(t, e, loop)
	_, perr := expr.Parse("1 +")
	for _, it := range ex.Status(true).Children {
		if set := it.Children[0]; set.State != string(StateFailed) || set.Error != "matrix: setVariable x: "+perr.Error() {
			t.Errorf("%s: state %s error %q", set.ID, set.State, set.Error)
		}
	}
}

// TestParamAccessors pins the OpContext accessors that replaced the
// Params and Raw maps, and that lowering refuses a parameter a document
// names twice.
func TestParamAccessors(t *testing.T) {
	e := newTestEngine(t)
	var seen []string
	e.RegisterOp("probe", func(c *OpContext) error {
		c.EachParam(func(k, v string) { seen = append(seen, k+"="+v) })
		if v, ok := c.Lookup("empty"); !ok || v != "" {
			t.Errorf(`Lookup("empty") = %q, %v`, v, ok)
		}
		if _, ok := c.Lookup("absent"); ok {
			t.Error(`Lookup("absent") reports a value`)
		}
		if _, err := c.Param("empty"); err == nil {
			t.Error(`Param("empty") should report a missing parameter`)
		}
		if got := c.ParamOr("empty", "dflt"); got != "dflt" {
			t.Errorf(`ParamOr("empty") = %q`, got)
		}
		if v, ok, err := c.EvalParam("sum"); !ok || err != nil || !v.Equal(expr.Int(3)) {
			t.Errorf(`EvalParam("sum") = %v, %v, %v`, v, ok, err)
		}
		if _, ok, _ := c.EvalParam("absent"); ok {
			t.Error(`EvalParam("absent") reports a value`)
		}
		return nil
	})
	op := dgl.Operation{Type: "probe", Params: []dgl.Param{
		{Name: "path", Value: "/grid/$who"}, {Name: "empty", Value: ""}, {Name: "sum", Value: "1 + 2"},
	}}
	mustRun(t, e, dgl.NewFlow("p").Var("who", "alice").StepWith(dgl.Step{Name: "s", Operation: op}).Flow())
	if got := strings.Join(seen, " "); got != "path=/grid/alice empty= sum=1 + 2" {
		t.Errorf("EachParam saw %q", got)
	}

	// Lowering refuses a repeated name, as validation does.
	dup := dgl.NewFlow("d").StepWith(dgl.Step{Name: "s", Operation: dgl.Operation{Type: "probe", Params: []dgl.Param{
		{Name: "a", Value: "1"}, {Name: "b", Value: "2"}, {Name: "a", Value: "3"},
	}}}).Flow()
	known := e.KnownOps()
	want := dgl.ValidateFlow(&dup, known)
	if _, err := buildPlan(&dup, known); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("lowering a repeated parameter = %v, want %v", err, want)
	}
}
