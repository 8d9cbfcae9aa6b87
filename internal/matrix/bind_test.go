package matrix

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
)

// TestConcurrentBinding runs a parallel forEach whose steps all render
// parameters of several pieces at once — each cut from the one slab of
// the execution — and checks every value against Template.Render for
// its item: the tag setMeta wrote on each object, and the value
// setVariable bound in each iteration's scope, as a later step of that
// iteration was handed it. The step also copies what it was handed, so
// a string that changed under a later cut shows as a difference.
func TestConcurrentBinding(t *testing.T) {
	const items = 256
	const (
		path  = "/grid/bind/obj-${it}.dat"
		value = "v-${it}-${run}-tag"
		mine  = "w-${run}/${it}"
	)
	e := newTestEngine(t)
	type handed struct{ seen, copied string }
	var mu sync.Mutex
	kept := map[string]handed{}
	e.RegisterOp("keep", func(c *OpContext) error {
		it, _ := c.Lookup("it")
		seen, _ := c.Lookup("seen")
		mu.Lock()
		kept[it] = handed{seen, strings.Clone(seen)}
		mu.Unlock()
		return nil
	})
	list := itemList(items)
	runToEnd(t, e, dgl.NewFlow("bind").Var("run", "r7").
		SubFlow(dgl.NewFlow("mk").Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/bind"}))).
		SubFlow(dgl.NewFlow("each").ForEachIn("it", list).ParallelIterations().
			Step("put", dgl.Op(dgl.OpIngest, map[string]string{"path": path, "size": "8", "resource": "disk1"})).
			Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{"path": path, "attr": "tag", "value": value})).
			Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "mine", "value": mine})).
			Step("keep", dgl.Op("keep", map[string]string{"it": "${it}", "seen": "${mine}"}))).
		Flow())

	render := func(src, it string) string {
		tmpl := expr.CompileTemplate(src)
		s, err := tmpl.Render(expr.MapEnv{"it": expr.String(it), "run": expr.String("r7")})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if len(kept) != items {
		t.Fatalf("%d iterations reached the keep step, want %d", len(kept), items)
	}
	ns := e.Grid().Namespace()
	for _, it := range strings.Split(list, ",") {
		tag, ok, err := ns.GetMeta(render(path, it), "tag")
		if want := render(value, it); err != nil || !ok || tag != want {
			t.Errorf("item %s: tag = %q (%v, %v), want %q", it, tag, ok, err, want)
		}
		h := kept[it]
		if want := render(mine, it); h.seen != want || h.copied != want {
			t.Errorf("item %s: handed %q, %q when handed, want %q", it, h.seen, h.copied, want)
		}
	}
}

// TestBindSlabBytes: what an execution's slab holds stays in proportion
// to what it rendered. A flow whose one parameter renders 21 bytes from
// three pieces costs, over the same flow with a lone reference in that
// place (rendered without a cut), at most 256 bytes more a run — its
// first chunk sized by the plan — where a fixed 4 KB chunk would cost
// 4 KB.
func TestBindSlabBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	e := newTestEngine(t)
	const runs = 200
	perRun := func(value string) float64 {
		flow := dgl.NewFlow("slab").Var("x", "0123456789").Var("y", "").
			Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "y", "value": value})).Flow()
		for i := 0; i < runs; i++ { // the engine's table grows to its size for runs
			runToEnd(t, e, flow)
		}
		e.Prune(0)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			runToEnd(t, e, flow)
		}
		runtime.ReadMemStats(&m1)
		e.Prune(0)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	perRun("${x}") // warm-up: metric series, pools and tables reach their size
	perRun("id-${x}-suffix!")
	lone := perRun("${x}")
	cut := perRun("id-${x}-suffix!")
	const budget = 256
	t.Logf("slab: %.0f bytes a run beside a lone reference (%.0f and %.0f; budget %d)", cut-lone, cut, lone, budget)
	if cut-lone > budget {
		t.Errorf("a 21-byte parameter costs %.0f bytes more a run than a lone reference, over the budget of %d: is the slab's first chunk a fixed size again?", cut-lone, budget)
	}
}
