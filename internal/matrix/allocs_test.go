package matrix

import (
	"strconv"
	"strings"
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

// runToEnd runs flow synchronously and fails the test unless it succeeds.
func runToEnd(t testing.TB, e *Engine, flow dgl.Flow) {
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
}

// allocsEngine is a test engine whose grid holds /grid/allocs/tagged.dat.
func allocsEngine(t testing.TB) *Engine {
	e := newTestEngine(t)
	runToEnd(t, e, dgl.NewFlow("seed").Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/allocs"})).
		Step("put", dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/allocs/tagged.dat", "size": "64", "resource": "disk1"})).Flow())
	return e
}

// TestEngineStepAllocs guards what one step of a flow costs end to end —
// Run, lowering the document to a plan, scope, parameter binding, the
// DGMS operation with its permission check, event, provenance record and
// metrics, the status tree — so that per-step re-derivation (canonical
// keys rebuilt per lookup, a parameter map and an interpolated copy per
// step, a map per span) cannot creep back unnoticed. A one-step flow run
// once is also the plan's worst case: everything it precomputes is used
// exactly once — and what a loop opens by the block, this flow opens for
// one: the root region's slabs of one node and one op context must not
// cost it more than the node and the context did. The flows measure 40
// and 34 allocations; the budgets leave room for another toolchain's
// internals and sit under the 54 and 45 the commit before the plan paid.
func TestEngineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	e := allocsEngine(t)
	seq := 0
	for _, tc := range []struct {
		name           string
		budget, parent float64
		flow           func() dgl.Flow
	}{
		{"ingest", 50, 54, func() dgl.Flow {
			seq++
			return dgl.NewFlow("one").Step("put", dgl.Op(dgl.OpIngest, map[string]string{
				"path": "/grid/allocs/" + strconv.Itoa(seq) + ".dat", "size": "64", "resource": "disk1"})).Flow()
		}},
		{"setMeta", 41, 45, func() dgl.Flow {
			return dgl.NewFlow("one").Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{
				"path": "/grid/allocs/tagged.dat", "attr": "tag", "value": "v"})).Flow()
		}},
	} {
		got := testing.AllocsPerRun(100, func() { runToEnd(t, e, tc.flow()) })
		t.Logf("one-step %s flow: %.0f allocations (budget %.0f, parent commit %.0f)", tc.name, got, tc.budget, tc.parent)
		if got > tc.budget {
			t.Errorf("one-step %s flow is over budget: is something fixed at submit being re-derived per step again?", tc.name)
		}
	}
}

// iteratedFlow is the shape a plan exists for: a sequential forEach of n
// iterations over {a step with an interpolated parameter; a switch on an
// expression}, then a while loop of n/2 iterations whose body is a
// setVariable with an expr.
func iteratedFlow(n int) dgl.Flow {
	items := make([]string, n)
	for i := range items {
		items[i] = strconv.Itoa(i)
	}
	return dgl.NewFlow("iterated").Var("i", "0").Var("odd", "").
		SubFlow(dgl.NewFlow("each").ForEachIn("it", strings.Join(items, ",")).
			SubFlow(dgl.NewFlow("tag").Step("meta", dgl.Op(dgl.OpSetMeta, map[string]string{
				"path": "/grid/allocs/tagged.dat", "attr": "tag-${it}", "value": "v"}))).
			SubFlow(dgl.NewFlow("pick").SwitchOn(`"arm" + ($it % 2)`).
				Step("arm0", dgl.Op(dgl.OpNoop, nil)).
				Step("arm1", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "odd", "value": "${it}"})))).
		SubFlow(dgl.NewFlow("loop").WhileLoop("$i < "+strconv.Itoa(n/2)).
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"}))).
		Flow()
}

// TestIterationMarginalAllocs holds the cost of one more loop iteration —
// the number the plan moves, since everything an iteration used to
// re-derive (parameter maps, the switch's parse, child names, a node and
// an id per status child) is now worked out once per run, and what it
// used to open for itself (its region, a scope for it and for each child
// flow, a context for each step) is opened by the block. Doubling
// iteratedFlow from 16+8 to 32+16 iterations adds 16 forEach iterations
// (each: setMeta with one interpolated parameter, a switch, the arm it
// picks) and 8 while iterations (each: a setVariable expr, and a region
// of its own — a while loop cannot open ahead); the cost per added
// forEach iteration and half a while iteration measures 7.6 where the
// parent commit paid 15.6 and the interpreter before the plan 77.1.
func TestIterationMarginalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	e := allocsEngine(t)
	cost := func(n int) float64 {
		flow := iteratedFlow(n)
		return testing.AllocsPerRun(50, func() { runToEnd(t, e, flow) })
	}
	small, large := cost(16), cost(32)
	marginal := (large - small) / 16
	const budget, parent = 9.6, 15.6
	t.Logf("iterated flow: %.0f allocations at 16+8 iterations, %.0f at 32+16: %.1f per added iteration (budget %.1f, parent commit %.1f)",
		small, large, marginal, budget, parent)
	if marginal > budget {
		t.Errorf("an added iteration costs %.1f allocations, over the budget of %.1f: is the loop body being re-derived, or its region opened, per pass again?", marginal, budget)
	}
}

// dagFlow is the 137-step flow of the contract benchmark's engine_dag
// workload (bench/workloads.go), rebuilt here so its allocations can be
// profiled row by row: `go test -run '^$' -bench EngineDAG -benchtime 300x
// -memprofilerate 1 -memprofile mem.out ./internal/matrix`, then
// `go tool pprof -sample_index=alloc_objects -top mem.out`.
func dagFlow(seq int) dgl.Flow {
	const items, loops = 32, 8
	list := make([]string, items)
	for i := range list {
		list[i] = strconv.Itoa(i)
	}
	in := strings.Join(list, ",")
	work := "/grid/work/" + strconv.Itoa(seq) + "-${it}.dat"
	fan := dgl.NewFlow("fan").ForEachIn("it", in).ParallelIterations().
		SubFlow(dgl.NewFlow("put").Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": work, "size": "1024", "resource": "disk1"}))).
		SubFlow(dgl.NewFlow("pick").SwitchOn(`"arm" + ($it % 2)`).
			Step("arm0", dgl.Op(dgl.OpNoop, nil)).
			Step("arm1", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "odd", "value": "${it}"}))).
		SubFlow(dgl.NewFlow("tag").Step("meta", dgl.Op(dgl.OpSetMeta, map[string]string{
			"path": "/grid/pre/${it}.dat", "attr": "tag", "value": "v" + strconv.Itoa(seq)})))
	return dgl.NewFlow("dag").Var("i", "0").Var("run", "").Var("odd", "").
		SubFlow(dgl.NewFlow("init").Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{
			"name": "run", "expr": `"run-" + ` + strconv.Itoa(seq)}))).
		SubFlow(fan).
		SubFlow(dgl.NewFlow("loop").WhileLoop("$i < "+strconv.Itoa(loops)).
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"}))).
		SubFlow(dgl.NewFlow("clean").ForEachIn("it", in).
			Step("drop", dgl.Op(dgl.OpDelete, map[string]string{"path": work}))).
		Flow()
}

// dagEngine is the engine dagFlow runs on, as in the benchmark: the
// virtual clock, and a provenance store that is offered every record
// and retains none.
func dagEngine(tb testing.TB) *Engine {
	prov := provenance.NewMemory()
	prov.Close()
	g := dgms.New(dgms.Options{Clock: sim.NewVirtualClock(sim.Epoch), Provenance: prov})
	if err := g.RegisterResource(vfs.New("disk1", "local", vfs.Disk, 0)); err != nil {
		tb.Fatal(err)
	}
	for _, dir := range []string{"/grid/work", "/grid/pre"} {
		if err := g.CreateCollectionAll(g.Admin(), dir); err != nil {
			tb.Fatal(err)
		}
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := g.Ingest(g.Admin(), "/grid/pre/"+strconv.Itoa(i)+".dat", 1024, nil, "disk1"); err != nil {
			tb.Fatal(err)
		}
	}
	return NewEngineConfig(g, Config{MaxParallel: 32})
}

// TestDAGFlowAllocs holds the whole 137-step flow: 2 forEach loops of 32
// iterations, each one block, a while loop of 8 and the grid operations
// under them measure 705 allocations where the parent commit paid 1 270
// (docs/ARCHITECTURE.md, stage 5, has the rows).
func TestDAGFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	e := dagEngine(t)
	seq := 0
	for ; seq < 50; seq++ { // warm-up, as in the benchmark
		runToEnd(t, e, dagFlow(seq))
	}
	got := testing.AllocsPerRun(100, func() {
		runToEnd(t, e, dagFlow(seq))
		seq++
	})
	const budget, parent = 760, 1270
	t.Logf("dag flow: %.0f allocations (budget %d, parent commit %d)", got, budget, parent)
	if got > budget {
		t.Errorf("the dag flow costs %.0f allocations, over the budget of %d: is an iteration opening its own region, scopes or contexts again?", got, budget)
	}
}

func BenchmarkEngineDAG(b *testing.B) {
	e := dagEngine(b)
	for seq := 0; seq < 50; seq++ { // warm-up: series registered, pools filled
		runToEnd(b, e, dagFlow(seq))
	}
	e.Prune(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runToEnd(b, e, dagFlow(50+i))
		if i%64 == 63 {
			e.Prune(16)
		}
	}
}
