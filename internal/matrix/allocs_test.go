package matrix

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
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
// cost it more than the node and the context did. The flows measure 22
// and 19 allocations (26 and 23 while the document was validated in a
// walk of its own and dgl.Op grew its parameter list by appending, 31
// and 25 while the grid operation's event and provenance detail was a
// map, 40 and 34 before an execution's status root, run control and
// root scope became part of it, its id one string with the root node's
// and its delegation context lazy); the budgets leave room for another
// toolchain's internals.
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
		{"ingest", 24, 26, func() dgl.Flow {
			seq++
			return dgl.NewFlow("one").Step("put", dgl.Op(dgl.OpIngest, map[string]string{
				"path": "/grid/allocs/" + strconv.Itoa(seq) + ".dat", "size": "64", "resource": "disk1"})).Flow()
		}},
		{"setMeta", 21, 23, func() dgl.Flow {
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
// (each: setMeta with one interpolated parameter, its event and record
// detail inline, a switch, the arm it picks) and 8 while iterations
// (each: a setVariable expr; the while loop opens its passes by the
// block too, in blocks that double, so 8 more passes are one more
// block). The cost per added forEach iteration and half a while
// iteration measures 2.8 where the parent commit paid 7.6, the commit
// before the loop blocks 15.6 and the interpreter before the plan 77.1.
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
	const budget, parent = 1.6, 2.8
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
// iterations, each one block, a while loop of 8 in four blocks and the
// grid operations under them measure 265 allocations where the parent
// commit paid 300 — a walk of validation before the lowering, and
// dgl.Op's parameter lists grown by appending — the commit before that
// 399 (a string for each of the 104 parameters rendered from several
// pieces), then 495, 687 and, before the loop blocks, 1 270
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
	const budget, parent = 275, 300
	t.Logf("dag flow: %.0f allocations (budget %d, parent commit %d)", got, budget, parent)
	if got > budget {
		t.Errorf("the dag flow costs %.0f allocations, over the budget of %d: is an iteration opening its own region, a grid operation building its detail on the heap, or a grid object allocating its replica, physical record or digest, again?", got, budget)
	}
}

// TestExecutionSize keeps an Execution — the header every ended flow
// leaves resident, its run let go — in the 80-byte size class: a field
// that pushes it into the next (96) shows up as live heap in every
// workload that keeps executions resident. (The header that was the
// whole run was 696 bytes.)
func TestExecutionSize(t *testing.T) {
	if n := unsafe.Sizeof(Execution{}); n > 80 {
		t.Errorf("an Execution is %d bytes, past the 80-byte size class", n)
	}
}

// recoveryGate is the operation recoveryDirectory's flows wait at, so
// they can be passivated or abandoned at a known step; a recovering
// engine registers it as a pass-through.
const recoveryGate = "recoveryGate"

// recoveryDirectory writes, through an engine, a binary store in the
// shape of the contract benchmark's restart_recovery directory (and of
// internal/store's benchDirectory): of every ten flows seven run to
// their end, two are passivated at a gate step and one is abandoned
// there, two steps before its end, when the store closes under it. It
// returns a function that brings the directory back to the bytes it
// left — a recovery appends to them.
func recoveryDirectory(tb testing.TB, dir string, flows int) (restore func()) {
	tb.Helper()
	e := newTestEngine(tb)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	e.SetStore(st)
	release := make(chan struct{})
	var gated atomic.Int64
	e.RegisterOp(recoveryGate, func(c *OpContext) error {
		gated.Add(1)
		select {
		case <-release:
			return nil
		case <-c.Cancel:
			return ErrCancelled
		}
	})
	var ended, parked, open []*Execution
	for i := 0; i < flows; i++ {
		b := dgl.NewFlow("rec").Var("note", "payload-"+strconv.Itoa(i)).
			Step("work0", dgl.Op(dgl.OpNoop, nil)).Step("work1", dgl.Op(dgl.OpNoop, nil))
		if i%10 >= 7 {
			b.Step("gate", dgl.Op(recoveryGate, nil))
		}
		ex, err := e.Start("user", b.Step("tail0", dgl.Op(dgl.OpNoop, nil)).Step("tail1", dgl.Op(dgl.OpNoop, nil)).Flow())
		if err != nil {
			tb.Fatal(err)
		}
		switch i % 10 {
		case 7, 8:
			parked = append(parked, ex)
		case 9:
			open = append(open, ex)
		default:
			ended = append(ended, ex)
		}
	}
	for _, ex := range ended {
		if err := ex.Wait(); err != nil {
			tb.Fatal(err)
		}
	}
	for gated.Load() < int64(len(parked)+len(open)) {
		time.Sleep(time.Millisecond)
	}
	// In parallel, so the snapshots and markers share group commits.
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for _, ex := range parked {
		wg.Add(1)
		sem <- struct{}{}
		go func(id string) {
			defer wg.Done()
			if err := e.Passivate(id); err != nil {
				tb.Error(err)
			}
			<-sem
		}(ex.ID)
	}
	wg.Wait()
	for _, ex := range parked { // their runs unwind now, not in a count
		<-ex.Done()
	}
	if err := st.Close(); err != nil { // the crash
		tb.Fatal(err)
	}
	close(release)
	for _, ex := range open {
		<-ex.Done()
	}
	sizes := map[string]int64{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			tb.Fatal(err)
		}
		sizes[ent.Name()] = fi.Size()
	}
	return func() {
		ents, err := os.ReadDir(dir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, ent := range ents {
			path := filepath.Join(dir, ent.Name())
			if n, ok := sizes[ent.Name()]; ok {
				err = os.Truncate(path, n)
			} else {
				err = os.Remove(path)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// recoverOnce is one restart over a recoveryDirectory: a fresh engine
// (set-up, not counted), then store.Open, and SetStore, RecoverFromStore
// and the resumed runs to their end, whose allocations it returns
// apart. The store is closed after the count.
func recoverOnce(tb testing.TB, dir string) (open, recover uint64, resumed int) {
	tb.Helper()
	e := newTestEngine(tb)
	e.RegisterOp(recoveryGate, func(*OpContext) error { return nil })
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	e.SetStore(st)
	exs, err := e.RecoverFromStore()
	if err != nil {
		tb.Fatal(err)
	}
	for _, ex := range exs {
		if err := ex.Wait(); err != nil {
			tb.Fatalf("resumed flow %s: %v", ex.ID, err)
		}
	}
	runtime.ReadMemStats(&m2)
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs, m2.Mallocs - m1.Mallocs, len(exs)
}

// TestRecoverAllocs: a restart allocates in proportion to what is alive.
// Over 1 000 stored flows (700 ended, 200 parked, 100 abandoned), Open
// pays for the live entries and a slab — a parked flow is the one string
// of its snapshot, an ended one nothing of its own — which comes to
// 0.6 allocations per stored id where the parent commit paid 3.8; and
// each resumed flow costs 20.5 (parent 23.5, 25 and 46 before that) to
// hand to the engine — its request decoded where the entry's string
// lies, its flow checked as it is lowered, its execution one object, and
// no second exec.start — and to run its last steps, whose plan, records
// and provenance are most of it. The rounds run with the collector off:
// a collection inside one empties the sync.Pools the decoders and the
// clock draw from, which added up to 9 allocations per resumed flow to a
// round at random. They run on one P: on two, the 100 resumed flows'
// goroutines run at once and contend for the store's lock and encoder
// pool, and what a round paid then depended on how they met — a
// contended write takes an encoder its P's pool does not hold (six
// allocations) and a goroutine parked on a lock a sudog — which took
// rounds of the same code from 20.6 to 27.7 per resumed flow; on one P
// every round is 20.5.
func TestRecoverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const flows = 1000
	dir := t.TempDir()
	restore := recoveryDirectory(t, dir, flows)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var opens, recovers []float64
	for round := 0; round < 5; round++ {
		restore()
		runtime.GC()
		open, recover, resumed := recoverOnce(t, dir)
		if resumed != flows/10 {
			t.Fatalf("resumed %d flows, want %d", resumed, flows/10)
		}
		opens = append(opens, float64(open)/flows)
		recovers = append(recovers, float64(recover)/float64(resumed))
	}
	slices.Sort(opens)
	slices.Sort(recovers)
	perID, perResumed := opens[len(opens)/2], recovers[len(recovers)/2]
	const idBudget, idParent = 1.0, 3.8
	const resumedBudget, resumedParent = 22.0, 23.5
	t.Logf("store.Open: %.2f allocations per stored id (budget %.1f, parent commit %.1f); recovery and resumed runs: %.1f per resumed flow (budget %.1f, parent commit %.1f)",
		perID, idBudget, idParent, perResumed, resumedBudget, resumedParent)
	if perID > idBudget {
		t.Errorf("store.Open costs %.2f allocations per stored id, over the budget of %.1f: is an ended id or a parked snapshot being materialised again?", perID, idBudget)
	}
	if perResumed > resumedBudget {
		t.Errorf("a resumed flow costs %.1f allocations, over the budget of %.1f: is the stored request being copied, the execution built piece by piece, or exec.start written again?", perResumed, resumedBudget)
	}
}

// BenchmarkRecoverFromStore is one restart_recovery cycle on a bare
// engine — 3 000 stored flows, 300 of them resumed — without the
// harness's grid: store.Open, RecoverFromStore and the resumed runs.
// The exact-profile recipe for docs/ARCHITECTURE.md's restart table:
// `go test -run '^$' -bench RecoverFromStore -benchtime 50x
// -memprofilerate 1 -memprofile mem.out ./internal/matrix`, then
// `go tool pprof -sample_index=alloc_objects -top mem.out`.
func BenchmarkRecoverFromStore(b *testing.B) {
	dir := b.TempDir()
	restore := recoveryDirectory(b, dir, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore()
		e := newTestEngine(b)
		e.RegisterOp(recoveryGate, func(*OpContext) error { return nil })
		b.StartTimer()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		e.SetStore(st)
		exs, err := e.RecoverFromStore()
		if err != nil {
			b.Fatal(err)
		}
		for _, ex := range exs {
			if err := ex.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if len(exs) != 300 {
			b.Fatalf("resumed %d flows, want 300", len(exs))
		}
		st.Close()
		b.StartTimer()
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
