package matrix

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

// instantEngine is an engine on a virtual clock with a registry and an
// open provenance store of its own, so its spans and records can be read
// back.
func instantEngine(t testing.TB) (*Engine, *obs.Registry, *provenance.Store) {
	t.Helper()
	reg, prov := obs.NewRegistry(), provenance.NewMemory()
	g := dgms.New(dgms.Options{Clock: sim.NewVirtualClock(sim.Epoch), Obs: reg, Provenance: prov})
	if err := g.RegisterResource(vfs.New("disk1", "local", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	return NewEngineConfig(g, Config{MaxParallel: 4}), reg, prov
}

// nodeTimes maps every node id of a status tree to its started and
// finished times.
func nodeTimes(st *dgl.FlowStatus, into map[string][2]string) {
	into[st.ID] = [2]string{st.Started, st.Finished}
	for i := range st.Children {
		nodeTimes(&st.Children[i], into)
	}
}

// TestOneInstantPerTransition: a node's transition is one instant. On a
// virtual clock that the flow's sleeps advance — in sequence, in a
// parallel forEach and across a failing step the flow carries on past —
// every flow and step span carries the time its node's status shows for
// that transition (start for a span's start, finish for its end), and
// so does every provenance record the engine writes for a node.
func TestOneInstantPerTransition(t *testing.T) {
	e, reg, prov := instantEngine(t)
	sleep := func(d string) dgl.Operation { return dgl.Op(dgl.OpSleep, map[string]string{"duration": d}) }
	flow := dgl.NewFlow("timed").
		SubFlow(dgl.NewFlow("head").Step("first", sleep("3s"))).
		SubFlow(dgl.NewFlow("fan").ForEachIn("it", "1,2,3,4,5,6").ParallelIterations().
			Step("nap", sleep("${it}s"))).
		SubFlow(dgl.NewFlow("mid").
			StepWith(dgl.Step{Name: "flaky", OnError: dgl.OnErrorContinue, Operation: dgl.Op(dgl.OpFail, nil)})).
		SubFlow(dgl.NewFlow("tail").
			Step("long", sleep("90m")).
			Step("short", sleep("250ms"))).
		Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Err(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Status(ex.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string][2]string{}
	nodeTimes(&st, times)
	if !strings.HasPrefix(st.Started, sim.Epoch.Format("2006-01-02")) {
		t.Fatalf("the root started at %s, not on the virtual clock", st.Started)
	}
	same := func(what, id string, got time.Time, want string) {
		t.Helper()
		w, err := time.Parse(time.RFC3339Nano, want)
		if err != nil {
			t.Fatalf("%s of %s: node time %q: %v", what, id, want, err)
		}
		if !got.Equal(w) {
			t.Errorf("%s of %s at %s, its node's transition at %s", what, id, got.UTC().Format(time.RFC3339Nano), want)
		}
	}

	spans := 0
	for _, ev := range reg.Trace().Events() {
		if ev.Scope != "flow" && ev.Scope != "step" {
			continue
		}
		nt, ok := times[ev.ID]
		if !ok {
			t.Fatalf("a %s span of %s, a node the status does not show", ev.Scope, ev.ID)
		}
		spans++
		if ev.Type == obs.EventStart {
			same(ev.Scope+" span start", ev.ID, ev.Time, nt[0])
		} else {
			same(ev.Scope+" span end", ev.ID, ev.Time, nt[1])
		}
	}
	// The root, head, first, fan, six naps (their iterations have no
	// span), mid, flaky, tail, long and short: 15 nodes.
	if spans != 2*15 {
		t.Errorf("%d flow and step span events, want %d", spans, 2*15)
	}

	records := 0
	for _, r := range prov.Query(provenance.Filter{FlowID: ex.ID}) {
		id, at := r.StepID, 0
		switch r.Action {
		case "flow.submit":
			id = st.ID
		case "flow.complete":
			id, at = st.ID, 1
		case "flow.start", "step.start":
		case "flow.finish", "step.finish", "step.skip":
			at = 1
		default:
			continue
		}
		nt, ok := times[id]
		if !ok {
			t.Fatalf("a %s record of %s, a node the status does not show", r.Action, id)
		}
		records++
		same(r.Action+" record", id, r.Time, nt[at])
	}
	// A start and a finish per node, and the execution's flow.submit and
	// flow.complete.
	if want := 2*15 + 2; records != want {
		t.Errorf("%d node records, want %d", records, want)
	}
}

// TestDAGFlowWatchCost counts what watching the 137-step flow of the
// engine_dag benchmark emits per run, on a virtual clock: the span
// events its flow and step nodes put into the trace ring (read from the
// ring's sequence numbers, so a ring that wrapped still counts) and the
// provenance records the run offers. Each is a start and an end per
// node: 101 flow nodes and 137 steps (a forEach's iterations and a
// switch's skipped arm have no span).
func TestDAGFlowWatchCost(t *testing.T) {
	e, reg, prov := instantEngine(t)
	g := e.Grid()
	for _, dir := range []string{"/grid/work", "/grid/pre"} {
		if err := g.CreateCollectionAll(g.Admin(), dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := g.Ingest(g.Admin(), "/grid/pre/"+strconv.Itoa(i)+".dat", 1024, nil, "disk1"); err != nil {
			t.Fatal(err)
		}
	}
	lastSeq := func() uint64 {
		evs := reg.Trace().Events()
		if len(evs) == 0 {
			return 0
		}
		return evs[len(evs)-1].Seq
	}
	const runs = 3
	seq0, recs0 := lastSeq(), prov.Count(provenance.Filter{})
	engineRecs := 0
	for i := 0; i < runs; i++ {
		ex, err := e.Run("user", dagFlow(i))
		if err != nil || ex.Err() != nil {
			t.Fatalf("run %d: %v / %v", i, err, ex.Err())
		}
		engineRecs += prov.Count(provenance.Filter{FlowID: ex.ID})
	}
	spans := (lastSeq() - seq0) / runs
	records := (prov.Count(provenance.Filter{}) - recs0) / runs
	t.Logf("per run: %d span events, %d provenance records (%d of them the engine's)", spans, records, engineRecs/runs)
	if want := uint64(2 * (101 + 137)); spans != want {
		t.Errorf("%d span events per run, want %d", spans, want)
	}
	// The engine's own: a start and a finish per node, and the run's
	// flow.submit and flow.complete.
	if want := 2*(101+137) + 2; engineRecs/runs != want {
		t.Errorf("%d engine provenance records per run, want %d", engineRecs/runs, want)
	}
	// And the grid's: one per ingest, setMeta and delete.
	if want := 2*(101+137) + 2 + 3*32; records != want {
		t.Errorf("%d provenance records per run, want %d", records, want)
	}
}
