package trigger

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/vfs"
)

func setup(t testing.TB) (*dgms.Grid, *matrix.Engine, *Manager) {
	t.Helper()
	g := dgms.New(dgms.Options{})
	for _, r := range []*vfs.Resource{
		vfs.New("disk1", "sdsc", vfs.Disk, 0),
		vfs.New("tape", "archive", vfs.Archive, 0),
	} {
		if err := g.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/in"); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"user", "robot"} {
		if err := g.Namespace().SetPermission("/grid", u, namespace.PermWrite); err != nil {
			t.Fatal(err)
		}
	}
	e := matrix.NewEngine(g)
	m := NewManager(g, e, 2, 64)
	t.Cleanup(m.Close)
	return g, e, m
}

func TestMetadataOnIngest(t *testing.T) {
	g, _, m := setup(t)
	// The paper's first simple use-case: "creating metadata when a file
	// is created".
	err := m.Define(Trigger{
		Name: "tag-dat-files", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Condition: "endsWith($path, '.dat')",
		Operations: []dgl.Operation{
			dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$path", "attr": "kind", "value": "waveform"}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/w1.dat", 100, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/readme.txt", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	v, ok, _ := g.Namespace().GetMeta("/grid/in/w1.dat", "kind")
	if !ok || v != "waveform" {
		t.Errorf("trigger metadata = %q, %v", v, ok)
	}
	if _, ok, _ := g.Namespace().GetMeta("/grid/in/readme.txt", "kind"); ok {
		t.Errorf("condition did not filter")
	}
	if m.FireCount("tag-dat-files") != 1 {
		t.Errorf("FireCount = %d", m.FireCount("tag-dat-files"))
	}
	firings := m.Firings()
	if len(firings) != 1 || firings[0].Err != nil || firings[0].Trigger != "tag-dat-files" {
		t.Errorf("firings = %+v", firings)
	}
}

func TestAutoReplicationTrigger(t *testing.T) {
	g, _, m := setup(t)
	// "automating replication of certain data based on their meta-data":
	// here, replicate big ingests to tape.
	err := m.Define(Trigger{
		Name: "replicate-big", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Condition: "num($size) >= 1048576",
		Operations: []dgl.Operation{
			dgl.Op(dgl.OpReplicate, map[string]string{"path": "$path", "to": "tape"}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/big", 2<<20, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/small", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	reps, _ := g.Namespace().Replicas("/grid/in/big")
	if len(reps) != 2 {
		t.Errorf("big file replicas = %d", len(reps))
	}
	reps, _ = g.Namespace().Replicas("/grid/in/small")
	if len(reps) != 1 {
		t.Errorf("small file replicas = %d", len(reps))
	}
}

func TestVetoTrigger(t *testing.T) {
	g, _, m := setup(t)
	err := m.Define(Trigger{
		Name: "retention", Owner: "robot",
		Events: []dgms.EventType{dgms.EventDelete}, Phase: dgms.Before,
		Condition:   "startsWith($path, '/grid/in/archive')",
		Veto:        true,
		VetoMessage: "archived data is immutable",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/archive-x", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/scratch", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	err = g.Delete("user", "/grid/in/archive-x")
	if !errors.Is(err, dgms.ErrVetoed) || !strings.Contains(err.Error(), "immutable") {
		t.Errorf("veto: %v", err)
	}
	if !g.Namespace().Exists("/grid/in/archive-x") {
		t.Errorf("vetoed delete removed the object")
	}
	// Unmatched paths delete normally.
	if err := g.Delete("user", "/grid/in/scratch"); err != nil {
		t.Errorf("unmatched delete: %v", err)
	}
	f := m.Firings()
	if len(f) != 1 || !f[0].Vetoed {
		t.Errorf("veto firing log = %+v", f)
	}
}

func TestFlowAction(t *testing.T) {
	g, _, m := setup(t)
	// A trigger can launch a whole DGL flow; event fields arrive as
	// event_* variables.
	flow := dgl.NewFlow("post-ingest").
		Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{
			"path": "$event_path", "attr": "ingested-by", "value": "$event_user",
		})).Flow()
	err := m.Define(Trigger{
		Name: "pipeline", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Flow: &flow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/f", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	v, ok, _ := g.Namespace().GetMeta("/grid/in/f", "ingested-by")
	if !ok || v != "user" {
		t.Errorf("flow action meta = %q, %v", v, ok)
	}
}

func TestDefineValidation(t *testing.T) {
	_, _, m := setup(t)
	cases := []Trigger{
		{Name: "", Owner: "u"},
		{Name: "t", Owner: ""},
		{Name: "t", Owner: "u", Phase: dgms.After, Veto: true},
		{Name: "t", Owner: "u", Phase: dgms.Before,
			Operations: []dgl.Operation{dgl.Op(dgl.OpNoop, nil)}},
		{Name: "t", Owner: "u", Condition: "((", Phase: dgms.After},
		{Name: "t", Owner: "u", Phase: dgms.After,
			Operations: []dgl.Operation{{Type: "bogus"}}},
	}
	for i, tr := range cases {
		if err := m.Define(tr); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Invalid flow action.
	bad := dgl.Flow{Name: "x"} // no control
	if err := m.Define(Trigger{Name: "t", Owner: "u", Phase: dgms.After, Flow: &bad}); err == nil {
		t.Errorf("invalid flow accepted")
	}
	// Duplicate name.
	ok := Trigger{Name: "dup", Owner: "u", Phase: dgms.After}
	if err := m.Define(ok); err != nil {
		t.Fatal(err)
	}
	if err := m.Define(ok); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestRemove(t *testing.T) {
	g, _, m := setup(t)
	err := m.Define(Trigger{
		Name: "once", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Operations: []dgl.Operation{
			dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$path", "attr": "seen", "value": "1"}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Names(); len(got) != 1 || got[0] != "once" {
		t.Errorf("Names = %v", got)
	}
	if err := m.Remove("once"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("once"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
	if err := g.Ingest("user", "/grid/in/after-remove", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if _, ok, _ := g.Namespace().GetMeta("/grid/in/after-remove", "seen"); ok {
		t.Errorf("removed trigger still fired")
	}
	if m.FireCount("once") != 0 {
		t.Errorf("FireCount after remove = %d", m.FireCount("once"))
	}
}

func TestMultiTriggerOrderingDivergence(t *testing.T) {
	// Two users' triggers write the same attribute on the same event: the
	// final value depends on delivery order — the open issue the paper
	// calls out, measured in E8.
	run := func(order dgms.DeliveryOrder) string {
		g, e, two := setup(t)
		two.Close()
		// One action runner: with two, the firings race each other to the
		// attribute and the last writer is not the last delivered.
		m := NewManager(g, e, 1, 64)
		defer m.Close()
		g.Bus().SetDeliveryOrder(order, 1)
		for _, who := range []string{"alice", "bob"} {
			if err := g.Namespace().SetPermission("/grid", who, namespace.PermWrite); err != nil {
				t.Fatal(err)
			}
			err := m.Define(Trigger{
				Name: "classify-" + who, Owner: who,
				Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
				Operations: []dgl.Operation{
					dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$path", "attr": "class", "value": who}),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Ingest("user", "/grid/in/contested", 10, nil, "disk1"); err != nil {
			t.Fatal(err)
		}
		m.Flush()
		v, _, _ := g.Namespace().GetMeta("/grid/in/contested", "class")
		return v
	}
	fwd := run(dgms.OrderSubscription)
	rev := run(dgms.OrderReverse)
	if fwd == "" || rev == "" {
		t.Fatalf("triggers did not fire: %q / %q", fwd, rev)
	}
	if fwd == rev {
		t.Errorf("delivery order had no observable effect (%q / %q)", fwd, rev)
	}
}

// TestSelfRecursionSuppression: a trigger whose action ingests fires
// once, because its condition excludes what the action writes. Nothing
// in the engine breaks the loop — an event does not carry its cause —
// so a condition that matched the copy too would fire on it again.
func TestSelfRecursionSuppression(t *testing.T) {
	g, _, m := setup(t)
	err := m.Define(Trigger{
		Name: "copy-incoming", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Condition: "startsWith($path, '/grid/in/')",
		Operations: []dgl.Operation{
			dgl.Op(dgl.OpIngest, map[string]string{
				"path": "/grid/copy-of-$event", "resource": "disk1", "size": "1",
			}),
		},
	})
	// $event is unbound → interpolates to a constant path; second firing
	// would collide and fail rather than loop.
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/seed", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if !g.Namespace().Exists("/grid/copy-of-") {
		t.Errorf("trigger copy missing")
	}
	if m.FireCount("copy-incoming") != 1 {
		t.Errorf("FireCount = %d (runaway recursion?)", m.FireCount("copy-incoming"))
	}
}

func TestQueueOverflow(t *testing.T) {
	g, e, _ := setup(t)
	m := NewManager(g, e, 1, 1)
	defer m.Close()
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	e.RegisterOp("slowop", func(c *matrix.OpContext) error {
		started <- struct{}{}
		<-block
		return nil
	})
	// The engine validates against registered ops, but trigger.Define
	// checks builtins only — use a builtin op but a slow path instead:
	// block the single worker with a flow action.
	flow := dgl.NewFlow("slow").Step("s", dgl.Op("slowop", nil)).Flow()
	err := m.Define(Trigger{
		Name: "slow", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Flow: &flow,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First ingest occupies the worker, second fills the queue, third
	// overflows and is dropped with ErrQueueFull.
	for i := 0; i < 3; i++ {
		if err := g.Ingest("user", fmt.Sprintf("/grid/in/q%d", i), 1, nil, "disk1"); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	dropped := false
	for _, f := range m.Firings() {
		if errors.Is(f.Err, ErrQueueFull) {
			dropped = true
		}
	}
	close(block)
	m.Flush()
	if !dropped {
		t.Errorf("no overflow recorded; firings = %+v", m.Firings())
	}
}

func TestActionFailureLogged(t *testing.T) {
	g, _, m := setup(t)
	err := m.Define(Trigger{
		Name: "doomed", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Operations: []dgl.Operation{
			dgl.Op(dgl.OpReplicate, map[string]string{"path": "$path", "to": "no-such-resource"}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/in/x", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	f := m.Firings()
	if len(f) != 1 || f[0].Err == nil {
		t.Errorf("failed action not logged: %+v", f)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	g, e, _ := setup(t)
	m := NewManager(g, e, 0, 0) // defaults kick in
	m.Close()
	m.Close() // idempotent
	if err := m.Define(Trigger{Name: "late", Owner: "u", Phase: dgms.After}); !errors.Is(err, ErrClosed) {
		t.Errorf("define after close: %v", err)
	}
}

func BenchmarkE8TriggerMatching(b *testing.B) {
	g, e, _ := setup(b)
	m := NewManager(g, e, 4, 4096)
	defer m.Close()
	for i := 0; i < 20; i++ {
		err := m.Define(Trigger{
			Name: fmt.Sprintf("t%d", i), Owner: "robot",
			Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
			Condition: fmt.Sprintf("endsWith($path, '.%03d')", i),
			Operations: []dgl.Operation{
				dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$path", "attr": "t", "value": fmt.Sprint(i)}),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/grid/in/f%d.%03d", i, i%20)
		if err := g.Ingest("user", path, 1, nil, "disk1"); err != nil {
			b.Fatal(err)
		}
	}
	m.Flush()
}

func TestTimeGatedCondition(t *testing.T) {
	g, _, m := setup(t)
	// Only archive during the night shift: the condition reads $hour from
	// the simulated clock.
	err := m.Define(Trigger{
		Name: "night-archive", Owner: "robot",
		Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
		Condition: "$hour >= 20 || $hour < 6",
		Operations: []dgl.Operation{
			dgl.Op(dgl.OpReplicate, map[string]string{"path": "$path", "to": "tape"}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// sim.Epoch is midnight: inside the window.
	if err := g.Ingest("user", "/grid/in/night", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	reps, _ := g.Namespace().Replicas("/grid/in/night")
	if len(reps) != 2 {
		t.Errorf("night ingest not archived: %d replicas", len(reps))
	}
	// Midday: outside the window.
	g.Clock().Sleep(12 * time.Hour)
	if err := g.Ingest("user", "/grid/in/noon", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	reps, _ = g.Namespace().Replicas("/grid/in/noon")
	if len(reps) != 1 {
		t.Errorf("noon ingest archived despite window: %d replicas", len(reps))
	}
	if m.FireCount("night-archive") != 1 {
		t.Errorf("FireCount = %d", m.FireCount("night-archive"))
	}
}

// TestUnmatchedTriggerAllocs: a grid operation whose event a trigger's
// condition turns down costs the bus's list of matching subscriptions
// for each phase and the condition's environment — the event's fields
// and its detail pairs, read where the event holds them — and nothing
// for the detail itself: 4 allocations (5 where a map of 8 entries
// grows a second bucket array), where a detail map added 2. A matching
// event fires, so the condition saw both pairs.
func TestUnmatchedTriggerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	g, _, m := setup(t)
	if err := g.Ingest("user", "/grid/in/o.dat", 10, nil, "disk1"); err != nil {
		t.Fatal(err)
	}
	err := m.Define(Trigger{
		Name: "rare", Owner: "robot",
		Events: []dgms.EventType{dgms.EventMetaSet}, Phase: dgms.After,
		Condition: "$attr == 'tag' && $value == 'rare'",
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5
	got := testing.AllocsPerRun(100, func() {
		if err := g.SetMeta("user", "/grid/in/o.dat", "tag", "common"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("an operation a trigger turns down: %.0f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("an operation a trigger turns down allocates %.0f times, over the budget of %d", got, budget)
	}
	if err := g.SetMeta("user", "/grid/in/o.dat", "tag", "rare"); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if n := m.FireCount("rare"); n != 1 {
		t.Errorf("FireCount = %d after one matching event, want 1", n)
	}
}
