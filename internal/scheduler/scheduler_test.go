package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/infra"
	"datagridflow/internal/matrix"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
)

// testRig builds a two-domain grid: data lives at sdsc; ncsa has the
// faster cluster but must pull inputs across a slow link.
func testRig(t testing.TB) (*dgms.Grid, *Broker) {
	t.Helper()
	g := dgms.New(dgms.Options{})
	desc := &infra.Description{
		Domains: []infra.Domain{
			{
				Name:    "sdsc",
				Storage: []infra.Storage{{Name: "sdsc-disk", Class: "disk"}},
				Compute: []infra.Compute{{Name: "sdsc-cluster", Nodes: 4, Power: 1.0}},
			},
			{
				Name:    "ncsa",
				Storage: []infra.Storage{{Name: "ncsa-disk", Class: "disk"}},
				Compute: []infra.Compute{{Name: "ncsa-cluster", Nodes: 4, Power: 2.0}},
			},
		},
		Links: []infra.Link{{From: "sdsc", To: "ncsa", BandwidthMBps: 1, LatencyMs: 50, Symmetric: true}},
	}
	nodes, err := desc.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/in"); err != nil {
		t.Fatal(err)
	}
	return g, NewBroker(g, nodes, 42)
}

func ingest(t testing.TB, g *dgms.Grid, path string, size int64, res string) {
	t.Helper()
	if err := g.Ingest(g.Admin(), path, size, nil, res); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPrefersDataLocality(t *testing.T) {
	g, b := testRig(t)
	// 1 GiB input at sdsc: moving it over a 1 MiB/s link costs ~1000 s,
	// far more than the 2× compute advantage at ncsa.
	ingest(t, g, "/grid/in/big", 1<<30, "sdsc-disk")
	task := &Task{Name: "t", Transformation: "sum", CPUSeconds: 100, Inputs: []string{"/grid/in/big"}}
	chosen, cands, err := b.Plan(task, CostBased)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Node.Name != "sdsc-cluster" {
		t.Errorf("chose %s, want sdsc-cluster (data locality)", chosen.Node.Name)
	}
	if len(cands) != 2 || cands[0].Estimate.Total() > cands[1].Estimate.Total() {
		t.Errorf("candidates unsorted: %+v", cands)
	}
	if chosen.Estimate.DataMoved != 0 {
		t.Errorf("local placement moved %d bytes", chosen.Estimate.DataMoved)
	}
	if chosen.InputSources["/grid/in/big"] != "sdsc-disk" {
		t.Errorf("input source = %v", chosen.InputSources)
	}
}

func TestPlanPrefersFastComputeForCPUBound(t *testing.T) {
	g, b := testRig(t)
	// Tiny input, huge compute: the 2× ncsa cluster wins despite the
	// transfer.
	ingest(t, g, "/grid/in/small", 1024, "sdsc-disk")
	task := &Task{Name: "t", Transformation: "mc", CPUSeconds: 10000, Inputs: []string{"/grid/in/small"}}
	chosen, _, err := b.Plan(task, CostBased)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Node.Name != "ncsa-cluster" {
		t.Errorf("chose %s, want ncsa-cluster (compute bound)", chosen.Node.Name)
	}
	if chosen.Estimate.Compute != 5000*time.Second {
		t.Errorf("compute estimate = %v", chosen.Estimate.Compute)
	}
}

func TestReplicaSelectionInPlanning(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/data", 100<<20, "sdsc-disk")
	if err := g.Replicate(g.Admin(), "/grid/in/data", "ncsa-disk"); err != nil {
		t.Fatal(err)
	}
	// With replicas in both domains, each cluster reads locally; the
	// faster cluster wins.
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 100, Inputs: []string{"/grid/in/data"}}
	chosen, _, err := b.Plan(task, CostBased)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Node.Name != "ncsa-cluster" || chosen.InputSources["/grid/in/data"] != "ncsa-disk" {
		t.Errorf("replica selection: node=%s sources=%v", chosen.Node.Name, chosen.InputSources)
	}
	if chosen.Estimate.DataMoved != 0 {
		t.Errorf("moved %d bytes despite local replica", chosen.Estimate.DataMoved)
	}
}

func TestPlanErrors(t *testing.T) {
	g, b := testRig(t)
	task := &Task{Name: "t", Inputs: []string{"/grid/in/missing"}}
	if _, _, err := b.Plan(task, CostBased); !errors.Is(err, ErrNoInput) {
		t.Errorf("missing input: %v", err)
	}
	empty := NewBroker(g, nil, 1)
	if _, _, err := empty.Plan(&Task{Name: "t"}, CostBased); !errors.Is(err, ErrNoNodes) {
		t.Errorf("no nodes: %v", err)
	}
	// All replicas offline.
	ingest(t, g, "/grid/in/dead", 10, "sdsc-disk")
	res, _ := g.Resource("sdsc-disk")
	res.SetOffline(true)
	if _, _, err := b.Plan(&Task{Name: "t", Inputs: []string{"/grid/in/dead"}}, CostBased); !errors.Is(err, ErrNoInput) {
		t.Errorf("offline replicas: %v", err)
	}
	res.SetOffline(false)
}

func TestStrategies(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/f", 1<<30, "sdsc-disk")
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 10, Inputs: []string{"/grid/in/f"}}
	// Static always lands on the first node in inventory order.
	chosen, _, err := b.Plan(task, StaticPlacement)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Node.Name != "sdsc-cluster" {
		t.Errorf("static chose %s", chosen.Node.Name)
	}
	// Random is reproducible for a fixed seed.
	b2 := NewBroker(g, b.nodes, 7)
	b3 := NewBroker(g, b.nodes, 7)
	for i := 0; i < 5; i++ {
		p2, _, err2 := b2.Plan(task, RandomPlacement)
		p3, _, err3 := b3.Plan(task, RandomPlacement)
		if err2 != nil || err3 != nil || p2.Node.Name != p3.Node.Name {
			t.Errorf("random not reproducible at %d", i)
		}
	}
	for _, s := range []Strategy{CostBased, RandomPlacement, StaticPlacement, Strategy(9)} {
		if s.String() == "" {
			t.Errorf("empty strategy name")
		}
	}
}

func TestExecuteRegistersOutputAndDerivation(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/raw", 10<<20, "sdsc-disk")
	task := &Task{
		Name: "derive", Transformation: "fft", CPUSeconds: 50,
		Inputs: []string{"/grid/in/raw"}, Output: "/grid/in/spectrum", OutputSize: 5 << 20,
	}
	chosen, err := b.Execute(task, CostBased, "")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Namespace().Exists("/grid/in/spectrum") {
		t.Errorf("output not registered")
	}
	// Output landed in the executing node's domain.
	reps, _ := g.Namespace().Replicas("/grid/in/spectrum")
	res, _ := g.Resource(reps[0].Resource)
	if res.Domain() != chosen.Node.Domain {
		t.Errorf("output in %s, node in %s", res.Domain(), chosen.Node.Domain)
	}
	key := vdata.Key("fft", []string{"/grid/in/raw"}, nil, g.Admin())
	if ent, ok := b.catalog.Lookup(g.Admin(), key); !ok || !slices.Equal(ent.Outputs, []string{"/grid/in/spectrum"}) {
		t.Errorf("derivation not recorded: %+v, %v", ent, ok)
	}
	executed, skipped := b.Stats()
	if executed != 1 || skipped != 0 {
		t.Errorf("stats = %d, %d", executed, skipped)
	}
	// Re-executing the same derivation is a virtual-data hit.
	if _, err := b.Execute(task, CostBased, ""); err != nil {
		t.Fatal(err)
	}
	executed, skipped = b.Stats()
	if executed != 1 || skipped != 1 {
		t.Errorf("after rerun: %d, %d", executed, skipped)
	}
	if n := g.Provenance().Count(provenance.Filter{Action: "task.virtual-data-hit"}); n != 1 {
		t.Errorf("virtual-data provenance = %d", n)
	}
	// Deleting the output invalidates the shortcut: next run recomputes.
	if err := g.Delete(g.Admin(), "/grid/in/spectrum"); err != nil {
		t.Fatal(err)
	}
	if n, err := b.catalog.Invalidate(g.Admin(), "/grid/in/spectrum"); n != 1 || err != nil {
		t.Fatalf("invalidate the deleted output: %d, %v", n, err)
	}
	if _, err := b.Execute(task, CostBased, ""); err != nil {
		t.Fatal(err)
	}
	executed, _ = b.Stats()
	if executed != 2 {
		t.Errorf("recompute after invalidation: executed = %d", executed)
	}
	// The broker's user is the derivation's tenant: the same task under
	// another user is not a hit, although its output exists. The broker
	// runs it, and the grid refuses alice's write of admin's output.
	b.SetUser("alice")
	if _, err := b.Execute(task, CostBased, ""); err == nil {
		t.Error("another user's rerun was served from admin's derivation")
	}
	if executed, skipped = b.Stats(); executed != 3 || skipped != 1 {
		t.Errorf("another user's rerun: executed %d, skipped %d; want 3, 1", executed, skipped)
	}
}

func TestExecuteQueueing(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/x", 1024, "sdsc-disk")
	start := g.Clock().Now()
	// 12 CPU-bound tasks on 4+4 nodes: some queue.
	for i := 0; i < 12; i++ {
		task := &Task{
			Name: fmt.Sprintf("t%d", i), Transformation: "sim", CPUSeconds: 3600,
			Inputs: []string{"/grid/in/x"},
		}
		if _, err := b.Execute(task, CostBased, ""); err != nil {
			t.Fatal(err)
		}
	}
	ms := b.Makespan(start)
	if ms <= 0 {
		t.Fatalf("makespan = %v", ms)
	}
	// 12 tasks × 3600 ref-seconds across 4 slots at 1× plus 4 at 2× —
	// perfectly packed lower bound is 12*3600/(4*1+4*2) = 3600 s; the
	// greedy broker should be within 3× of that and beyond 0.
	if ms < time.Hour/2 || ms > 6*time.Hour {
		t.Errorf("makespan out of plausible band: %v", ms)
	}
	// Queue wait visible to subsequent plans.
	task := &Task{Name: "late", Transformation: "sim", CPUSeconds: 1, Inputs: []string{"/grid/in/x"}}
	chosen, _, err := b.Plan(task, CostBased)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Estimate.Queue <= 0 {
		t.Errorf("no queue wait after saturating the clusters")
	}
}

func TestExecuteNoStorageForOutput(t *testing.T) {
	g := dgms.New(dgms.Options{})
	if err := g.RegisterResource(vfs.New("d", "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	ingest(t, g, "/grid/x", 10, "d")
	// Compute domain has no storage at all.
	b := NewBroker(g, []infra.ComputeNode{{Name: "c", Domain: "empty", Nodes: 1, Power: 1}}, 1)
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 1,
		Inputs: []string{"/grid/x"}, Output: "/grid/out", OutputSize: 10}
	if _, err := b.Execute(task, CostBased, ""); err == nil {
		t.Errorf("no-storage execute accepted")
	}
	// Explicit output resource rescues it.
	if _, err := b.Execute(task, CostBased, "d"); err != nil {
		t.Errorf("explicit output resource: %v", err)
	}
}

func TestRewriteAbstractResources(t *testing.T) {
	g, b := testRig(t)
	// Add an archive so class:archive resolves.
	if err := g.RegisterResource(vfs.New("vault", "sdsc", vfs.Archive, 0)); err != nil {
		t.Fatal(err)
	}
	ingest(t, g, "/grid/in/f", 1024, "sdsc-disk")
	abstract := dgl.NewFlow("abstract").
		Step("stage", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/in/new", "size": "10", "resource": "class:disk@ncsa",
		})).
		Step("archive", dgl.Op(dgl.OpReplicate, map[string]string{
			"path": "/grid/in/f", "to": "class:archive",
		})).
		Step("compute", dgl.Op(dgl.OpExec, map[string]string{
			"command": "render", "cpuSeconds": "100",
		})).Flow()
	concrete, err := b.Rewrite(abstract)
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if v, _ := abstract.Steps[1].Operation.Param("to"); v != "class:archive" {
		t.Errorf("rewrite mutated input flow")
	}
	if v, _ := concrete.Steps[0].Operation.Param("resource"); v != "ncsa-disk" {
		t.Errorf("class:disk@ncsa → %q", v)
	}
	if v, _ := concrete.Steps[1].Operation.Param("to"); v != "vault" {
		t.Errorf("class:archive → %q", v)
	}
	lane, ok := concrete.Steps[2].Operation.Param("lane")
	if !ok || lane == "" {
		t.Errorf("exec lane unbound")
	}
	// cpuSeconds scaled by node power: ncsa (2×) → 50.
	if lane == "ncsa-cluster" {
		if v, _ := concrete.Steps[2].Operation.Param("cpuSeconds"); v != "50" {
			t.Errorf("cpuSeconds = %q", v)
		}
	}
	// The concrete flow actually runs.
	e := matrix.NewEngine(g)
	ex, err := e.Run(g.Admin(), concrete)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// Nested flows rewritten too.
	nested := dgl.NewFlow("outer").SubFlow(dgl.NewFlow("inner").
		Step("s", dgl.Op(dgl.OpReplicate, map[string]string{"path": "/grid/in/f", "to": "class:archive"}))).Flow()
	rw, err := b.Rewrite(nested)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rw.Flows[0].Steps[0].Operation.Param("to"); v != "vault" {
		t.Errorf("nested rewrite: %q", v)
	}
	// Unknown class fails.
	bad := dgl.NewFlow("bad").Step("s", dgl.Op(dgl.OpReplicate,
		map[string]string{"path": "/x", "to": "class:floppy"})).Flow()
	if _, err := b.Rewrite(bad); err == nil {
		t.Errorf("unknown class accepted")
	}
	// Unsatisfiable class fails.
	bad2 := dgl.NewFlow("bad2").Step("s", dgl.Op(dgl.OpReplicate,
		map[string]string{"path": "/x", "to": "class:memory"})).Flow()
	if _, err := b.Rewrite(bad2); err == nil {
		t.Errorf("unsatisfiable class accepted")
	}
	// Exec steps with an explicit lane keep it.
	pinned := dgl.NewFlow("pin").Step("s", dgl.Op(dgl.OpExec,
		map[string]string{"command": "x", "lane": "mylane"})).Flow()
	rw2, err := b.Rewrite(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rw2.Steps[0].Operation.Param("lane"); v != "mylane" {
		t.Errorf("pinned lane overwritten: %q", v)
	}
}

func TestMakespanBeforeWork(t *testing.T) {
	_, b := testRig(t)
	if got := b.Makespan(sim.Epoch); got != 0 {
		t.Errorf("idle makespan = %v", got)
	}
}

func BenchmarkE9Plan(b *testing.B) {
	g, br := testRig(b)
	ingest(b, g, "/grid/in/f", 100<<20, "sdsc-disk")
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 100, Inputs: []string{"/grid/in/f"}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := br.Plan(task, CostBased); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSLAFiltering(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/s", 1024, "sdsc-disk")
	desc := &infra.Description{
		Domains: []infra.Domain{
			{Name: "sdsc", SLAs: []infra.SLA{{Name: "members", Users: []string{"alice"}, Priority: 5}}},
			{Name: "ncsa"}, // no SLAs: open to all
		},
	}
	b.SetDescription(desc)
	b.SetUser("bob") // not admitted at sdsc
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 10, Inputs: []string{"/grid/in/s"}}
	chosen, cands, err := b.Plan(task, CostBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || chosen.Node.Domain != "ncsa" {
		t.Errorf("bob placed on %s with %d candidates", chosen.Node.Domain, len(cands))
	}
	// alice sees both domains.
	b.SetUser("alice")
	_, cands, err = b.Plan(task, CostBased)
	if err != nil || len(cands) != 2 {
		t.Errorf("alice candidates = %d, %v", len(cands), err)
	}
	// Static placement falls back when node 0 is excluded.
	b.SetUser("bob")
	chosen, _, err = b.Plan(task, StaticPlacement)
	if err != nil || chosen.Node.Domain != "ncsa" {
		t.Errorf("static fallback = %+v, %v", chosen.Node, err)
	}
	// No SLA admits the user anywhere: error.
	closed := &infra.Description{
		Domains: []infra.Domain{
			{Name: "sdsc", SLAs: []infra.SLA{{Name: "x", Users: []string{"alice"}}}},
			{Name: "ncsa", SLAs: []infra.SLA{{Name: "y", Users: []string{"alice"}}}},
		},
	}
	b.SetDescription(closed)
	if _, _, err := b.Plan(task, CostBased); !errors.Is(err, ErrNoNodes) {
		t.Errorf("fully closed grid: %v", err)
	}
}

func TestSLAPriorityTieBreak(t *testing.T) {
	// Two identical domains; SLA priority must break the cost tie.
	g := dgms.New(dgms.Options{})
	desc := &infra.Description{
		Domains: []infra.Domain{
			{Name: "a",
				Storage: []infra.Storage{{Name: "a-disk", Class: "disk"}},
				Compute: []infra.Compute{{Name: "a-cluster", Nodes: 2, Power: 1}},
				SLAs:    []infra.SLA{{Name: "std", Priority: 1}}},
			{Name: "b",
				Storage: []infra.Storage{{Name: "b-disk", Class: "disk"}},
				Compute: []infra.Compute{{Name: "b-cluster", Nodes: 2, Power: 1}},
				SLAs:    []infra.SLA{{Name: "gold", Priority: 9}}},
		},
	}
	nodes, err := desc.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(g, nodes, 1)
	b.SetDescription(desc)
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 10}
	chosen, _, err := b.Plan(task, CostBased)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Node.Name != "b-cluster" {
		t.Errorf("priority tie-break chose %s", chosen.Node.Name)
	}
}
