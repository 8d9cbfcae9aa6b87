package datagridflow

// integration_test.go drives the whole stack the way a deployment
// would: the hand-authored SCEC DGL document from the corpus is
// submitted over the wire to a matrix server whose grid is described in
// the Infrastructure Description Language, with triggers tagging
// arrivals and an ILM pass archiving afterwards. A second test runs the
// corpus while-loop document. These are the closest thing to the
// paper's production pilots (UCSD Libraries, SCEC) in test form.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"datagridflow/internal/dgms"
	"datagridflow/internal/infra"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/sim"
	"datagridflow/internal/wire"
	"datagridflow/internal/workload"
)

func TestIntegrationSCECPipelineOverWire(t *testing.T) {
	// Infrastructure described as the administrators would write it.
	desc := &infra.Description{
		Name: "scec-grid",
		Domains: []infra.Domain{
			{
				Name: "sdsc",
				Storage: []infra.Storage{
					{Name: "sdsc-gpfs", Class: "parallel-fs"},
					{Name: "sdsc-tape", Class: "archive"},
				},
				Compute: []infra.Compute{{Name: "sdsc-cluster", Nodes: 8, Power: 1}},
				SLAs:    []infra.SLA{{Name: "scec-gold", Users: []string{"jonw"}, Priority: 10}},
			},
		},
	}
	grid := dgms.New(dgms.Options{})
	if _, err := desc.Apply(grid); err != nil {
		t.Fatal(err)
	}
	if err := grid.CreateCollectionAll(grid.Admin(), "/grid/scec"); err != nil {
		t.Fatal(err)
	}
	if err := grid.Namespace().SetPermission("/grid", "jonw", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	engine := matrix.NewEngine(grid)

	// Trigger: arrivals get stage=raw so the pipeline's datagrid query
	// finds them.
	triggers := NewTriggerManager(grid, engine, 2, 256)
	defer triggers.Close()
	if err := triggers.Define(Trigger{
		Name: "tag-arrivals", Owner: grid.Admin(),
		Events: []EventType{dgms.EventIngest}, Phase: dgms.After,
		Condition: "endsWith($path, '.dat')",
		Operations: []Operation{
			Op(OpSetMeta, map[string]string{"path": "$path", "attr": "stage", "value": "raw"}),
		},
	}); err != nil {
		t.Fatal(err)
	}

	// The simulation drops waveforms onto scratch.
	specs := workload.SCEC(sim.NewRand(11), 1, 6)
	if err := workload.Ingest(grid, "jonw", "sdsc-gpfs", specs); err != nil {
		t.Fatal(err)
	}
	triggers.Flush()

	// Serve the engine and submit the corpus document over TCP.
	srv := NewMatrixServer(engine)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialMatrix(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	doc, err := os.ReadFile("internal/dgl/testdata/scec-pipeline.xml")
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseDGLRequest(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if serr := res.Err(); serr != nil || res.ID == "" {
		t.Fatalf("submit = %+v (err %v)", res.Response, serr)
	}
	exec, ok := engine.Execution(res.ID)
	if !ok {
		t.Fatal("execution untracked")
	}
	if err := exec.Wait(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}

	// Status over the wire at the per-file iteration granularity.
	st, err := client.Status("jonw", res.ID+"/scec-pipeline/per-file", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Children) != len(specs) {
		t.Errorf("iterations = %d, want %d", len(st.Children), len(specs))
	}

	// Every waveform processed, archived, and fixable in the audit log.
	for _, spec := range specs {
		stage, _, _ := grid.Namespace().GetMeta(spec.Path, "stage")
		if stage != "processed" {
			t.Errorf("%s stage = %q", spec.Path, stage)
		}
		reps, _ := grid.Namespace().Replicas(spec.Path)
		if len(reps) != 2 {
			t.Errorf("%s replicas = %d", spec.Path, len(reps))
		}
	}
	// The beforeEntry/afterExit rules stamped the collection.
	v, _, _ := grid.Namespace().GetMeta("/grid/scec", "pipeline")
	if v != "done" {
		t.Errorf("pipeline meta = %q", v)
	}
	// Compute charged to the named lane.
	if grid.Meter().Busy("sdsc-cluster") <= 0 {
		t.Errorf("no compute charged")
	}
	// Provenance for one waveform tells the whole story.
	recs := grid.Provenance().Query(ProvenanceFilter{TargetPrefix: specs[0].Path})
	if len(recs) < 3 {
		t.Errorf("provenance too thin: %d records", len(recs))
	}
}

func TestIntegrationCorpusWhileLoop(t *testing.T) {
	grid := NewGrid(GridOptions{})
	if err := grid.RegisterResource(NewResource("disk", "x", Disk, 0)); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(grid)
	doc, err := os.ReadFile("internal/dgl/testdata/ilm-nightly.xml")
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseDGLRequest(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := engine.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Status == nil || resp.Status.State != "succeeded" {
		t.Fatalf("response = %+v", resp)
	}
	// Three batches ⇒ three iterations of the drain loop, visible in
	// the status tree and in the exec provenance.
	drain, ok := resp.Status.Find(resp.Status.ID + "/drain")
	if !ok {
		t.Fatalf("drain flow not in status tree")
	}
	if len(drain.Children) != 3 {
		t.Errorf("drain iterations = %d", len(drain.Children))
	}
	if n := grid.Provenance().Count(ProvenanceFilter{Action: "exec"}); n != 3 {
		t.Errorf("exec records = %d", n)
	}
}

func TestIntegrationPeerNetworkStatusRouting(t *testing.T) {
	lookup := wire.NewLookupServer()
	lookupAddr, err := lookup.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lookup.Close()

	mkPeer := func(name string) *MatrixPeer {
		g := NewGrid(GridOptions{})
		if err := g.RegisterResource(NewResource("disk-"+name, name, Disk, 0)); err != nil {
			t.Fatal(err)
		}
		if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
			t.Fatal(err)
		}
		e := NewEngineConfig(g, EngineConfig{IDPrefix: name + ":"})
		p := wire.NewPeer(name, e)
		if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	peerA, peerB := mkPeer("siteA"), mkPeer("siteB")

	// Submit ten flows to B through A, then audit them all from A.
	auditor, err := DialMatrix(peerA.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer auditor.Close()
	var ids []string
	for i := 0; i < 10; i++ {
		flow := NewFlow(fmt.Sprintf("job%d", i)).
			Step("work", Op(OpExec, map[string]string{"command": "x", "cpuSeconds": "1"})).Flow()
		resp, err := peerA.SubmitTo("siteB", peerB.Engine().Grid().Admin(), flow)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Ack.ID)
	}
	for _, id := range ids {
		exec, ok := peerB.Engine().Execution(id)
		if !ok {
			t.Fatalf("%s untracked on B", id)
		}
		if err := exec.Wait(); err != nil {
			t.Fatal(err)
		}
		st, err := auditor.Status("auditor", id, false)
		if err != nil || st.State != "succeeded" {
			t.Errorf("cross-peer status of %s = %+v, %v", id, st, err)
		}
	}
}
