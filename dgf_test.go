package datagridflow

import (
	"context"
	"errors"
	"testing"

	"datagridflow/internal/store"
)

// TestFacadeEndToEnd drives the whole stack through the public API only:
// grid, engine, triggers, ILM star, broker — the path a downstream user
// takes.
func TestFacadeEndToEnd(t *testing.T) {
	grid := NewGrid(GridOptions{})
	for _, r := range []*Resource{
		NewResource("disk1", "sdsc", Disk, 0),
		NewResource("tape1", "archive", Archive, 0),
	} {
		if err := grid.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := grid.CreateCollectionAll(grid.Admin(), "/grid/home"); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(grid)

	flow := NewFlow("quick").
		Step("ingest", Op(OpIngest, map[string]string{
			"path": "/grid/home/a.dat", "size": "1024", "resource": "disk1",
		})).
		Step("tag", Op(OpSetMeta, map[string]string{
			"path": "/grid/home/a.dat", "attr": "stage", "value": "raw",
		})).
		Step("protect", Op(OpReplicate, map[string]string{
			"path": "/grid/home/a.dat", "to": "tape1",
		})).Flow()
	exec, err := engine.Run(grid.Admin(), flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	reps, err := grid.Namespace().Replicas("/grid/home/a.dat")
	if err != nil || len(reps) != 2 {
		t.Fatalf("replicas = %v, %v", reps, err)
	}
	// Provenance is queryable.
	if n := grid.Provenance().Count(ProvenanceFilter{Action: "ingest"}); n != 1 {
		t.Errorf("provenance ingests = %d", n)
	}
	// ILM star over the collection.
	star, err := ImplodingStar(grid, grid.Admin(), "/grid/home", "tape1", false)
	if err != nil {
		t.Fatal(err)
	}
	if star.CountSteps() != 0 { // already on tape
		t.Errorf("star steps = %d", star.CountSteps())
	}
	// Value model sanity through the facade.
	vm := NewValueModel()
	vm.Record("/grid/home/a.dat", grid.Clock().Now())
	if v := vm.Value("/grid/home/a.dat", grid.Clock().Now(), grid.Clock().Now()); v <= 0 {
		t.Errorf("value = %v", v)
	}
	// Wire server + client through the facade.
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
	resp, err := client.SubmitFlow(grid.Admin(), NewFlow("remote").
		Step("noop", Op(OpNoop, nil)).Flow())
	if err != nil || resp.Error != "" {
		t.Fatalf("remote submit = %+v, %v", resp, err)
	}
	// Broker through the facade.
	broker := NewBroker(grid, []ComputeNode{{Name: "c1", Domain: "sdsc", Nodes: 2, Power: 1}}, 1)
	task := &Task{Name: "t", Transformation: "x", CPUSeconds: 10,
		Inputs: []string{"/grid/home/a.dat"}, Output: "/grid/home/out", OutputSize: 10}
	if _, err := broker.Execute(task, 0, ""); err != nil {
		t.Fatal(err)
	}
	if !grid.Namespace().Exists("/grid/home/out") {
		t.Errorf("broker output missing")
	}
}

// TestFacadeSurface exercises the remaining facade helpers so the public
// API stays wired to its internal implementations.
func TestFacadeSurface(t *testing.T) {
	flow := NewFlow("render-me").
		Step("a", Op(OpNoop, nil)).
		Step("b", Op(OpNoop, nil)).Flow()
	if tree := RenderTree(&flow); tree == "" || !contains(tree, "render-me") {
		t.Errorf("RenderTree = %q", tree)
	}
	if dot := RenderDot(&flow); !contains(dot, "digraph") {
		t.Errorf("RenderDot = %q", dot)
	}
	// DGL marshal/parse helpers.
	data, err := MarshalDGL(NewRequest("u", "vo", flow))
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseDGLRequest(data)
	if err != nil || req.Flow.Name != "render-me" {
		t.Errorf("ParseDGLRequest = %+v, %v", req, err)
	}
	// Clock + provenance helpers.
	clock := NewVirtualClock()
	if clock.Now().Year() != 2005 {
		t.Errorf("epoch year = %d", clock.Now().Year())
	}
	store, err := OpenProvenance(t.TempDir() + "/p.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(ProvenanceRecord{Action: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Stored procedures via the facade.
	grid := NewGrid(GridOptions{})
	if err := grid.RegisterResource(NewResource("d", "x", Disk, 0)); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(grid)
	proc := Procedure{Name: "mk", Params: []string{"p"},
		Flow: NewFlow("body").Step("s", Op(OpMakeCollection, map[string]string{"path": "$p"})).Flow()}
	if err := engine.StoreProcedure(proc); err != nil {
		t.Fatal(err)
	}
	caller := NewFlow("caller").Step("call", Op(OpCall, map[string]string{
		"procedure": "mk", "p": "/grid/made-by-proc",
	})).Flow()
	ex, err := engine.Run(grid.Admin(), caller)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if !grid.Namespace().Exists("/grid/made-by-proc") {
		t.Errorf("facade procedure call failed")
	}
	// Exploding star facade wrapper.
	if err := grid.CreateCollectionAll(grid.Admin(), "/grid/src"); err != nil {
		t.Fatal(err)
	}
	if _, err := ExplodingStar(grid, grid.Admin(), "/grid/src", nil); err != nil {
		t.Errorf("ExplodingStar facade: %v", err)
	}
	// Event/phase constants resolve.
	if EventIngest != "ingest" || PhaseBefore == PhaseAfter {
		t.Errorf("event constants wrong")
	}
}

// TestFacadeFaultRecovery drives the fault/retry/typed-error surface
// through the public API alone: a parsed fault plan takes a resource
// down, a declared retry policy burns out, and the failure is
// recognisable with errors.Is against the package sentinels; a run
// recorded in a flow-state store (the one internal package the facade
// does not wrap) survives into a WaitContext.
func TestFacadeFaultRecovery(t *testing.T) {
	grid := NewGrid(GridOptions{})
	if err := grid.RegisterResource(NewResource("disk1", "sdsc", Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := grid.CreateCollectionAll(grid.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan([]byte(`{"seed": 1, "events": [
		{"target": "disk1", "kind": "resource-down"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	injector, err := NewFaultInjector(grid.Clock(), *plan)
	if err != nil {
		t.Fatal(err)
	}
	grid.SetFault(injector)

	engine := NewEngine(grid)
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine.SetStore(st1)

	st := Step{
		Name: "ingest", OnError: OnErrorRetry, Retries: 2, Backoff: "1s",
		Operation: Op(OpIngest, map[string]string{
			"path": "/grid/f.dat", "size": "100", "resource": "disk1",
		}),
	}
	exec, err := engine.RunContext(context.Background(), grid.Admin(),
		NewFlow("doomed").StepWith(st).Flow())
	if err != nil {
		t.Fatal(err)
	}
	runErr := exec.WaitContext(context.Background())
	if !errors.Is(runErr, ErrRetryExhausted) || !errors.Is(runErr, ErrResourceDown) {
		t.Errorf("errors.Is against facade sentinels failed: %v", runErr)
	}
	if Retryable(runErr) {
		t.Errorf("exhausted error marked retryable")
	}
	if !injector.Down("disk1") {
		t.Errorf("injector introspection: disk1 should be down")
	}
	// A run the store saw end is not recoverable — the fence held.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := NewEngine(NewGrid(GridOptions{}))
	e2.SetStore(st2)
	if recovered, err := e2.RecoverFromStore(); err != nil || len(recovered) != 0 {
		t.Errorf("recovery after clean end = %d execs, %v", len(recovered), err)
	}
	if st2.Stats().ReplayRecords == 0 {
		t.Errorf("the store recorded nothing of the run")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
