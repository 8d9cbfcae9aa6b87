package matrix

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/vfs"
)

// TestRestartFromProvenanceCrossProcess simulates a server crash: the
// first engine runs against a file-backed provenance store and fails
// mid-flow; a brand-new engine (new process, new grid object, same
// provenance file and same DGL document) resumes, skipping every step
// the log records as finished.
func TestRestartFromProvenanceCrossProcess(t *testing.T) {
	dir := t.TempDir()
	provPath := filepath.Join(dir, "prov.jsonl")

	mkEngine := func(failing bool) (*Engine, *int) {
		store, err := provenance.Open(provPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		g := dgms.New(dgms.Options{Provenance: store})
		if err := g.RegisterResource(vfs.New("disk", "sdsc", vfs.Disk, 0)); err != nil {
			t.Fatal(err)
		}
		if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
			t.Fatal(err)
		}
		if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g)
		runs := 0
		var mu sync.Mutex
		e.RegisterOp("work", func(c *OpContext) error {
			mu.Lock()
			defer mu.Unlock()
			runs++
			if failing && c.ParamOr("i", "") == "6" {
				return errors.New("process about to die")
			}
			return nil
		})
		return e, &runs
	}

	flowDoc := func() dgl.Flow {
		b := dgl.NewFlow("durable-job")
		for i := 0; i < 10; i++ {
			b.Step(fmt.Sprintf("s%d", i), dgl.Op("work", map[string]string{"i": fmt.Sprint(i)}))
		}
		return b.Flow()
	}

	// Process 1: fails at step 6 (0..5 succeeded), then "crashes".
	e1, runs1 := mkEngine(true)
	ex, err := e1.Run("user", flowDoc())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Wait() == nil {
		t.Fatal("first run should fail")
	}
	if *runs1 != 7 { // s0..s5 ok + failing s6
		t.Fatalf("first process ran %d steps", *runs1)
	}
	priorID := ex.ID
	if err := e1.grid.Provenance().Flush(); err != nil {
		t.Fatal(err)
	}

	// Process 2: a fresh engine over the same provenance file resumes.
	e2, runs2 := mkEngine(false)
	req := dgl.NewAsyncRequest("user", "", flowDoc())
	ex2, err := e2.RestartFromProvenance(priorID, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	// Only s6..s9 re-ran.
	if *runs2 != 4 {
		t.Errorf("second process ran %d steps, want 4", *runs2)
	}
	st := ex2.Status(true)
	if st.CountByState()[string(StateSkipped)] != 6 {
		t.Errorf("skipped = %v", st.CountByState())
	}
}

func TestRestartFromProvenanceErrors(t *testing.T) {
	e := newTestEngine(t)
	flow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	req := dgl.NewAsyncRequest("user", "", flow)
	// Unknown prior execution.
	if _, err := e.RestartFromProvenance("dgf-999999", req); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown prior: %v", err)
	}
	// Missing flow.
	if _, err := e.RestartFromProvenance("x", &dgl.Request{User: dgl.GridUser{Name: "u"}}); !errors.Is(err, dgl.ErrInvalid) {
		t.Errorf("missing flow: %v", err)
	}
	// Invalid flow.
	bad := dgl.NewFlow("f").Step("s", dgl.Op("nosuch", nil)).Flow()
	if _, err := e.RestartFromProvenance("x", dgl.NewAsyncRequest("u", "", bad)); !errors.Is(err, dgl.ErrInvalid) {
		t.Errorf("invalid flow: %v", err)
	}
	// A prior id with records but no successful steps resumes as a full
	// re-run.
	failFlow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpFail, nil)).Flow()
	ex, err := e.Run("user", failFlow)
	if err != nil {
		t.Fatal(err)
	}
	_ = ex.Wait()
	okFlow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex2, err := e.RestartFromProvenance(ex.ID, dgl.NewAsyncRequest("user", "", okFlow))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	st := ex2.Status(true)
	if st.CountByState()[string(StateSkipped)] != 0 {
		t.Errorf("nothing should be skipped on a full re-run")
	}
}

func TestRegisterInPlaceOperation(t *testing.T) {
	e := newTestEngine(t)
	g := e.Grid()
	// Pre-existing data written to the resource out of band (legacy
	// storage the middleware is deployed over).
	disk, _ := g.Resource("disk1")
	if _, err := disk.Put("legacy/tape-dump-0042", 12, []byte("legacy bytes"), g.Clock().Now()); err != nil {
		t.Fatal(err)
	}
	flow := dgl.NewFlow("onboard").
		Step("register", dgl.Op(dgl.OpRegister, map[string]string{
			"path": "/grid/dump42", "resource": "disk1", "physicalID": "legacy/tape-dump-0042",
		})).
		Step("verify", dgl.Op(dgl.OpVerify, map[string]string{"path": "/grid/dump42"})).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// No data moved: the resource still holds exactly one object.
	if disk.Count() != 1 {
		t.Errorf("register moved data: %d objects", disk.Count())
	}
	data, err := g.Get("user", "", "/grid/dump42")
	if err != nil || string(data) != "legacy bytes" {
		t.Errorf("Get registered object = %q, %v", data, err)
	}
	e2, err := g.Namespace().Lookup("/grid/dump42")
	if err != nil || e2.Size != 12 || e2.Replicas[0].PhysicalID != "legacy/tape-dump-0042" {
		t.Errorf("registered entry = %+v, %v", e2, err)
	}
	// Missing physical object fails cleanly.
	bad := dgl.NewFlow("onboard2").
		Step("register", dgl.Op(dgl.OpRegister, map[string]string{
			"path": "/grid/nope", "resource": "disk1", "physicalID": "no/such",
		})).Flow()
	ex2, err := e.Run("user", bad)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Wait() == nil {
		t.Errorf("register of missing physical object succeeded")
	}
	if g.Namespace().Exists("/grid/nope") {
		t.Errorf("failed register left a logical entry")
	}
	// Missing params fail.
	for _, op := range []dgl.Operation{
		dgl.Op(dgl.OpRegister, map[string]string{"resource": "disk1", "physicalID": "x"}),
		dgl.Op(dgl.OpRegister, map[string]string{"path": "/grid/x", "physicalID": "x"}),
		dgl.Op(dgl.OpRegister, map[string]string{"path": "/grid/x", "resource": "disk1"}),
	} {
		ex, err := e.Run("user", dgl.NewFlow("f").Step("s", op).Flow())
		if err != nil {
			t.Fatal(err)
		}
		if ex.Wait() == nil {
			t.Errorf("register with missing params succeeded: %v", op.Params)
		}
	}
}
