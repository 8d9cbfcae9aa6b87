package matrix

import (
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
)

// newVdataEngine builds an engine with its own metrics registry and a
// memory-only virtual-data catalog attached.
func newVdataEngine(t testing.TB) (*Engine, *vdata.Catalog, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg})
	if err := g.RegisterResource(vfs.New("disk1", "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	cat, err := vdata.Open("", reg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	e.SetVdata(cat)
	return e, cat, reg
}

func pureExecFlow(cpu string) dgl.Flow {
	return dgl.NewFlow("derive").
		PureStep("fft", dgl.Op(dgl.OpExec, map[string]string{
			"command": "fft /grid/raw", "cpuSeconds": cpu, "resultVar": "spectrum",
		}), "/grid/derived/spectrum.dat").
		Flow()
}

func TestVdataMemoizesPureStep(t *testing.T) {
	e, cat, reg := newVdataEngine(t)

	ex1, err := e.Run("user", pureExecFlow("10"))
	if err != nil || ex1.Err() != nil {
		t.Fatalf("first run: %v / %v", err, ex1.Err())
	}
	if got := reg.Counter("vdata_misses_total").Value(); got != 1 {
		t.Fatalf("misses after cold run = %d", got)
	}
	if cat.Len() != 1 {
		t.Fatalf("catalog entries = %d, want 1", cat.Len())
	}
	coldEnd := e.Clock().Now()

	ex2, err := e.Run("user", pureExecFlow("10"))
	if err != nil || ex2.Err() != nil {
		t.Fatalf("second run: %v / %v", err, ex2.Err())
	}
	if got := reg.Counter("vdata_hits_total").Value(); got != 1 {
		t.Fatalf("hits after warm run = %d", got)
	}
	if got := reg.Counter("scheduler_virtual_data_hits_total").Value(); got != 1 {
		t.Fatalf("scheduler_virtual_data_hits_total = %d", got)
	}
	// The memoized run must not charge the 10 virtual cpu-seconds again.
	if warm := e.Clock().Now().Sub(coldEnd); warm.Seconds() >= 10 {
		t.Fatalf("warm run consumed %v of virtual time", warm)
	}
	st := ex2.Status(true)
	if st.Children[0].State != string(StateSkipped) {
		t.Fatalf("warm step state = %s, want skipped", st.Children[0].State)
	}
	// The grafted result variable is visible in the flow scope.
	if got := ex2.Vars()["spectrum"]; got != "done:fft /grid/raw" {
		t.Fatalf("grafted result = %q", got)
	}
	// A vdata.hit provenance record marks the graft.
	if n := e.Grid().Provenance().Count(provenance.Filter{Action: "vdata.hit"}); n != 1 {
		t.Fatalf("vdata.hit provenance records = %d", n)
	}
}

func TestVdataTenantScoped(t *testing.T) {
	e, _, reg := newVdataEngine(t)
	if err := e.Grid().Namespace().SetPermission("/grid", "other", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	ex1, err := e.Run("user", pureExecFlow("1"))
	if err != nil || ex1.Err() != nil {
		t.Fatalf("first run: %v / %v", err, ex1.Err())
	}
	// The same derivation under another tenant must not hit.
	ex2, err := e.Run("other", pureExecFlow("1"))
	if err != nil || ex2.Err() != nil {
		t.Fatalf("cross-tenant run: %v / %v", err, ex2.Err())
	}
	if got := reg.Counter("vdata_hits_total").Value(); got != 0 {
		t.Fatalf("cross-tenant hits = %d, want 0", got)
	}
	if got := reg.Counter("vdata_misses_total").Value(); got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
}

func TestVdataRemoteHookGrafts(t *testing.T) {
	e, cat, reg := newVdataEngine(t)
	flow := pureExecFlow("5")
	// Precompute the key the engine will derive, by publishing through a
	// sibling engine and stealing its entry.
	sib, sibCat, _ := newVdataEngine(t)
	ex, err := sib.Run("user", flow)
	if err != nil || ex.Err() != nil {
		t.Fatalf("sibling run: %v / %v", err, ex.Err())
	}
	keys := sibCat.Keys()
	if len(keys) != 1 {
		t.Fatalf("sibling catalog keys = %v", keys)
	}
	ent, ok := sibCat.Lookup("user", keys[0])
	if !ok {
		t.Fatal("sibling entry missing")
	}
	ent.Peer = "peerB"

	var asked []string
	e.SetVdataRemote(func(tenantID, token, key string) (vdata.Entry, bool) {
		asked = append(asked, tenantID+"/"+key)
		if key == ent.Key && tenantID == ent.Tenant {
			return ent, true
		}
		return vdata.Entry{}, false
	})
	ex2, err := e.Run("user", flow)
	if err != nil || ex2.Err() != nil {
		t.Fatalf("remote-hit run: %v / %v", err, ex2.Err())
	}
	if len(asked) != 1 {
		t.Fatalf("remote hook asked %v", asked)
	}
	if got := reg.Counter("vdata_remote_hits_total").Value(); got != 1 {
		t.Fatalf("vdata_remote_hits_total = %d", got)
	}
	if got := reg.Counter("vdata_hits_total").Value(); got != 1 {
		t.Fatalf("vdata_hits_total = %d", got)
	}
	// The remote entry was grafted locally, keeping its origin peer.
	local, ok := cat.Lookup("user", ent.Key)
	if !ok || local.Peer != "peerB" {
		t.Fatalf("grafted entry = %+v ok=%v", local, ok)
	}
}

func TestVdataInvalidateForcesRecompute(t *testing.T) {
	e, cat, reg := newVdataEngine(t)
	for i := 0; i < 2; i++ {
		ex, err := e.Run("user", pureExecFlow("2"))
		if err != nil || ex.Err() != nil {
			t.Fatalf("run %d: %v / %v", i, err, ex.Err())
		}
	}
	if got := reg.Counter("vdata_hits_total").Value(); got != 1 {
		t.Fatalf("hits before invalidation = %d", got)
	}
	n, err := cat.Invalidate("user", "/grid/derived/spectrum.dat")
	if err != nil || n != 1 {
		t.Fatalf("invalidate = %d, %v", n, err)
	}
	ex, err := e.Run("user", pureExecFlow("2"))
	if err != nil || ex.Err() != nil {
		t.Fatalf("post-invalidation run: %v / %v", err, ex.Err())
	}
	if got := reg.Counter("vdata_misses_total").Value(); got != 2 {
		t.Fatalf("misses after invalidation = %d, want 2", got)
	}
}

// A pure step without a catalog attached executes normally — the
// default engine is unchanged.
func TestVdataDetachedEngineRunsPureSteps(t *testing.T) {
	e := newTestEngine(t)
	ex, err := e.Run("user", pureExecFlow("1"))
	if err != nil || ex.Err() != nil {
		t.Fatalf("run: %v / %v", err, ex.Err())
	}
	st := ex.Status(true)
	if st.Children[0].State != string(StateSucceeded) {
		t.Fatalf("step state = %s", st.Children[0].State)
	}
}
