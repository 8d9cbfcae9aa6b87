package wire

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
)

// newVdataPeer stands up a peer whose engine has a memory-only
// derivation catalog attached, on its own metrics registry so counter
// assertions do not cross-talk. A non-nil auth makes it a
// -tenant-require peer of that authority.
func newVdataPeer(t testing.TB, name, lookupAddr string, auth *tenant.Authority) (*Peer, *matrix.Engine, *vdata.Catalog, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg})
	if err := g.RegisterResource(vfs.New("disk-"+name, "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":"})
	cat, err := vdata.Open("", reg)
	if err != nil {
		t.Fatal(err)
	}
	p := newPeer(name, e)
	if auth != nil {
		p.Server().SetTenancy(auth, tenant.NewRegistry(tenant.Quota{}, reg), true)
	}
	p.EnableVdata(cat)
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, e, cat, reg
}

func wirePureFlow() dgl.Flow {
	return dgl.NewFlow("derive").
		PureStep("fft", dgl.Op(dgl.OpExec, map[string]string{
			"command": "fft /grid/raw", "cpuSeconds": "5", "resultVar": "spectrum",
		}), "/grid/derived/spectrum.dat").
		Flow()
}

// TestVdataVerbRoundTrip covers the vdata verb end to end over
// a plain client: stats, tenant-scoped lookup, invalidate.
func TestVdataVerbRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEngine(t, "")
	cat, err := vdata.Open("", reg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetVdata(cat)
	_, addr := startServer(t, e)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.VdataStats()
	if err != nil || !info.Enabled || info.Entries != 0 {
		t.Fatalf("stats = %+v / %v", info, err)
	}
	ent := vdata.Entry{
		Key: vdata.Key("fft", []string{"/grid/derived/a"}, map[string]string{"n": "1"}, "user"),
		Op:  "fft", Outputs: []string{"/grid/derived/a"}, Result: "done", Tenant: "user",
	}
	if err := cat.Publish(ent); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.VdataLookup("user", ent.Key)
	if err != nil || !ok || got.Result != "done" || got.Tenant != "user" {
		t.Fatalf("lookup = %+v ok=%v err=%v", got, ok, err)
	}
	// The same key under another identity is invisible.
	if _, ok, err := c.VdataLookup("other", ent.Key); err != nil || ok {
		t.Fatalf("cross-tenant lookup = ok=%v err=%v", ok, err)
	}
	// Invalidation by output path drops the entry.
	n, err := c.VdataInvalidate("user", "/grid/derived/a")
	if err != nil || n != 1 {
		t.Fatalf("invalidate = %d / %v", n, err)
	}
	if _, ok, _ := c.VdataLookup("user", ent.Key); ok {
		t.Fatal("entry survived invalidation")
	}
}

// TestVdataUnknownSubMintsNoSeries: a sub-operation the server does not
// know is refused, and counted nowhere — the op label takes only the
// three values docs/METRICS.md lists, whatever a peer sends.
func TestVdataUnknownSubMintsNoSeries(t *testing.T) {
	e := newEngine(t, "")
	cat, err := vdata.Open("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	e.SetVdata(cat)
	_, addr := startServer(t, e)
	c := dial(t, addr)
	if _, err := c.VdataStats(); err != nil {
		t.Fatal(err)
	}
	series := func() (ops []string) {
		for _, p := range e.Obs().Snapshot().Counters {
			if p.Name == "wire_vdata_ops_total" {
				ops = append(ops, p.Labels["op"])
			}
		}
		return ops
	}
	before := series()
	for i := 0; i < 20; i++ {
		sub := "bogus-" + strings.Repeat("x", i)
		if _, err := c.vdataMsg(Control{Sub: sub}); !errors.Is(err, dgferr.ErrInvalid) {
			t.Fatalf("unknown sub %q: err %v, want ErrInvalid", sub, err)
		}
	}
	if got := series(); strings.Join(got, ",") != strings.Join(before, ",") {
		t.Fatalf("wire_vdata_ops_total series went from %v to %v: unknown sub-operations minted series", before, got)
	}
	if got := e.Obs().Counter("wire_vdata_ops_total", "op", "stats").Value(); got != 1 {
		t.Fatalf("stats counted %d times, want 1", got)
	}
}

// TestVdataVerbWithoutCatalog: a server with no catalog attached
// answers stats with Enabled false instead of erroring.
func TestVdataVerbWithoutCatalog(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	info, err := c.VdataStats()
	if err != nil || info.Enabled {
		t.Fatalf("stats without catalog = %+v / %v", info, err)
	}
}

// TestVdataVerbRequiresTenantMatch: on a require-auth server the vdata
// verb re-verifies the caller per operation, like submissions.
func TestVdataVerbRequiresTenantMatch(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEngine(t, "")
	cat, err := vdata.Open("", reg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetVdata(cat)
	s := NewServer(e)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetTenancy(auth, tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry()), true)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	ent := vdata.Entry{
		Key: vdata.Key("fft", []string{"/grid/derived/a"}, nil, "alice"),
		Op:  "fft", Outputs: []string{"/grid/derived/a"}, Result: "done", Tenant: "alice",
	}
	if err := cat.Publish(ent); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.VdataLookup("alice", ent.Key); err != nil || !ok || got.Tenant != "alice" {
		t.Fatalf("own lookup = %+v ok=%v err=%v", got, ok, err)
	}
	// A lookup claiming another tenant's identity is refused.
	if _, _, err := c.VdataLookup("bob", ent.Key); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatalf("imposter lookup = %v, want typed ErrAuth", err)
	}
	// A tokenless client is refused outright on a require-auth server.
	anon, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if _, err := anon.Hello(); err != nil {
		t.Fatal(err)
	}
	if _, err := anon.VdataStats(); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatalf("tokenless stats = %v, want typed ErrAuth", err)
	}
}

// TestVdataFleetRemoteReuse is the tentpole's cross-peer story: peerA
// computes a pure derivation, peerB's miss resolves the holder through
// the registry, fetches the entry over the wire, grafts it locally, and
// skips execution — counted in vdata_remote_hits_total.
func TestVdataFleetRemoteReuse(t *testing.T) {
	_, lookupAddr := startLookup(t)
	_, eA, _, _ := newVdataPeer(t, "peerA", lookupAddr, nil)
	_, eB, catB, regB := newVdataPeer(t, "peerB", lookupAddr, nil)

	ex, err := eA.Run("user", wirePureFlow())
	if err != nil || ex.Err() != nil {
		t.Fatalf("peerA run: %v / %v", err, ex.Err())
	}
	ex, err = eB.Run("user", wirePureFlow())
	if err != nil || ex.Err() != nil {
		t.Fatalf("peerB run: %v / %v", err, ex.Err())
	}
	if got := regB.Counter("vdata_remote_hits_total").Value(); got != 1 {
		t.Fatalf("vdata_remote_hits_total = %d, want 1", got)
	}
	// The graft keeps its origin and lands in peerB's own catalog, so the
	// next run hits locally without a network trip.
	keys := catB.Keys()
	if len(keys) != 1 {
		t.Fatalf("peerB catalog keys = %v", keys)
	}
	if ent, ok := catB.Lookup("user", keys[0]); !ok || ent.Peer != "peerA" {
		t.Fatalf("grafted entry = %+v ok=%v", ent, ok)
	}
	ex, err = eB.Run("user", wirePureFlow())
	if err != nil || ex.Err() != nil {
		t.Fatalf("peerB warm run: %v / %v", err, ex.Err())
	}
	if got := regB.Counter("vdata_remote_hits_total").Value(); got != 1 {
		t.Fatalf("warm run went remote: vdata_remote_hits_total = %d", got)
	}
	if got := regB.Counter("vdata_hits_total").Value(); got != 2 {
		t.Fatalf("vdata_hits_total = %d, want 2", got)
	}
}

// TestVdataRemoteReusePerTenant: on a -tenant-require fleet every
// tenant's flow reuses its own derivations across peers. The probe to
// the holder carries the executing flow's token, the one the holder
// re-verifies the tenant against — not one token configured per peer,
// which names one tenant and is refused for every other.
// TestVdataFleetRemoteReuse covers the untokened flow of an open fleet.
func TestVdataRemoteReusePerTenant(t *testing.T) {
	auth, err := tenant.NewAuthority([]byte("vdata-fleet-secret"))
	if err != nil {
		t.Fatal(err)
	}
	_, lookupAddr := startLookup(t)
	pA, _, _, _ := newVdataPeer(t, "peerA", lookupAddr, auth)
	pB, _, _, regB := newVdataPeer(t, "peerB", lookupAddr, auth)
	cA, cB := dial(t, pA.Addr()), dial(t, pB.Addr())
	for i, ten := range []string{"alice", "bob"} {
		tok := WithToken(mint(t, auth, ten))
		for _, c := range []*Client{cA, cB} {
			res, err := c.Submit(context.Background(), dgl.NewRequest(ten, "", wirePureFlow()), tok)
			if err != nil || res.Err() != nil {
				t.Fatalf("%s's run: %v / %v", ten, err, res.Err())
			}
		}
		if got := regB.Counter("vdata_remote_hits_total").Value(); got != int64(i+1) {
			t.Errorf("after %s's runs peerB counts %d remote hits, want %d", ten, got, i+1)
		}
	}
}

// TestVdataRemoteHolderLostEntry: a put is written without waiting for
// its sync (docs/VDATA.md), so a holder that crashed inside the linger
// can come back without an entry the registry still announces for it.
// The asking peer's probe then degrades to a miss and the step simply
// executes: a lost memo costs one recomputation, nothing else.
func TestVdataRemoteHolderLostEntry(t *testing.T) {
	_, lookupAddr := startLookup(t)
	_, eA, catA, regA := newVdataPeer(t, "peerA", lookupAddr, nil)
	_, eB, catB, regB := newVdataPeer(t, "peerB", lookupAddr, nil)

	ex, err := eA.Run("user", wirePureFlow())
	if err != nil || ex.Err() != nil {
		t.Fatalf("peerA run: %v / %v", err, ex.Err())
	}
	keys := catA.Keys()
	if len(keys) != 1 {
		t.Fatalf("peerA catalog keys = %v", keys)
	}
	// peerA forgets the derivation; the registry goes on naming it holder.
	if n, err := catA.Invalidate("user", keys[0]); err != nil || n != 1 {
		t.Fatalf("dropping peerA's entry: %d, %v", n, err)
	}
	ex, err = eB.Run("user", wirePureFlow())
	if err != nil || ex.Err() != nil {
		t.Fatalf("peerB run: %v / %v", err, ex.Err())
	}
	if got := regA.Counter("wire_vdata_ops_total", "op", "lookup").Value(); got != 1 {
		t.Fatalf("peerA served %d vdata lookups; the registry should have sent peerB's probe to it", got)
	}
	if hits, misses := regB.Counter("vdata_remote_hits_total").Value(), regB.Counter("vdata_misses_total").Value(); hits != 0 || misses != 1 {
		t.Fatalf("peerB: %d remote hits, %d misses; want the probe to miss and the step to run", hits, misses)
	}
	if ent, ok := catB.Lookup("user", keys[0]); !ok || ent.Peer != "peerB" {
		t.Fatalf("peerB did not derive and publish for itself: %+v ok=%v", ent, ok)
	}
}

// TestLookupVdataRegistry covers the registry half: vput/vget routing,
// and rows dying with their peer (eviction and unregister).
func TestLookupVdataRegistry(t *testing.T) {
	ls, addr := startLookup(t)
	base := time.Now()
	now := base
	var mu sync.Mutex
	ls.setNow(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	ls.SetTTL(30 * time.Second)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("peerA", "127.0.0.1:1111"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnnounceVdata("peerA", []string{"k1", "k2"}); err != nil {
		t.Fatal(err)
	}
	name, holderAddr, err := c.ResolveVdata("k1")
	if err != nil || name != "peerA" || holderAddr != "127.0.0.1:1111" {
		t.Fatalf("vget = %q %q %v", name, holderAddr, err)
	}
	// A miss is an answer, not an error.
	if name, _, err := c.ResolveVdata("nope"); err != nil || name != "" {
		t.Fatalf("unknown key resolved: %q, %v", name, err)
	}
	// Unregister drops the peer's announcements with it.
	if err := c.Unregister("peerA"); err != nil {
		t.Fatal(err)
	}
	if name, _, err := c.ResolveVdata("k1"); err != nil || name != "" {
		t.Fatalf("key survived unregister: %q, %v", name, err)
	}
	// Eviction does too: register, announce, let the TTL lapse.
	if err := c.Register("peerB", "127.0.0.1:2222"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnnounceVdata("peerB", []string{"k3"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(31 * time.Second)
	mu.Unlock()
	if name, _, err := c.ResolveVdata("k3"); err != nil || name != "" {
		t.Fatalf("key survived holder eviction: %q, %v", name, err)
	}
}

// TestLookupVdataAuthGating: on a token-gated registry vput is a
// mutating op (refused tokenless, and under a token minted for another
// name), vget stays open like resolve.
func TestLookupVdataAuthGating(t *testing.T) {
	auth, err := tenant.NewAuthority([]byte("lookup-secret"))
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLookupServer()
	ls.SetAuth(auth)
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AnnounceVdata("peerA", []string{"k1"}); err == nil ||
		!strings.Contains(err.Error(), "token") {
		t.Fatalf("tokenless vput = %v, want token refusal", err)
	}
	c.SetToken(mint(t, auth, "ops"))
	if err := c.AnnounceVdata("peerA", []string{"k1"}); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatalf("vput for peerA under ops's token = %v, want typed ErrAuth", err)
	}
	c.SetToken(mint(t, auth, "peerA"))
	if err := c.Register("peerA", "127.0.0.1:1111"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnnounceVdata("peerA", []string{"k1"}); err != nil {
		t.Fatal(err)
	}
	// Reads stay open, even from a tokenless connection.
	open, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if name, _, err := open.ResolveVdata("k1"); err != nil || name != "peerA" {
		t.Fatalf("open vget = %q / %v", name, err)
	}
}
