package node

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/fault"
	"datagridflow/internal/infra"
	"datagridflow/internal/obs"
	"datagridflow/internal/replica"
	"datagridflow/internal/tenant"
	"datagridflow/internal/trigger"
	"datagridflow/internal/wire"
)

// lookup starts a lookup server counting into a registry of its own.
func lookup(t *testing.T, shards int) (string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	ls := wire.NewLookupServer()
	ls.SetObs(reg)
	ls.SetShards(shards)
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return addr, reg
}

func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func smokeFlow(name string) dgl.Flow {
	return dgl.NewFlow(name).
		Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/" + name})).
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/" + name + "/a.dat", "size": "64", "resource": "local-disk",
		})).Flow()
}

// submit runs one flow on n over the wire and fails the test unless it
// succeeds.
func submit(t *testing.T, n *Node, user, name string, setup func(*wire.Client)) {
	t.Helper()
	c, err := wire.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if setup != nil {
		setup(c)
	}
	res, err := c.Submit(context.Background(), dgl.NewRequest(user, "", smokeFlow(name)))
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatalf("submit %s: %v", name, err)
	}
}

// TestConfigRefused: a Config that cannot boot is refused whole, each
// problem named; matrixd's refused flag combinations are among them.
func TestConfigRefused(t *testing.T) {
	triggers, err := trigger.ParseDefinitions([]byte(`<datagridTriggers>
  <trigger name="t" owner="admin"><event>ingest</event>
    <operation type="noSuchOp"/></trigger></datagridTriggers>`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want []string // each must appear in the error
	}{
		{"repl-ack chain without a lookup", Config{
			StoreDir:    "s",
			Replication: wire.ReplicationConfig{Followers: 1, Mode: "chain"},
		}, []string{"-repl-followers requires -lookup", `"chain"`}},
		{"followers without a store", Config{
			Name: "a", Lookup: "127.0.0.1:1",
			Replication: wire.ReplicationConfig{Followers: 1, Mode: replica.ModeQuorum},
		}, []string{"-repl-followers requires -store-dir"}},
		{"tenant-require without tenant-auth", Config{StoreDir: "s", TenantRequire: true},
			[]string{"-tenant-require needs -tenant-auth"}},
		{"a tenant config that requires tokens, without tenant-auth", Config{Tenants: &tenant.Config{Require: true}},
			[]string{"-tenant-require needs -tenant-auth"}},
		{"lookup without a name", Config{Lookup: "127.0.0.1:1"}, []string{"-lookup requires -name"}},
		{"shards without a lookup", Config{Shards: 4}, []string{"-shards requires -lookup"}},
		{"an invalid infrastructure", Config{Infra: &infra.Description{Domains: []infra.Domain{{
			Name: "d", Storage: []infra.Storage{{Name: "r", Class: "floppy"}},
		}}}}, []string{"floppy"}},
		{"a fault event without a target", Config{Fault: &fault.Plan{Events: []fault.Event{{Kind: fault.PeerCrash}}}},
			[]string{"no target"}},
		{"a trigger on an unknown operation", Config{Triggers: triggers}, []string{`unknown operation "noSuchOp"`}},
		{"every problem at once", Config{Lookup: "x", StoreDir: "s", TenantRequire: true,
			Replication: wire.ReplicationConfig{Followers: 1, Mode: "chain"}},
			[]string{"-lookup requires -name", `"chain"`, "-tenant-require needs -tenant-auth"}},
	}
	for _, c := range cases {
		err := c.cfg.validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", c.name, err, w)
			}
		}
	}
	for _, ok := range []Config{
		{},
		{Name: "a", Lookup: "x", Shards: 8, StoreDir: "s", Replication: wire.ReplicationConfig{Followers: 1}},
		{TenantAuth: mustAuthority(t), TenantRequire: true},
	} {
		if err := ok.validate(); err != nil {
			t.Errorf("refused %+v: %v", ok, err)
		}
	}
}

func mustAuthority(t *testing.T) *tenant.Authority {
	t.Helper()
	a, err := tenant.NewAuthority([]byte("node-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRefusedBeforeAnySideEffect: Start refuses a bad Config before it
// registers with the lookup server or creates the store, the
// provenance log or the catalog.
func TestRefusedBeforeAnySideEffect(t *testing.T) {
	addr, reg := lookup(t, 0)
	dir := t.TempDir()
	_, err := Start(Config{
		Name: "a", Lookup: addr,
		StoreDir:      filepath.Join(dir, "store"),
		ProvPath:      filepath.Join(dir, "prov.log"),
		VdataDir:      filepath.Join(dir, "vdata"),
		TenantRequire: true,
	})
	if !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("Start = %v, want an invalid-config error", err)
	}
	if n := reg.Counter("lookup_requests_total", "op", "register").Value(); n != 0 {
		t.Errorf("a refused node registered %d time(s)", n)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a refused node left %v (%v) behind", entries, err)
	}
}

// TestNodesCountIntoTheirOwnRegistries: two nodes in one process; a
// submit on A moves none of B's counters, and neither touches
// obs.Default().
func TestNodesCountIntoTheirOwnRegistries(t *testing.T) {
	counters := func(reg *obs.Registry) []obs.Point { return reg.Snapshot().Counters }
	defaultBefore := counters(obs.Default())
	a := start(t, Config{Open: true})
	b := start(t, Config{Open: true})
	bBefore := counters(b.Engine().Obs())
	submit(t, a, "alice", "onA", nil)
	if got := a.Engine().Obs().Counter("matrix_flows_succeeded_total").Value(); got != 1 {
		t.Errorf("A counted no submit: %+v", counters(a.Engine().Obs()))
	}
	if after := counters(b.Engine().Obs()); !reflect.DeepEqual(after, bBefore) {
		t.Errorf("a submit on A moved B's counters:\nbefore %+v\nafter  %+v", bBefore, after)
	}
	if after := counters(obs.Default()); !reflect.DeepEqual(after, defaultBefore) {
		t.Errorf("the nodes counted into obs.Default():\nbefore %+v\nafter  %+v", defaultBefore, after)
	}
}

// TestFaultArmsThePeerServer: a peer-crash event against a peer's own
// name severs its clients, -lookup or not.
func TestFaultArmsThePeerServer(t *testing.T) {
	addr, _ := lookup(t, 0)
	crash := &fault.Plan{Events: []fault.Event{{Target: "a", Kind: fault.PeerCrash}}}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"peer", Config{Name: "a", Lookup: addr, Fault: crash}},
		{"bare server", Config{Name: "a", Fault: crash}},
	} {
		n := start(t, c.cfg)
		if cl, err := wire.Dial(n.Addr()); err == nil {
			cl.Close()
			t.Errorf("%s: a client connected inside the peer-crash window", c.name)
		}
	}
	// Control: the same peer without the plan serves.
	n := start(t, Config{Name: "b", Lookup: addr})
	cl, err := wire.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
}

// TestFullPeer boots a peer with every part on — described grid,
// triggers, provenance log, store with its maintenance loop, durable
// catalog, metrics, tenancy, sharding and replication — runs a flow on
// it, and boots it again over the same directories.
func TestFullPeer(t *testing.T) {
	addr, _ := lookup(t, 8)
	dir := t.TempDir()
	desc, err := infra.Parse([]byte(`<infrastructure name="t">
  <domain name="local"><storageResource name="local-disk" class="disk"/></domain>
</infrastructure>`))
	if err != nil {
		t.Fatal(err)
	}
	triggers, err := trigger.ParseDefinitions([]byte(`<datagridTriggers>
  <trigger name="tag" owner="admin" phase="after"><event>ingest</event>
    <operation type="setMeta"><param name="path">$path</param>
      <param name="attr">kind</param><param name="value">dataset</param></operation>
  </trigger></datagridTriggers>`))
	if err != nil {
		t.Fatal(err)
	}
	auth := mustAuthority(t)
	cfg := Config{
		Name: "full", Lookup: addr, Open: true,
		Infra: desc, Triggers: triggers,
		ProvPath:    filepath.Join(dir, "prov.log"),
		MetricsAddr: "127.0.0.1:0",
		StoreDir:    filepath.Join(dir, "store"), SnapshotEvery: 10 * time.Millisecond, PassivateIdle: time.Hour,
		VdataDir:   filepath.Join(dir, "vdata"),
		TenantAuth: auth, Tenants: &tenant.Config{Tenants: map[string]tenant.Quota{"alice": {Weight: 2}}},
		Shards:      8,
		Replication: wire.ReplicationConfig{Followers: 1, Mode: replica.ModeQuorum},
	}
	for boot := 1; boot <= 2; boot++ {
		n, err := Start(cfg)
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		tok, err := auth.Mint("alice", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		submit(t, n, "alice", "full", func(c *wire.Client) { c.SetToken(tok) })
		// An after-trigger runs on the manager's workers, after the step.
		ns := n.Engine().Grid().Namespace()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, _, _ := ns.GetMeta("/grid/full/a.dat", "kind"); v == "dataset" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("boot %d: the trigger never tagged the ingest", boot)
			}
		}
		if n.MetricsAddr() == "" || n.Peer() == nil || n.Engine().Store() == nil || n.Engine().Vdata() == nil {
			t.Errorf("boot %d: a part is missing", boot)
		}
		log := strings.Join(n.Log(), "\n")
		for _, want := range []string{"applied infrastructure", "installed 1 trigger", "store ", "virtual-data catalog",
			"tenancy enabled (1 registered", "sharded ownership enabled (8 shards)", "replication enabled (1 follower(s), quorum ack) into " + cfg.StoreDir + ".replica",
			`peer "full" registered`} {
			if !strings.Contains(log, want) {
				t.Errorf("boot %d: the log does not say %q:\n%s", boot, want, log)
			}
		}
		n.Kill()
		n.Close()
		n.Close() // a second Close does nothing
	}
}
