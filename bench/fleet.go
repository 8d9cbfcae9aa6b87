package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/federation"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/replica"
	"datagridflow/internal/shard"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

const (
	fleetShards   = 64
	fleetTenants  = 16
	fleetInflight = 64 // matrixd's -max-inflight default
	// resourceName is the one storage resource every peer's grid has.
	// It is memory-class: the grid runs on the wall clock like matrixd,
	// so a modelled device latency is really slept, and a 5 ms disk
	// would bury every layer this benchmark is here to see.
	resourceName = "mem"
)

// fleetSpec selects which of matrixd's production features a fleet
// runs with. The ablation ladder walks it one field at a time; the two
// wire workloads use the last rung.
type fleetSpec struct {
	Wire      bool // serve over loopback TCP; false: callers call Engine.Submit
	Tenancy   bool // HMAC tokens verified, quotas and weights registered
	Require   bool // matrixd -tenant-require: untokened requests are refused
	Peers     int  // > 1: LookupServer, shard ring and the kind-5 route hop
	Store     bool // binary flow-state store per peer, fsync on (group commit)
	Replicate bool // quorum replication to one follower
	Vdata     bool // durable virtual-data catalog
	XML       bool // client sessions call DisableBinary
}

// fullFleet is matrixd with every production flag on at once.
var fullFleet = fleetSpec{Wire: true, Tenancy: true, Require: true, Peers: 4, Store: true, Replicate: true, Vdata: true}

// node is one DfMS process of the fleet, in-process.
type node struct {
	name   string
	reg    *obs.Registry
	grid   *dgms.Grid
	engine *matrix.Engine
	store  *store.Store
	vcat   *vdata.Catalog
	peer   *wire.Peer   // set when the fleet has a lookup server
	srv    *wire.Server // set for a bare single server
	fed    *federation.Federation
	addr   string
	dir    string
}

// fleet is the system under test plus the client connections into it.
type fleet struct {
	spec      fleetSpec
	dir       string
	lookup    *wire.LookupServer
	lookupReg *obs.Registry
	nodes     []*node
	tenants   []string
	tokens    []string // tokens[i] authenticates tenants[i]; "" without tenancy
	conns     []*wire.Client
	closed    bool
}

func tenantName(i int) string { return fmt.Sprintf("tenant%02d", i) }

// newGrid builds one peer's grid: a fresh metrics registry, the shared
// resource, and /grid open for writing like matrixd's -open default.
// prov nil means matrixd's default, an in-memory provenance store.
func newGrid(clock sim.Clock, class vfs.Class, prov *provenance.Store) (*dgms.Grid, *obs.Registry, error) {
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Clock: clock, Obs: reg, Provenance: prov})
	if err := g.RegisterResource(vfs.New(resourceName, "local", class, 0)); err != nil {
		return nil, nil, err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		return nil, nil, err
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		return nil, nil, err
	}
	return g, reg, nil
}

// startFleet stands the fleet up under dir on ephemeral loopback ports
// and dials conns client connections, connection i to peer i.
func startFleet(spec fleetSpec, dir string, conns int) (f *fleet, err error) {
	f = &fleet{spec: spec, dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	for i := 0; i < fleetTenants; i++ {
		f.tenants = append(f.tenants, tenantName(i))
	}
	f.tokens = make([]string, fleetTenants)
	var auth *tenant.Authority
	if spec.Tenancy {
		if auth, err = tenant.NewAuthority([]byte("bench-fleet-shared-secret")); err != nil {
			return f, err
		}
		for i, t := range f.tenants {
			if f.tokens[i], err = auth.Mint(t, time.Hour); err != nil {
				return f, err
			}
		}
	}
	var lookupAddr string
	if spec.Peers > 1 {
		f.lookup = wire.NewLookupServer()
		f.lookupReg = obs.NewRegistry()
		f.lookup.SetObs(f.lookupReg)
		f.lookup.SetShards(fleetShards)
		if lookupAddr, err = f.lookup.Listen("127.0.0.1:0"); err != nil {
			return f, err
		}
	}
	for i := 0; i < spec.Peers; i++ {
		n, nerr := f.startNode(fmt.Sprintf("peer%c", 'A'+i), auth, lookupAddr)
		if n != nil {
			f.nodes = append(f.nodes, n)
		}
		if nerr != nil {
			return f, nerr
		}
	}
	if f.lookup != nil {
		// Peers joined one at a time, each claiming what the ring gave it
		// at that moment. Two rebalance rounds over the full roster settle
		// ownership and follower placement before any request is routed;
		// after that the federation heartbeat (matrixd's default 5 s) keeps
		// leases alive exactly as in production.
		names := make([]string, len(f.nodes))
		for i, n := range f.nodes {
			names[i] = n.name
		}
		for round := 0; round < 2; round++ {
			for _, n := range f.nodes {
				n.peer.RebalanceShards(names)
			}
		}
		for _, n := range f.nodes {
			n.fed = federation.New(n.peer, federation.Config{})
			n.fed.Start()
		}
	}
	if spec.Wire {
		for i := 0; i < conns; i++ {
			c, cerr := wire.Dial(f.nodes[i%len(f.nodes)].addr)
			if cerr != nil {
				return f, cerr
			}
			f.conns = append(f.conns, c)
			if spec.XML {
				c.DisableBinary()
			}
			if _, cerr = c.Hello(); cerr != nil {
				return f, cerr
			}
		}
	}
	return f, nil
}

func (f *fleet) startNode(name string, auth *tenant.Authority, lookupAddr string) (*node, error) {
	n := &node{name: name, dir: filepath.Join(f.dir, name)}
	var err error
	if n.grid, n.reg, err = newGrid(sim.RealClock{}, vfs.Memory, nil); err != nil {
		return nil, err
	}
	n.engine = matrix.NewEngineConfig(n.grid, matrix.Config{IDPrefix: name + ":"})
	if f.spec.Store {
		if n.store, err = store.Open(filepath.Join(n.dir, "store"), store.Options{Obs: n.reg, Binary: true}); err != nil {
			return n, err
		}
		n.engine.SetStore(n.store)
	}
	if f.spec.Vdata {
		if n.vcat, err = vdata.Open(filepath.Join(n.dir, "vdata"), n.reg); err != nil {
			return n, err
		}
	}
	cfg := wire.ServerConfig{MaxInflight: fleetInflight}
	tenancy := func(s *wire.Server) {
		if auth == nil {
			return
		}
		treg := tenant.NewRegistry(tenant.Quota{}, n.reg)
		for _, t := range f.tenants {
			// Real limits, so the bucket and the in-flight bound are
			// charged on every submit, set far above anything 8 callers
			// can reach: the quota path runs, no request is refused.
			treg.Register(t, tenant.Quota{Weight: 1, MaxFlows: 1 << 20, SubmitRate: 1e6})
		}
		s.SetTenancy(auth, treg, f.spec.Require)
	}
	if !f.spec.Wire {
		if n.vcat != nil {
			n.engine.SetVdata(n.vcat)
		}
		return n, nil
	}
	if lookupAddr == "" {
		n.srv = wire.NewServerConfig(n.engine, cfg)
		tenancy(n.srv)
		if n.vcat != nil {
			n.engine.SetVdata(n.vcat)
		}
		n.addr, err = n.srv.Listen("127.0.0.1:0")
		return n, err
	}
	n.peer = wire.NewPeerConfig(name, n.engine, cfg)
	tenancy(n.peer.Server())
	if n.vcat != nil {
		n.peer.EnableVdata(n.vcat)
	}
	n.peer.EnableSharding(shard.NewManager(shard.Config{
		Self: name, Shards: fleetShards, Obs: n.reg,
		Resident: func(id string) bool { _, ok := n.engine.Execution(id); return ok },
	}))
	if f.spec.Replicate {
		if err = n.peer.EnableReplication(wire.ReplicationConfig{
			Followers: 1, Mode: replica.ModeQuorum, Binary: true,
			Dir: filepath.Join(n.dir, "replica"),
		}); err != nil {
			return n, err
		}
	}
	n.addr, err = n.peer.Start("127.0.0.1:0", lookupAddr)
	return n, err
}

// submit sends req as tenant t on the caller's connection (callers
// share connections round-robin), or straight into the first engine
// when the fleet has no wire.
func (f *fleet) submit(caller, t int, req *dgl.Request, opts ...wire.SubmitOption) (*dgl.Response, error) {
	if !f.spec.Wire {
		return f.nodes[0].engine.Submit(req)
	}
	if tok := f.tokens[t]; tok != "" {
		opts = append(opts, wire.WithToken(tok))
	}
	res, err := f.conns[caller%len(f.conns)].Submit(context.Background(), req, opts...)
	if err != nil {
		return nil, err
	}
	return res.Response, nil
}

// prune drops all but the keep most recent terminal executions on
// every peer — the periodic maintenance a long-running matrixd needs
// so completed flows do not accumulate in memory.
func (f *fleet) prune(keep int) {
	for _, n := range f.nodes {
		n.engine.Prune(keep)
	}
}

// counters sums every peer's counters (and the lookup server's) by
// name and label set, so a window's deltas can be taken fleet-wide.
func (f *fleet) counters() map[string]float64 {
	out := map[string]float64{}
	for _, n := range f.nodes {
		addCounters(out, n.reg)
	}
	if f.lookupReg != nil {
		addCounters(out, f.lookupReg)
	}
	return out
}

// addCounters adds reg's counters to out: each series under
// name{label=value}, and every labelled series also into its name's
// label-free total.
func addCounters(out map[string]float64, reg *obs.Registry) {
	for _, p := range reg.Snapshot().Counters {
		out[counterKey(p.Name, p.Labels)] += float64(p.Value)
		if len(p.Labels) > 0 {
			out[p.Name] += float64(p.Value)
		}
	}
}

// counterKey renders name{k=v} for a single-label counter, the only
// labelled shape the boundary counts read.
func counterKey(name string, labels map[string]string) string {
	for k, v := range labels {
		if len(labels) == 1 {
			return name + "{" + k + "=" + v + "}"
		}
	}
	return name
}

// close shuts the fleet down cleanly: clients, federation loops, peers
// (which drain shards and stop replication), catalogs, stores, lookup.
// The directory is left for the caller, whose checks may reopen it.
func (f *fleet) close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, c := range f.conns {
		c.Close()
	}
	for _, n := range f.nodes {
		if n.fed != nil {
			n.fed.Close()
		}
	}
	for _, n := range f.nodes {
		if n.peer != nil {
			n.peer.Close()
		}
		if n.srv != nil {
			n.srv.Close()
		}
	}
	for _, n := range f.nodes {
		if n.vcat != nil {
			n.vcat.Close()
		}
		if n.store != nil {
			n.store.Close()
		}
	}
	if f.lookup != nil {
		f.lookup.Close()
	}
}

// mkRunDir creates a fresh directory for one set-up under root.
func mkRunDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
