// Package node boots one DfMS peer: the grid, the flow engine, the
// lifecycle store and everything matrixd layers over them, wired in one
// order and closed in its reverse (docs/ARCHITECTURE.md, "Booting a
// peer"). matrixd, the experiments, the examples and the fleet tests all
// boot through Start, so a flag combination the peer refuses is refused
// the same way everywhere.
package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgms"
	"datagridflow/internal/fault"
	"datagridflow/internal/federation"
	"datagridflow/internal/infra"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/tenant"
	"datagridflow/internal/trigger"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// Config is everything a peer is booted from: matrixd's flags (named
// beside each field) and the sub-configs that already exist. The zero
// value is a bare server with the demo topology on a loopback port.
type Config struct {
	Addr   string // -addr; default "127.0.0.1:0"
	Name   string // -name; also the execution-id prefix unless Matrix.IDPrefix is set
	Lookup string // -lookup; empty boots a bare server: no peer network, no federation
	Admin  string // -admin; default "admin"
	Open   bool   // -open: every user may write under /grid

	Infra       *infra.Description   // -infra; nil is the demo topology (local-disk, local-archive)
	Triggers    *trigger.Definitions // -triggers
	ProvPath    string               // -prov; empty keeps provenance in memory
	Fault       *fault.Plan          // -fault: armed on the grid and on the server
	MetricsAddr string               // -metrics-addr

	Matrix matrix.Config
	Server wire.ServerConfig // -max-inflight, -max-queue, -heartbeat

	StoreDir                     string        // -store-dir: recovered from before the node serves
	SnapshotEvery, PassivateIdle time.Duration // -snapshot-every, -passivate-idle; only with StoreDir

	Vdata    bool   // -vdata: a memory-only derivation catalog
	VdataDir string // -vdata-dir: a durable one; implies Vdata

	TenantAuth    *tenant.Authority // -tenant-auth
	Tenants       *tenant.Config    // -tenant-conf
	TenantRequire bool              // -tenant-require (or Tenants.Require); needs TenantAuth

	Shards      int                    // -shards; needs Lookup
	Replication wire.ReplicationConfig // -repl-followers (needs Lookup and StoreDir), -repl-ack, -repl-dir (default StoreDir+".replica")
	Federation  federation.Config      // -placement; every peer with a Lookup federates
}

// Node is one booted peer.
type Node struct {
	engine      *matrix.Engine
	server      *wire.Server
	peer        *wire.Peer // nil on a bare server
	fed         *federation.Federation
	addr        string
	metricsAddr string
	closers     []func() // release what Start opened, in the order it opened them
	log         []string
	once        sync.Once
}

// validate refuses a Config that cannot boot, naming every problem,
// before Start opens, recovers, listens or registers anything.
func (c *Config) validate() error {
	var errs []error
	bad := func(format string) { errs = append(errs, fmt.Errorf("%w: "+format, dgferr.ErrInvalid)) }
	if c.Lookup != "" && c.Name == "" {
		bad("-lookup requires -name")
	}
	if c.Shards > 0 && c.Lookup == "" {
		bad("-shards requires -lookup")
	}
	if r := c.Replication; r.Followers > 0 {
		if c.Lookup == "" {
			bad("-repl-followers requires -lookup")
		}
		if c.StoreDir == "" {
			bad("-repl-followers requires -store-dir")
		}
		if _, err := replica.ParseAckMode(string(r.Mode)); err != nil && r.Mode != "" {
			errs = append(errs, err)
		}
	}
	if c.requireTokens() && c.TenantAuth == nil {
		bad("-tenant-require needs -tenant-auth")
	}
	if c.Infra != nil {
		errs = append(errs, c.Infra.Validate())
	}
	if c.Fault != nil {
		errs = append(errs, c.Fault.Validate())
	}
	if c.Triggers != nil {
		// Checked against the operations of a scratch engine, in memory.
		g := dgms.New(dgms.Options{Obs: obs.NewRegistry()})
		m := trigger.NewManager(g, matrix.NewEngine(g), 1, 1)
		_, err := m.DefineAll(c.Triggers)
		m.Close()
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (c *Config) requireTokens() bool {
	return c.TenantRequire || (c.Tenants != nil && c.Tenants.Require)
}

// Start validates cfg, then boots the node in one order: provenance
// log, grid, engine, store (recovery, then its maintenance loop),
// derivation catalog, metrics, triggers, tenancy, then a bare server —
// or, with a Lookup, a peer with its sharding and replication,
// registered — and last the peer's federation. The node counts into an
// obs.Registry of its own. On an error, what was opened is closed.
func Start(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	n := &Node{}
	if err := n.boot(cfg); err != nil {
		n.Close()
		return nil, fmt.Errorf("node: %w", err)
	}
	return n, nil
}

func (n *Node) logf(format string, args ...any) { n.log = append(n.log, fmt.Sprintf(format, args...)) }

// opened registers a release for Close, to run after those registered
// later.
func (n *Node) opened(release func() error) { n.closers = append(n.closers, func() { _ = release() }) }

func (n *Node) boot(cfg Config) error {
	reg := obs.NewRegistry()
	var prov *provenance.Store
	if cfg.ProvPath != "" {
		var err error
		if prov, err = provenance.Open(cfg.ProvPath); err != nil {
			return err
		}
		n.opened(prov.Close)
	}
	grid := dgms.New(dgms.Options{Admin: cfg.Admin, Clock: sim.RealClock{}, Provenance: prov, Obs: reg})
	if err := n.buildGrid(grid, cfg); err != nil {
		return err
	}
	var injector *fault.Injector
	if cfg.Fault != nil {
		injector, _ = fault.NewInjector(grid.Clock(), *cfg.Fault) // validated
		grid.SetFault(injector)
		n.logf("fault plan armed (%d events, seed %d)", len(cfg.Fault.Events), cfg.Fault.Seed)
	}
	mcfg := cfg.Matrix
	if mcfg.IDPrefix == "" && cfg.Name != "" {
		mcfg.IDPrefix = cfg.Name + ":"
	}
	n.engine = matrix.NewEngineConfig(grid, mcfg)
	if cfg.StoreDir != "" {
		if err := n.openStore(cfg); err != nil {
			return err
		}
	}
	var vcat *vdata.Catalog
	if cfg.Vdata || cfg.VdataDir != "" {
		var err error
		if vcat, err = vdata.Open(cfg.VdataDir, reg); err != nil {
			return fmt.Errorf("vdata: %w", err)
		}
		n.opened(vcat.Close)
		if cfg.VdataDir != "" {
			n.logf("virtual-data catalog %s (%d derivation(s) replayed)", cfg.VdataDir, vcat.Len())
		} else {
			n.logf("virtual-data catalog enabled (memory-only)")
		}
	}
	if cfg.MetricsAddr != "" {
		msrv, maddr, err := obs.Serve(cfg.MetricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		n.opened(msrv.Close)
		n.metricsAddr = maddr
	}
	if cfg.Triggers != nil {
		triggers := trigger.NewManager(grid, n.engine, 4, 4096)
		n.closers = append(n.closers, triggers.Close)
		names, err := triggers.DefineAll(cfg.Triggers)
		if err != nil {
			return err
		}
		n.logf("installed %d trigger(s): %v", len(names), names)
	}
	var tenants *tenant.Registry
	if cfg.Tenants != nil {
		tenants = cfg.Tenants.Build(reg)
		n.logf("tenancy enabled (%d registered tenant(s))", tenants.Len())
	} else if cfg.TenantAuth != nil {
		// Auth without quotas: identities are verified and accounted, and
		// every tenant is unlimited.
		tenants = tenant.NewRegistry(tenant.Quota{}, reg)
	}

	if cfg.Lookup != "" {
		n.peer = wire.NewPeerConfig(cfg.Name, n.engine, cfg.Server)
		n.server = n.peer.Server()
	} else {
		n.server = wire.NewServerConfig(n.engine, cfg.Server)
	}
	if tenants != nil {
		n.server.SetTenancy(cfg.TenantAuth, tenants, cfg.requireTokens())
	}
	if injector != nil {
		target := cfg.Name
		if target == "" {
			target = "matrixd"
		}
		n.server.SetFault(injector, target)
	}
	if n.peer != nil {
		return n.startPeer(cfg, vcat)
	}
	if vcat != nil {
		// No fleet without a lookup: the catalog still memoizes local
		// pure steps and answers the wire vdata verb.
		n.engine.SetVdata(vcat)
	}
	var err error
	if n.addr, err = n.server.Listen(cfg.Addr); err == nil {
		n.closers = append(n.closers, n.server.Close)
	}
	return err
}

// buildGrid registers the described resources, or the demo topology,
// and the /grid collection.
func (n *Node) buildGrid(grid *dgms.Grid, cfg Config) error {
	if cfg.Infra != nil {
		if _, err := cfg.Infra.Apply(grid); err != nil {
			return err
		}
		n.logf("applied infrastructure %q (%d domains)", cfg.Infra.Name, len(cfg.Infra.Domains))
	} else {
		for _, r := range []*vfs.Resource{
			vfs.New("local-disk", "local", vfs.Disk, 0),
			vfs.New("local-archive", "local", vfs.Archive, 0),
		} {
			if err := grid.RegisterResource(r); err != nil {
				return err
			}
		}
		n.logf("using demo topology (local-disk, local-archive)")
	}
	if err := grid.CreateCollectionAll(grid.Admin(), "/grid"); err != nil || !cfg.Open {
		return err
	}
	// Demo convenience: a real deployment manages ACLs explicitly.
	return grid.Namespace().SetPermission("/grid", "*", namespace.PermWrite)
}

// openStore attaches the store, resumes what it holds and starts its
// maintenance loop.
func (n *Node) openStore(cfg Config) error {
	engine := n.engine
	st, err := store.Open(cfg.StoreDir, store.Options{Obs: engine.Obs()})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	n.opened(st.Close)
	engine.SetStore(st)
	resumed, err := engine.RecoverFromStore()
	if err != nil {
		// One flow per failure, each left in the store; the valid ones
		// are resumed and the node keeps booting.
		n.logf("store recovery left flows behind:\n%v", err)
	}
	stats := st.Stats()
	n.logf("store %s: %d segment(s), %d record(s) replayed, %d resumed, %d passivated",
		cfg.StoreDir, stats.Segments, stats.ReplayRecords, len(resumed), stats.Passivated)
	interval := cfg.SnapshotEvery
	if interval <= 0 {
		interval = cfg.PassivateIdle
	}
	if interval <= 0 {
		return nil
	}
	stop, done := make(chan struct{}), make(chan struct{})
	n.closers = append(n.closers, func() { close(stop); <-done }) // before the store closes
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if cfg.SnapshotEvery > 0 {
					engine.SnapshotAll()
				}
				if cfg.PassivateIdle > 0 {
					engine.PassivateIdle(cfg.PassivateIdle)
				}
			}
		}
	}()
	return nil
}

// startPeer gives the peer its catalog, sharding and replication,
// registers it and starts its federation.
func (n *Node) startPeer(cfg Config, vcat *vdata.Catalog) error {
	peer, engine := n.peer, n.engine
	if vcat != nil {
		peer.EnableVdata(vcat)
		n.logf("vdata fleet reuse enabled (announcing derivation keys to %s)", cfg.Lookup)
	}
	if cfg.Shards > 0 {
		peer.EnableSharding(shard.NewManager(shard.Config{
			Self:   cfg.Name,
			Shards: cfg.Shards,
			Obs:    engine.Obs(),
			Resident: func(execID string) bool {
				_, ok := engine.Execution(execID)
				return ok
			},
		}))
		n.logf("sharded ownership enabled (%d shards)", cfg.Shards)
	}
	if r := cfg.Replication; r.Followers > 0 {
		if r.Dir == "" {
			r.Dir = cfg.StoreDir + ".replica"
		}
		if err := peer.EnableReplication(r); err != nil {
			return err
		}
		n.logf("replication enabled (%d follower(s), %s ack) into %s", r.Followers, r.Mode, r.Dir)
	}
	var err error
	if n.addr, err = peer.Start(cfg.Addr, cfg.Lookup); err != nil {
		return err
	}
	fcfg := cfg.Federation
	if fcfg.Policy == nil {
		fcfg.Policy = scheduler.LeastLoaded{}
	}
	n.fed = federation.New(peer, fcfg)
	n.fed.Start()
	n.logf("peer %q registered with %s (placement %s)", cfg.Name, cfg.Lookup, fcfg.Policy.Name())
	return nil
}

// Addr returns the address the node serves DGL on.
func (n *Node) Addr() string { return n.addr }

// MetricsAddr returns the address the node serves metrics on, if any.
func (n *Node) MetricsAddr() string { return n.metricsAddr }

// Engine returns the node's engine: its Grid, Obs, Store and Vdata are
// the node's.
func (n *Node) Engine() *matrix.Engine { return n.engine }

// Peer returns the node's peer, nil on a bare server.
func (n *Node) Peer() *wire.Peer { return n.peer }

// Log returns what Start did, one line per step, for the caller to
// print.
func (n *Node) Log() []string { return n.log }

// Kill stops the node as a crash would, for failover harnesses: the
// federation stops, the server drops every connection and the registry
// link closes without unregistering. Files stay open until Close.
func (n *Node) Kill() {
	if n.fed != nil {
		n.fed.Close()
	}
	n.server.Close()
	if n.peer != nil {
		n.peer.Lookup().Close()
	}
}

// Close shuts the node down in the reverse of Start's order: the
// federation first (it drains in-flight delegations), then the peer,
// then what Start opened, newest first. Later calls do nothing.
func (n *Node) Close() {
	n.once.Do(func() {
		if n.fed != nil {
			n.fed.Close()
		}
		if n.peer != nil {
			n.peer.Close()
		}
		for i := len(n.closers) - 1; i >= 0; i-- {
			n.closers[i]()
		}
	})
}
