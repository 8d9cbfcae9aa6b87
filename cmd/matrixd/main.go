// Command matrixd runs a networked DfMS (matrix) server: it builds a
// grid from an Infrastructure Description Language document (or a
// built-in demo topology), wraps it in a flow engine, and serves DGL
// requests over TCP. With -lookup it joins a peer-to-peer datagridflow
// network.
//
// Usage:
//
//	matrixd -addr :7401                          # demo grid
//	matrixd -addr :7401 -infra grid.xml          # described grid
//	matrixd -name matrixA -lookup host:7400      # join a peer network
//	matrixd -placement locality -heartbeat 2s    # federation tuning
//	matrixd -shards 64 -lookup host:7400         # sharded flow ownership
//	matrixd -repl-followers 2 -repl-ack quorum   # replicated lifecycle store
//	matrixd -repl-dir /var/lib/matrix-replica    # replica root override
//	matrixd -prov /var/log/matrix-prov.log       # durable provenance
//	matrixd -metrics-addr :7481                  # JSON metrics + pprof
//	matrixd -store-dir /var/lib/matrix-store     # crash recovery, durable flow state
//	matrixd -snapshot-every 30s -passivate-idle 5m # store maintenance
//	matrixd -fault plan.json                     # fault injection
//	matrixd -max-inflight 128 -max-queue 512     # admission tuning
//	matrixd -tenant-auth secret.key              # verify tenant tokens
//	matrixd -tenant-conf tenants.json            # per-tenant quotas and weights
//	matrixd -tenant-require                      # reject untokened submissions
//	matrixd -vdata                               # memoize pure steps
//	matrixd -vdata-dir /var/lib/matrix-vdata     # durable derivation catalog
//
// With -tenant-auth and -lookup the peer presents the registry a
// credential it mints for its own -name (a lookupd started with the same
// -tenant-auth requires one), and a flow's cross-peer derivation lookups
// carry the flow's own token (docs/TENANCY.md, docs/VDATA.md).
//
// With -metrics-addr the server exposes the observability surface
// documented in docs/METRICS.md: /metrics (JSON snapshot), /trace
// (recent trace events) and /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

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

func main() {
	addr := flag.String("addr", "127.0.0.1:7401", "listen address")
	name := flag.String("name", "", "peer name (required with -lookup)")
	lookup := flag.String("lookup", "", "lookup server address to register with")
	placement := flag.String("placement", "least-loaded", "federation placement policy: least-loaded, round-robin, locality or vdata-locality (docs/FEDERATION.md, docs/VDATA.md)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "federation heartbeat interval (lookup lease renewal and load gossip)")
	shards := flag.Int("shards", 0, "shard count for consistent-hash flow ownership (0 disables; requires -lookup and a lookupd started with the same -shards)")
	infraPath := flag.String("infra", "", "infrastructure description XML (default: demo topology)")
	triggerPath := flag.String("triggers", "", "trigger definitions XML to install at startup")
	provPath := flag.String("prov", "", "durable provenance log of binary frames (default: in-memory)")
	admin := flag.String("admin", "admin", "grid administrator user")
	openWrite := flag.Bool("open", true, "grant every user write access under /grid (demo mode)")
	metricsAddr := flag.String("metrics-addr", "", "serve JSON metrics, trace events and pprof on this address (\":0\" for ephemeral; empty disables)")
	storeDir := flag.String("store-dir", "", "flow-state store directory: the lifecycle log crashed runs are recovered from on startup, with snapshots, compaction and passivation (docs/STORE.md)")
	snapshotEvery := flag.Duration("snapshot-every", 30*time.Second, "how often to snapshot dirty executions into the store (0 disables; requires -store-dir)")
	passivateIdle := flag.Duration("passivate-idle", 0, "evict executions idle this long from memory into the store (0 disables; requires -store-dir)")
	faultPath := flag.String("fault", "", "fault-injection plan (JSON) applied to the grid and server (docs/FAULTS.md)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently executing requests across all connections (admission worker pool)")
	maxUserQueue := flag.Int("max-queue", 256, "max admission waiters queued per user; excess requests are rejected with a capacity error")
	replFollowers := flag.Int("repl-followers", 0, "replicate the flow-state store to this many follower peers (0 disables; requires -lookup and -store-dir; docs/REPLICATION.md)")
	replAck := flag.String("repl-ack", "quorum", "replication ack mode: quorum, chain or async (docs/REPLICATION.md)")
	replDir := flag.String("repl-dir", "", "replica root directory for stores received from followed peers (default: <store-dir>.replica)")
	tenantAuth := flag.String("tenant-auth", "", "shared-secret key file for tenant token verification (docs/TENANCY.md)")
	tenantConf := flag.String("tenant-conf", "", "tenant quota/weight configuration JSON (docs/TENANCY.md)")
	tenantRequire := flag.Bool("tenant-require", false, "reject submissions without a valid tenant token (requires -tenant-auth)")
	vdataOn := flag.Bool("vdata", false, "enable a memory-only virtual-data derivation catalog: pure steps are memoized and elided on re-run (docs/VDATA.md)")
	vdataDir := flag.String("vdata-dir", "", "durable virtual-data catalog directory; derivations survive restart (implies -vdata)")
	flag.Parse()

	var prov *provenance.Store
	if *provPath != "" {
		var err error
		prov, err = provenance.Open(*provPath)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		defer prov.Close()
	}
	grid := dgms.New(dgms.Options{
		Admin:      *admin,
		Clock:      sim.RealClock{},
		Provenance: prov,
	})
	if *infraPath != "" {
		data, err := os.ReadFile(*infraPath)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		desc, err := infra.Parse(data)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		if _, err := desc.Apply(grid); err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		log.Printf("matrixd: applied infrastructure %q (%d domains)", desc.Name, len(desc.Domains))
	} else {
		for _, r := range []*vfs.Resource{
			vfs.New("local-disk", "local", vfs.Disk, 0),
			vfs.New("local-archive", "local", vfs.Archive, 0),
		} {
			if err := grid.RegisterResource(r); err != nil {
				log.Fatalf("matrixd: %v", err)
			}
		}
		log.Printf("matrixd: using demo topology (local-disk, local-archive)")
	}
	if err := grid.CreateCollectionAll(*admin, "/grid"); err != nil {
		log.Fatalf("matrixd: %v", err)
	}
	if *openWrite {
		// Demo convenience: a real deployment manages ACLs explicitly.
		if err := grid.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
			log.Fatalf("matrixd: %v", err)
		}
	}

	var injector *fault.Injector
	if *faultPath != "" {
		data, err := os.ReadFile(*faultPath)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		plan, err := fault.ParsePlan(data)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		injector, err = fault.NewInjector(grid.Clock(), *plan)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		grid.SetFault(injector)
		log.Printf("matrixd: fault plan %s armed (%d events, seed %d)", *faultPath, len(plan.Events), plan.Seed)
	}

	cfg := matrix.Config{}
	if *name != "" {
		cfg.IDPrefix = *name + ":"
	}
	engine := matrix.NewEngineConfig(grid, cfg)

	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Obs: grid.Obs()})
		if err != nil {
			log.Fatalf("matrixd: store: %v", err)
		}
		defer st.Close()
		engine.SetStore(st)
		resumed, err := engine.RecoverFromStore()
		if err != nil {
			// One flow per failure, each left in the store; the valid ones
			// are resumed and the server keeps serving.
			log.Printf("matrixd: store recovery left flows behind:\n%v", err)
		}
		stats := st.Stats()
		log.Printf("matrixd: store %s: %d segment(s), %d record(s) replayed, %d resumed, %d passivated",
			*storeDir, stats.Segments, stats.ReplayRecords, len(resumed), stats.Passivated)
		if *snapshotEvery > 0 || *passivateIdle > 0 {
			interval := *snapshotEvery
			if interval <= 0 {
				interval = *passivateIdle
			}
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(interval)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if *snapshotEvery > 0 {
							engine.SnapshotAll()
						}
						if *passivateIdle > 0 {
							engine.PassivateIdle(*passivateIdle)
						}
					}
				}
			}()
		}
	} else if *snapshotEvery != 30*time.Second || *passivateIdle > 0 {
		log.Printf("matrixd: -snapshot-every/-passivate-idle have no effect without -store-dir")
	}

	var vcat *vdata.Catalog
	if *vdataDir != "" || *vdataOn {
		var err error
		vcat, err = vdata.Open(*vdataDir, grid.Obs())
		if err != nil {
			log.Fatalf("matrixd: vdata: %v", err)
		}
		defer vcat.Close()
		if *vdataDir != "" {
			log.Printf("matrixd: virtual-data catalog %s (%d derivation(s) replayed)", *vdataDir, vcat.Len())
		} else {
			log.Printf("matrixd: virtual-data catalog enabled (memory-only)")
		}
	}

	if *metricsAddr != "" {
		msrv, maddr, err := obs.Serve(*metricsAddr, grid.Obs())
		if err != nil {
			log.Fatalf("matrixd: metrics: %v", err)
		}
		defer msrv.Close()
		fmt.Printf("matrixd: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", maddr)
	}

	if *triggerPath != "" {
		data, err := os.ReadFile(*triggerPath)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		doc, err := trigger.ParseDefinitions(data)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		triggers := trigger.NewManager(grid, engine, 4, 4096)
		defer triggers.Close()
		names, err := triggers.DefineAll(doc)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		log.Printf("matrixd: installed %d trigger(s): %v", len(names), names)
	}

	srvCfg := wire.ServerConfig{
		MaxInflight:  *maxInflight,
		MaxUserQueue: *maxUserQueue,
	}
	var tAuth *tenant.Authority
	var tReg *tenant.Registry
	tRequire := *tenantRequire
	if *tenantAuth != "" {
		secret, err := tenant.LoadSecret(*tenantAuth)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		if tAuth, err = tenant.NewAuthority(secret); err != nil {
			log.Fatalf("matrixd: %v", err)
		}
	}
	if *tenantConf != "" {
		tc, err := tenant.LoadConfig(*tenantConf)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		tReg = tc.Build(grid.Obs())
		if tc.Require {
			tRequire = true
		}
		log.Printf("matrixd: tenancy enabled (%d registered tenant(s))", tReg.Len())
	}
	if tRequire && tAuth == nil {
		log.Fatal("matrixd: -tenant-require needs -tenant-auth")
	}
	if tAuth != nil && tReg == nil {
		// Auth without quotas: identities are verified and accounted but
		// every tenant is unlimited.
		tReg = tenant.NewRegistry(tenant.Quota{}, grid.Obs())
	}
	var bound string
	var closeFn func()
	if *lookup != "" {
		if *name == "" {
			log.Fatal("matrixd: -lookup requires -name")
		}
		peer := wire.NewPeerConfig(*name, engine, srvCfg)
		if tAuth != nil || tReg != nil {
			peer.Server().SetTenancy(tAuth, tReg, tRequire)
		}
		if vcat != nil {
			peer.EnableVdata(vcat)
			log.Printf("matrixd: vdata fleet reuse enabled (announcing derivation keys to %s)", *lookup)
		}
		if *shards > 0 {
			mgr := shard.NewManager(shard.Config{
				Self:   *name,
				Shards: *shards,
				Obs:    grid.Obs(),
				Resident: func(execID string) bool {
					_, ok := engine.Execution(execID)
					return ok
				},
			})
			peer.EnableSharding(mgr)
			log.Printf("matrixd: sharded ownership enabled (%d shards)", *shards)
		}
		if *replFollowers > 0 {
			if *storeDir == "" {
				log.Fatal("matrixd: -repl-followers requires -store-dir")
			}
			mode, err := replica.ParseAckMode(*replAck)
			if err != nil {
				log.Fatalf("matrixd: %v", err)
			}
			dir := *replDir
			if dir == "" {
				dir = *storeDir + ".replica"
			}
			if err := peer.EnableReplication(wire.ReplicationConfig{
				Followers: *replFollowers,
				Mode:      mode,
				Dir:       dir,
			}); err != nil {
				log.Fatalf("matrixd: %v", err)
			}
			log.Printf("matrixd: replication enabled (%d follower(s), %s ack) into %s", *replFollowers, mode, dir)
		}
		var err error
		bound, err = peer.Start(*addr, *lookup)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		policy, err := scheduler.NewPolicy(*placement)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		fed := federation.New(peer, federation.Config{
			Policy:            policy,
			HeartbeatInterval: *heartbeat,
		})
		fed.Start()
		closeFn = func() {
			fed.Close() // drain in-flight delegations first
			peer.Close()
		}
		log.Printf("matrixd: peer %q registered with %s (placement %s)", *name, *lookup, policy.Name())
	} else {
		srv := wire.NewServerConfig(engine, srvCfg)
		if tAuth != nil || tReg != nil {
			srv.SetTenancy(tAuth, tReg, tRequire)
		}
		if vcat != nil {
			// No fleet without -lookup: the catalog still memoizes local
			// pure steps and answers the wire vdata verb.
			engine.SetVdata(vcat)
		}
		if injector != nil {
			target := *name
			if target == "" {
				target = "matrixd"
			}
			srv.SetFault(injector, target)
		}
		var err error
		bound, err = srv.Listen(*addr)
		if err != nil {
			log.Fatalf("matrixd: %v", err)
		}
		if *replFollowers > 0 {
			log.Printf("matrixd: -repl-followers has no effect without -lookup")
		}
		closeFn = srv.Close
	}
	fmt.Printf("matrixd: serving DGL on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("matrixd: shutting down")
	closeFn()
}
