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
//	matrixd -placement locality -heartbeat 2s    # placement and membership tuning
//	matrixd -shards 64 -lookup host:7400         # sharded flow ownership
//	matrixd -repl-followers 2 -repl-ack quorum   # replicated lifecycle store
//	matrixd -repl-dir /var/lib/matrix-replica    # replica root override
//	matrixd -prov /var/log/matrix-prov.log       # durable provenance
//	matrixd -metrics-addr :7481                  # Prometheus text metrics + pprof
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
// Each line shows one flag group; some need others beside them.
// -shards and -repl-followers need -lookup (which needs -name), and
// -repl-followers also needs -store-dir; -snapshot-every and
// -passivate-idle act only with -store-dir; -tenant-require needs
// -tenant-auth. matrixd is flag parsing into a node.Config, node.Start
// and the signal wait: Start refuses a combination it cannot boot,
// naming every problem, before it opens, recovers, listens or
// registers anything (docs/ARCHITECTURE.md, "Booting a peer").
//
// With -tenant-auth and -lookup the peer presents the registry a
// credential it mints for its own -name (a lookupd started with the same
// -tenant-auth requires one), and a flow's cross-peer derivation lookups
// carry the flow's own token (docs/TENANCY.md, docs/VDATA.md).
//
// With -metrics-addr the server exposes the observability surface
// documented in docs/METRICS.md: /metrics (Prometheus text
// exposition), /trace (recent trace events, one logfmt line each) and
// /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datagridflow/internal/fault"
	"datagridflow/internal/infra"
	"datagridflow/internal/node"
	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/tenant"
	"datagridflow/internal/trigger"
	"datagridflow/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7401", "listen address")
	name := flag.String("name", "", "peer name (required with -lookup)")
	lookup := flag.String("lookup", "", "lookup server address to register with")
	placement := flag.String("placement", "least-loaded", "federation placement policy: least-loaded, round-robin, locality or vdata-locality (docs/FEDERATION.md, docs/VDATA.md)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "membership interval of a -lookup peer: registration and lease renewal with load gossip, owner map, shard rebalance, follower placement")
	shards := flag.Int("shards", 0, "shard count for consistent-hash flow ownership (0 disables; requires -lookup and a lookupd started with the same -shards)")
	infraPath := flag.String("infra", "", "infrastructure description XML (default: demo topology)")
	triggerPath := flag.String("triggers", "", "trigger definitions XML to install at startup")
	provPath := flag.String("prov", "", "durable provenance log of binary frames (default: in-memory)")
	admin := flag.String("admin", "admin", "grid administrator user")
	openWrite := flag.Bool("open", true, "grant every user write access under /grid (demo mode)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics, trace events and pprof on this address (\":0\" for ephemeral; empty disables)")
	storeDir := flag.String("store-dir", "", "flow-state store directory: the lifecycle log crashed runs are recovered from on startup, with snapshots, compaction and passivation (docs/STORE.md)")
	snapshotEvery := flag.Duration("snapshot-every", 30*time.Second, "how often to snapshot dirty executions into the store (0 disables; requires -store-dir)")
	passivateIdle := flag.Duration("passivate-idle", 0, "evict executions idle this long from memory into the store (0 disables; requires -store-dir)")
	faultPath := flag.String("fault", "", "fault-injection plan (JSON) applied to the grid and server (docs/FAULTS.md)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently executing requests across all connections (admission worker pool)")
	maxUserQueue := flag.Int("max-queue", 256, "max admission waiters queued per user; excess requests are rejected with a capacity error")
	replFollowers := flag.Int("repl-followers", 0, "replicate the flow-state store to this many follower peers (0 disables; requires -lookup and -store-dir; docs/REPLICATION.md)")
	replAck := flag.String("repl-ack", "quorum", "replication ack mode: quorum|async (docs/REPLICATION.md)")
	replDir := flag.String("repl-dir", "", "replica root directory for stores received from followed peers (default: <store-dir>.replica)")
	tenantAuth := flag.String("tenant-auth", "", "shared-secret key file for tenant token verification (docs/TENANCY.md)")
	tenantConf := flag.String("tenant-conf", "", "tenant quota/weight configuration JSON (docs/TENANCY.md)")
	tenantRequire := flag.Bool("tenant-require", false, "reject submissions without a valid tenant token (requires -tenant-auth)")
	vdataOn := flag.Bool("vdata", false, "enable a memory-only virtual-data derivation catalog: pure steps are memoized and elided on re-run (docs/VDATA.md)")
	vdataDir := flag.String("vdata-dir", "", "durable virtual-data catalog directory; derivations survive restart (implies -vdata)")
	flag.Parse()

	cfg := node.Config{
		Addr:          *addr,
		Name:          *name,
		Lookup:        *lookup,
		Admin:         *admin,
		Open:          *openWrite,
		ProvPath:      *provPath,
		MetricsAddr:   *metricsAddr,
		Server:        wire.ServerConfig{MaxInflight: *maxInflight, MaxUserQueue: *maxUserQueue, HeartbeatInterval: *heartbeat},
		StoreDir:      *storeDir,
		SnapshotEvery: *snapshotEvery,
		PassivateIdle: *passivateIdle,
		Vdata:         *vdataOn,
		VdataDir:      *vdataDir,
		TenantRequire: *tenantRequire,
		Shards:        *shards,
		Replication:   wire.ReplicationConfig{Followers: *replFollowers, Dir: *replDir},
	}
	var err error
	if cfg.Replication.Mode, err = replica.ParseAckMode(*replAck); err != nil {
		log.Fatalf("matrixd: %v", err)
	}
	if cfg.Federation.Policy, err = scheduler.NewPolicy(*placement); err != nil {
		log.Fatalf("matrixd: %v", err)
	}
	if *infraPath != "" {
		cfg.Infra, err = readDoc(*infraPath, infra.Parse)
	}
	if err == nil && *triggerPath != "" {
		cfg.Triggers, err = readDoc(*triggerPath, trigger.ParseDefinitions)
	}
	if err == nil && *faultPath != "" {
		cfg.Fault, err = readDoc(*faultPath, fault.ParsePlan)
	}
	if err == nil && *tenantAuth != "" {
		var secret []byte
		if secret, err = tenant.LoadSecret(*tenantAuth); err == nil {
			cfg.TenantAuth, err = tenant.NewAuthority(secret)
		}
	}
	if err == nil && *tenantConf != "" {
		cfg.Tenants, err = tenant.LoadConfig(*tenantConf)
	}
	if err != nil {
		log.Fatalf("matrixd: %v", err)
	}
	if *storeDir == "" && (*snapshotEvery != 30*time.Second || *passivateIdle > 0) {
		log.Printf("matrixd: -snapshot-every/-passivate-idle have no effect without -store-dir")
	}

	n, err := node.Start(cfg)
	if err != nil {
		log.Fatalf("matrixd: %v", err)
	}
	for _, line := range n.Log() {
		log.Printf("matrixd: %s", line)
	}
	if a := n.MetricsAddr(); a != "" {
		fmt.Printf("matrixd: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", a)
	}
	fmt.Printf("matrixd: serving DGL on %s\n", n.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("matrixd: shutting down")
	n.Close()
}

// readDoc reads the file at path and parses it.
func readDoc[T any](path string, parse func([]byte) (*T, error)) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data)
}
