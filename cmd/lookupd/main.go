// Command lookupd runs a lookup server for the peer-to-peer
// datagridflow network: matrix peers register their name and address
// here and resolve one another when routing status queries ("Multiple
// DfMS servers can form a peer-to-peer datagridflow network with one or
// more lookup servers").
//
// Usage:
//
//	lookupd -addr :7400
//	lookupd -addr :7400 -ttl 30s              # evict silent peers sooner
//	lookupd -addr :7400 -shards 64            # shard-lease authority (sharded networks)
//	lookupd -addr :7400 -metrics-addr :7480   # Prometheus text metrics + pprof
//	lookupd -addr :7400 -tenant-auth key.txt  # token-gate peer registration
//
// The registry speaks the wire's frames and binary control envelopes
// (docs/WIRE.md §2). With -tenant-auth, every mutating verb must carry a
// token minted for the peer it acts for: matrixd peers started with the
// same -tenant-auth mint their own.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
	"datagridflow/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7400", "listen address")
	ttl := flag.Duration("ttl", wire.DefaultLookupTTL, "liveness TTL: peers silent for longer are evicted (0 disables)")
	shards := flag.Int("shards", 0, "shard count of a sharded network: the registry becomes the lease authority (0 disables; must match matrixd -shards)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text metrics and pprof on this address (empty disables)")
	tenantAuth := flag.String("tenant-auth", "", "shared-secret key file: require a valid tenant token on register/heartbeat/lease operations (docs/TENANCY.md)")
	flag.Parse()

	srv := wire.NewLookupServer()
	srv.SetTTL(*ttl)
	if *tenantAuth != "" {
		secret, err := tenant.LoadSecret(*tenantAuth)
		if err != nil {
			log.Fatalf("lookupd: %v", err)
		}
		auth, err := tenant.NewAuthority(secret)
		if err != nil {
			log.Fatalf("lookupd: %v", err)
		}
		srv.SetAuth(auth)
		fmt.Printf("lookupd: registration token-gated (peers mint their own with matrixd -tenant-auth)\n")
	}
	if *shards > 0 {
		srv.SetShards(*shards)
		fmt.Printf("lookupd: shard-lease authority for %d shards\n", *shards)
	}
	if *metricsAddr != "" {
		msrv, maddr, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			log.Fatalf("lookupd: metrics: %v", err)
		}
		defer msrv.Close()
		fmt.Printf("lookupd: serving metrics on http://%s/metrics\n", maddr)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("lookupd: %v", err)
	}
	fmt.Printf("lookupd: serving peer registry on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("lookupd: shutting down")
	srv.Close()
}
