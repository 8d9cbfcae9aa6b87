// Peer network: the paper's "multiple DfMS servers can form a
// peer-to-peer datagridflow network with one or more lookup servers",
// in one process. Three matrix peers register with a lookup server;
// flows are submitted to whichever peer owns the data, and any peer can
// answer a status query for any execution — the id itself carries its
// owner.
package main

import (
	"fmt"
	"log"

	datagridflow "datagridflow"

	"datagridflow/internal/wire"
)

func main() {
	// One lookup server for the whole network.
	lookup := wire.NewLookupServer()
	lookupAddr, err := lookup.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer lookup.Close()
	fmt.Printf("lookup server on %s\n", lookupAddr)

	// Three sites, each with its own grid and matrix server. In a real
	// deployment these are separate processes on separate machines
	// (`matrixd -name siteX -lookup ...`).
	mkPeer := func(name string) *wire.Peer {
		grid := datagridflow.NewGrid(datagridflow.GridOptions{})
		if err := grid.RegisterResource(
			datagridflow.NewResource(name+"-disk", name, datagridflow.Disk, 0)); err != nil {
			log.Fatal(err)
		}
		if err := grid.CreateCollectionAll(grid.Admin(), "/grid/"+name); err != nil {
			log.Fatal(err)
		}
		engine := datagridflow.NewEngineConfig(grid, datagridflow.EngineConfig{IDPrefix: name + ":"})
		peer := wire.NewPeer(name, engine)
		addr, err := peer.Start("127.0.0.1:0", lookupAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("peer %s serving on %s\n", name, addr)
		return peer
	}
	sdsc := mkPeer("sdsc")
	cern := mkPeer("cern")
	ncsa := mkPeer("ncsa")
	defer sdsc.Close()
	defer cern.Close()
	defer ncsa.Close()

	// Submit one ingest flow to each site — routed through the sdsc peer
	// regardless of destination.
	var ids []string
	for _, site := range []string{"sdsc", "cern", "ncsa"} {
		flow := datagridflow.NewFlow("load-"+site).
			Step("ingest", datagridflow.Op(datagridflow.OpIngest, map[string]string{
				"path": "/grid/" + site + "/data.set", "size": "1048576", "resource": site + "-disk",
			})).Flow()
		resp, err := sdsc.SubmitTo(site, "admin", flow)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted to %s: %s\n", site, resp.Ack.ID)
		ids = append(ids, resp.Ack.ID)
	}
	// Wait for completion on the owning engines.
	for _, peer := range []*wire.Peer{sdsc, cern, ncsa} {
		for _, id := range ids {
			if exec, ok := peer.Engine().Execution(id); ok {
				if err := exec.Wait(); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	// A client of the ncsa peer audits every execution in the network:
	// ids route themselves ("The identifier for any particular task or
	// flow can be shared with all other processes").
	auditor, err := datagridflow.DialMatrix(ncsa.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer auditor.Close()
	for _, id := range ids {
		st, err := auditor.Status("auditor", id, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ncsa sees %-24s → %s\n", id, st.State)
	}
	// Even step-level ids resolve across the network.
	stepID := ids[1] + "/load-cern/ingest"
	st, err := auditor.Status("auditor", stepID, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ncsa sees step %s → %s (%s)\n", stepID, st.State, st.Kind)
}
