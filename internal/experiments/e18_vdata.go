package experiments

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/vdata"
	"datagridflow/internal/wire"
)

// E18Vdata quantifies the virtual-data derivation catalog
// (docs/VDATA.md) with one in-process run:
//
//   - Warm-pass elision: a set of distinct pure transformations runs
//     cold against a durable catalog, then again. The warm pass must
//     hit for (nearly) every step — hit rate ≥0.9 — and finishes a
//     large multiple faster, because a hit costs a catalog read
//     instead of the transformation's compute.
//   - Durability: the catalog is closed and reopened; every entry
//     must replay (memoization survives restart).
//   - Cross-peer reuse: peerA computes the derivation set; peerB then
//     runs the same flows, each local miss resolving the holder
//     through the lookup registry and grafting the entry over wire
//     1.8's vdata verb. Every reuse must be counted in
//     vdata_remote_hits_total.
func E18Vdata(s Scale) (*Report, error) {
	rep, err := runVdata(pick(s, 12, 32), time.Duration(pick(s, 10, 20))*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if err := rep.check(); err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E18", Title: "virtual-data catalog — warm elision & cross-peer reuse",
		Header: []string{"scenario", "metric", "value"},
	}
	r.Row("elision", "cold pass", fmt.Sprintf("%.0f ms (%d flows)", rep.coldMs, rep.flows))
	r.Row("elision", "warm pass", fmt.Sprintf("%.0f ms (%.1fx)", rep.warmMs, rep.warmSpeedup))
	r.Row("elision", "hit rate", fmt.Sprintf("%.2f", rep.hitRate))
	r.Row("durability", "entries replayed", fmt.Sprintf("%d / %d", rep.replayedEntries, rep.entries))
	r.Row("cross-peer", "cold compute", fmt.Sprintf("%.0f ms", rep.remoteColdMs))
	r.Row("cross-peer", "fleet reuse", fmt.Sprintf("%.0f ms (%.1fx)", rep.remoteMs, rep.remoteSpeedup))
	r.Row("cross-peer", "remote hits", fmt.Sprintf("%d", rep.remoteHits))
	r.Note("workload: %d distinct pure transformations of %s simulated compute each, durable catalog, two-peer fleet on one lookup registry",
		rep.flows, rep.stepLatency)
	r.Note("asserted: hit rate >= 0.90, replayed == entries, remote hits >= flows")
	return r, nil
}

// vdataReport is what one E18 run measured. The hit rate and the two
// counts are asserted by check; the wall-clock speedups are printed
// only.
type vdataReport struct {
	flows       int
	stepLatency time.Duration

	// Warm-pass elision against a durable catalog: hitRate is warm-pass
	// hits / flows, warmSpeedup is coldMs/warmMs.
	coldMs, warmMs, hitRate, warmSpeedup float64
	// entries is the catalog population after the passes;
	// replayedEntries is the population after close + reopen — equality
	// proves the derivations are durable, not resident-only.
	entries, replayedEntries int

	// Cross-peer reuse: peerA computes in remoteColdMs, peerB reuses in
	// remoteMs with remoteHits wire grafts; remoteSpeedup is their ratio.
	remoteColdMs, remoteMs, remoteSpeedup float64
	remoteHits                            int
}

// check returns an error naming the first broken virtual-data
// invariant.
func (rep *vdataReport) check() error {
	if rep.hitRate < 0.9 {
		return fmt.Errorf("E18: hit_rate %.2f below 0.90 on the warm pass (memoization missed)", rep.hitRate)
	}
	if rep.replayedEntries != rep.entries {
		return fmt.Errorf("E18: replayed_entries %d of %d entries after reopen (derivations must survive restart)",
			rep.replayedEntries, rep.entries)
	}
	if rep.remoteHits < rep.flows {
		return fmt.Errorf("E18: remote_hits %d for %d flows (fleet reuse incomplete)", rep.remoteHits, rep.flows)
	}
	return nil
}

// vdataFlow is the i-th distinct pure transformation of the set.
func vdataFlow(i int, latency time.Duration) dgl.Flow {
	return dgl.NewFlow(fmt.Sprintf("derive-%d", i)).
		PureStep("transform", dgl.Op(dgl.OpExec, map[string]string{
			"command":    fmt.Sprintf("transform /grid/raw/part-%d", i),
			"cpuSeconds": strconv.FormatFloat(latency.Seconds(), 'f', -1, 64),
			"resultVar":  "derived",
		}), fmt.Sprintf("/grid/derived/part-%d.dat", i)).
		Flow()
}

// runVdataSet runs the whole derivation set sequentially and returns
// the wall-clock milliseconds.
func runVdataSet(e *matrix.Engine, flows int, step time.Duration) (float64, error) {
	t0 := time.Now()
	for i := 0; i < flows; i++ {
		ex, err := e.Run("user", vdataFlow(i, step))
		if err != nil {
			return 0, err
		}
		if err := ex.Err(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / 1000, nil
}

// runVdata executes the virtual-data run over `flows` distinct pure
// derivations of `step` simulated compute each (real wall clock, so
// elision shows up as wall-clock speedup).
func runVdata(flows int, step time.Duration) (*vdataReport, error) {
	rep := &vdataReport{flows: flows, stepLatency: step}

	// Phase 1 — warm-pass elision against a durable catalog.
	dir, err := os.MkdirTemp("", "dgf-e18-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g, reg, err := newRealGrid("local")
	if err != nil {
		return nil, err
	}
	cat, err := vdata.Open(dir, reg)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	e.SetVdata(cat)
	if rep.coldMs, err = runVdataSet(e, flows, step); err != nil {
		return nil, err
	}
	if rep.warmMs, err = runVdataSet(e, flows, step); err != nil {
		return nil, err
	}
	rep.hitRate = float64(reg.Counter("vdata_hits_total").Value()) / float64(flows)
	if rep.warmMs > 0 {
		rep.warmSpeedup = rep.coldMs / rep.warmMs
	}
	rep.entries = cat.Len()

	// Durability: reopen the log and count what replays.
	if err := cat.Close(); err != nil {
		return nil, err
	}
	reopened, err := vdata.Open(dir, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	rep.replayedEntries = reopened.Len()
	if err := reopened.Close(); err != nil {
		return nil, err
	}

	// Phase 2 — cross-peer reuse over wire 1.8 and the lookup registry.
	ls := wire.NewLookupServer()
	ls.SetObs(obs.NewRegistry())
	lookupAddr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ls.Close()
	newPeer := func(name string) (*wire.Peer, *matrix.Engine, *obs.Registry, error) {
		pg, preg, err := newRealGrid(name)
		if err != nil {
			return nil, nil, nil, err
		}
		pe := matrix.NewEngineConfig(pg, matrix.Config{IDPrefix: name + ":"})
		pcat, err := vdata.Open("", preg)
		if err != nil {
			return nil, nil, nil, err
		}
		p := wire.NewPeer(name, pe)
		p.EnableVdata(pcat)
		if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
			return nil, nil, nil, err
		}
		return p, pe, preg, nil
	}
	pa, ea, _, err := newPeer("peerA")
	if err != nil {
		return nil, err
	}
	defer pa.Close()
	pb, eb, regB, err := newPeer("peerB")
	if err != nil {
		return nil, err
	}
	defer pb.Close()
	if rep.remoteColdMs, err = runVdataSet(ea, flows, step); err != nil {
		return nil, err
	}
	if rep.remoteMs, err = runVdataSet(eb, flows, step); err != nil {
		return nil, err
	}
	rep.remoteHits = int(regB.Counter("vdata_remote_hits_total").Value())
	if rep.remoteMs > 0 {
		rep.remoteSpeedup = rep.remoteColdMs / rep.remoteMs
	}
	return rep, nil
}
