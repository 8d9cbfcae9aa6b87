package experiments

// E14: the flow-state store (internal/store, docs/STORE.md). The paper's
// datagridflows run "days, months, or even years"; a DfMS that keeps
// every long-run execution in memory and replays its whole history on
// restart cannot honor that. E14 populates an engine with a large set of
// mostly-idle flows (short burst of work, then parked waiting on an
// external event), passivates the idle ones, compacts the store, and
// measures what the subsystem is for: resident executions after
// passivation (memory bound) and restart replay records of the compacted
// store vs the same store before compaction (recovery bound).

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

// storeReport is what one E14 run measured. The counts are asserted by
// check; the timings and heap figures are printed only.
type storeReport struct {
	// flows is the population size; stepsPerFlow the work each did
	// before parking.
	flows, stepsPerFlow int

	// uncompactedRecords is what store.Open replays from a copy of the
	// store directory taken just before Compact — every record the run
	// wrote. storeReplayRecords is what it replays after compaction (one
	// merged snapshot per live flow). replayReduction is their ratio, the
	// headline number.
	uncompactedRecords, storeReplayRecords int
	replayReduction                        float64

	// passivated counts flows evicted to the store; residentAfterSweep
	// is what stayed in engine memory (should be ~0 of flows);
	// residentAfterRecovery is engine residency after a restart +
	// RecoverFromStore (passivated flows must NOT re-inflate).
	passivated, residentAfterSweep, residentAfterRecovery int

	// compactKept/compactDropped report the compaction that bounded the
	// replay.
	compactKept, compactDropped int

	// uncompactedOpenMs and storeOpenMs time store.Open over the copy
	// and over the compacted store; recoverMs times RecoverFromStore on
	// the compacted one.
	uncompactedOpenMs, storeOpenMs, recoverMs float64

	// heapBeforeMB/heapAfterMB bracket the passivation sweep (Go heap,
	// after GC).
	heapBeforeMB, heapAfterMB float64

	// groupCommits/groupCommitRecords report the write path's fsync
	// batching across the run.
	groupCommits, groupCommitRecords int64

	// resurrected is set when a sampled passivated flow resurrected
	// from the recovered store with its checkpoints intact.
	resurrected bool
}

// check returns an error naming the first broken invariant of the
// store's claims (docs/STORE.md). All are counts: the replay a restart
// pays, what stays resident, and whether a passivated flow comes back.
func (rep *storeReport) check() error {
	if rep.replayReduction < 10 {
		return fmt.Errorf("E14: replayReduction %.1fx (%d uncompacted / %d compacted replay records) below 10x",
			rep.replayReduction, rep.uncompactedRecords, rep.storeReplayRecords)
	}
	residentMax := rep.flows / 100
	if rep.residentAfterSweep > residentMax {
		return fmt.Errorf("E14: residentAfterSweep %d of %d flows after passivation (bound %d)",
			rep.residentAfterSweep, rep.flows, residentMax)
	}
	if rep.residentAfterRecovery > residentMax {
		return fmt.Errorf("E14: residentAfterRecovery %d of %d flows re-inflated by the restart (bound %d)",
			rep.residentAfterRecovery, rep.flows, residentMax)
	}
	if !rep.resurrected {
		return fmt.Errorf("E14: sampled passivated flow did not resurrect after the restart")
	}
	return nil
}

// e14Dims sizes the run.
func e14Dims(s Scale) (flows, wave, steps int) {
	if s == Full {
		return 50000, 2000, 12
	}
	return 300, 100, 12
}

// parkedFlow is the E14 workload: a dozen quick variable updates (the
// "active burst"), then a park step that blocks until an external event
// — the shape of a flow that stages data and then waits months for the
// next instrument run.
func parkedFlow(name string, steps int) dgl.Flow {
	fb := dgl.NewFlow(name).Var("cursor", "0")
	for i := 0; i < steps; i++ {
		fb.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpSetVariable, map[string]string{
			"name": "cursor", "value": fmt.Sprint(i + 1),
		}))
	}
	fb.Step("park", dgl.Op("park", nil))
	return fb.Flow()
}

// copyDir copies the files of src, a store directory, into a new
// directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// timedOpen opens a store directory and reports how long Open took and
// how many records it replayed.
func timedOpen(dir string) (st *store.Store, ms float64, replayed int, err error) {
	t0 := time.Now()
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	return st, float64(time.Since(t0).Microseconds()) / 1000, st.Stats().ReplayRecords, nil
}

// groupCommitTotals reads the write path's fsync-batching counters.
// Experiment grids share obs.Default(), so E14 reports deltas across
// its own run.
func groupCommitTotals(reg *obs.Registry) (commits, records int64) {
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "journal_group_commits_total":
			commits += c.Value
		case "journal_group_commit_records_total":
			records += c.Value
		}
	}
	return commits, records
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// registerPark installs the blocking "park" op. Parked flows count into
// parked; they unblock only through engine cancellation (which is how
// passivation evicts them).
func registerPark(e *matrix.Engine, parked *atomic.Int64) {
	e.RegisterOp("park", func(c *matrix.OpContext) error {
		parked.Add(1)
		defer parked.Add(-1)
		<-c.Cancel
		return matrix.ErrCancelled
	})
}

// runStore runs the store experiment and returns what it measured.
func runStore(scale Scale) (*storeReport, error) {
	flows, wave, steps := e14Dims(scale)
	dir, err := os.MkdirTemp("", "dgf-e14-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	uncompactedDir := filepath.Join(dir, "uncompacted")

	g, err := newGrid()
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	var parked atomic.Int64
	registerPark(e, &parked)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	e.SetStore(st)

	rep := &storeReport{flows: flows, stepsPerFlow: steps}
	rep.heapBeforeMB = heapMB()
	gc0, gr0 := groupCommitTotals(e.Obs())

	// Populate in waves: submit a wave, wait for every flow to finish
	// its burst and park, then passivate the wave in parallel (parallel
	// passivation is what exercises the group-committed write path).
	// Waves bound peak residency, like a real server passivating on an
	// idle timer while new work arrives.
	firstID := ""
	for done := 0; done < flows; {
		n := wave
		if flows-done < n {
			n = flows - done
		}
		ids := make([]string, 0, n)
		for i := 0; i < n; i++ {
			resp, err := e.Submit(dgl.NewAsyncRequest("user", "",
				parkedFlow(fmt.Sprintf("lr-%06d", done+i), steps)))
			if err != nil {
				return nil, err
			}
			if resp.Error != "" || resp.Ack == nil {
				return nil, fmt.Errorf("E14: submit: %+v", resp)
			}
			ids = append(ids, resp.Ack.ID)
		}
		if firstID == "" {
			firstID = ids[0]
		}
		for parked.Load() < int64(n) {
			time.Sleep(2 * time.Millisecond)
		}
		var wg sync.WaitGroup
		workers := 64
		if workers > n {
			workers = n
		}
		ch := make(chan string, n)
		for _, id := range ids {
			ch <- id
		}
		close(ch)
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := range ch {
					if perr := e.Passivate(id); perr != nil {
						errc <- perr
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case perr := <-errc:
			return nil, fmt.Errorf("E14: passivate: %w", perr)
		default:
		}
		done += n
	}
	// Sweep stragglers (none expected) through the production API.
	e.PassivateIdle(0)
	rep.residentAfterSweep = e.Resident()
	rep.passivated = st.Stats().Passivated
	rep.heapAfterMB = heapMB()

	// What a restart would replay without compaction: every record so far.
	if err := st.Flush(); err != nil {
		return nil, err
	}
	if err := copyDir(storeDir, uncompactedDir); err != nil {
		return nil, err
	}
	cs, err := st.Compact()
	if err != nil {
		return nil, err
	}
	rep.compactKept, rep.compactDropped = cs.RecordsKept, cs.RecordsDropped

	gc1, gr1 := groupCommitTotals(e.Obs())
	rep.groupCommits = gc1 - gc0
	rep.groupCommitRecords = gr1 - gr0

	if err := st.Close(); err != nil {
		return nil, err
	}

	// The restart: what would each store replay?
	old, ms, n, err := timedOpen(uncompactedDir)
	if err != nil {
		return nil, err
	}
	rep.uncompactedOpenMs, rep.uncompactedRecords = ms, n
	if err := old.Close(); err != nil {
		return nil, err
	}
	st2, ms, n, err := timedOpen(storeDir)
	if err != nil {
		return nil, err
	}
	defer st2.Close()
	rep.storeOpenMs, rep.storeReplayRecords = ms, n
	if rep.storeReplayRecords > 0 {
		rep.replayReduction = float64(rep.uncompactedRecords) / float64(rep.storeReplayRecords)
	}

	g2, err := newGrid()
	if err != nil {
		return nil, err
	}
	e2 := matrix.NewEngine(g2)
	var parked2 atomic.Int64
	registerPark(e2, &parked2)
	e2.SetStore(st2)
	t0 := time.Now()
	resumed, err := e2.RecoverFromStore()
	if err != nil {
		return nil, err
	}
	rep.recoverMs = float64(time.Since(t0).Microseconds()) / 1000
	rep.residentAfterRecovery = e2.Resident() + len(resumed)

	// Prove a passivated flow is actually reachable after the restart:
	// resurrect one, check its burst steps are checkpoint-complete,
	// then cancel it (the park would otherwise hold the process).
	if ent, ok := st2.Entry(firstID); ok && len(ent.Done) == steps {
		if ex, rerr := e2.ResurrectFor(firstID, "status"); rerr == nil {
			for parked2.Load() < 1 {
				time.Sleep(2 * time.Millisecond)
			}
			ex.Cancel()
			_ = ex.Wait()
			rep.resurrected = true
		}
	}

	return rep, nil
}

// E14Store runs the store experiment, asserts its invariants and
// renders the table.
func E14Store(scale Scale) (*Report, error) {
	rep, err := runStore(scale)
	if err != nil {
		return nil, err
	}
	if err := rep.check(); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "E14",
		Title:  fmt.Sprintf("flow-state store: resident memory and restart replay, %d long-run flows", rep.flows),
		Header: []string{"quantity", "uncompacted store", "compacted store"},
	}
	r.Row("flows", fmt.Sprint(rep.flows), fmt.Sprint(rep.flows))
	r.Row("restart replay (records)", fmt.Sprint(rep.uncompactedRecords), fmt.Sprint(rep.storeReplayRecords))
	r.Row("store open (ms)", fmt.Sprintf("%.1f", rep.uncompactedOpenMs), fmt.Sprintf("%.1f", rep.storeOpenMs))
	r.Note("replay reduction %.1fx (compaction kept %d, dropped %d)", rep.replayReduction, rep.compactKept, rep.compactDropped)
	r.Note("resident executions: %d of %d flows after the passivation sweep (%d passivated; heap baseline %.1f MB, after sweep %.1f MB), %d after restart + RecoverFromStore (%.1f ms)",
		rep.residentAfterSweep, rep.flows, rep.passivated, rep.heapBeforeMB, rep.heapAfterMB, rep.residentAfterRecovery, rep.recoverMs)
	r.Note("write path batched %d records into %d fsyncs (%.1f records/fsync)",
		rep.groupCommitRecords, rep.groupCommits, float64(rep.groupCommitRecords)/float64(max64(rep.groupCommits, 1)))
	if rep.resurrected {
		r.Note("sampled passivated flow resurrected after restart with all %d burst steps checkpoint-complete", rep.stepsPerFlow)
	}
	return r, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
