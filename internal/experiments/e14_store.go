package experiments

// E14: the flow-state store (internal/store, docs/STORE.md). The paper's
// datagridflows run "days, months, or even years"; a DfMS that keeps
// every long-run execution in memory and replays its whole journal on
// restart cannot honor that. E14 populates an engine with a large set of
// mostly-idle flows (short burst of work, then parked waiting on an
// external event), passivates the idle ones, compacts the store, and
// measures what the subsystem is for: resident executions after
// passivation (memory bound) and restart replay records vs the flat
// journal (recovery bound).

import (
	"bufio"
	"encoding/json"
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
// check; the timings, heap figures and the codec ratio are printed only.
type storeReport struct {
	// flows is the population size; stepsPerFlow the work each did
	// before parking.
	flows, stepsPerFlow int

	// journalRecords counts the flat journal's lines — what a restart
	// without the store must replay. storeReplayRecords is what
	// store.Open replayed after compaction (one merged snapshot per
	// live flow). replayReduction is their ratio, the headline number.
	journalRecords, storeReplayRecords int
	replayReduction                    float64

	// passivated counts flows evicted to the store; residentAfterSweep
	// is what stayed in engine memory (should be ~0 of flows);
	// residentAfterRecovery is engine residency after a restart +
	// RecoverFromStore (passivated flows must NOT re-inflate).
	passivated, residentAfterSweep, residentAfterRecovery int

	// compactKept/compactDropped report the compaction that bounded the
	// replay.
	compactKept, compactDropped int

	// journalScanMs times decoding every journal line (the unavoidable
	// floor of full-journal replay); storeOpenMs times store.Open's
	// replay; recoverMs times RecoverFromStore on the reopened store.
	journalScanMs, storeOpenMs, recoverMs float64

	// heapBeforeMB/heapAfterMB bracket the passivation sweep (Go heap,
	// after GC).
	heapBeforeMB, heapAfterMB float64

	// groupCommits/groupCommitRecords report the write path's fsync
	// batching across the run (journal + store segments).
	groupCommits, groupCommitRecords int64

	// resurrected is set when a sampled passivated flow resurrected
	// from the recovered store with its checkpoints intact.
	resurrected bool

	// The codec replay phase writes one identical synthetic snapshot
	// stream to two fresh stores — JSONL and the 1.4 binary segment
	// encoding — and times store.Open over each. codecReplaySpeedup is
	// JSON open time over binary open time (docs/CODEC.md); the byte
	// counts record the on-disk size win.
	codecReplayRecords              int
	codecJSONOpenMs, codecBinOpenMs float64
	codecJSONBytes, codecBinBytes   int64
	codecReplaySpeedup              float64
}

// check returns an error naming the first broken invariant of the
// store's claims (docs/STORE.md). All are counts: the replay a restart
// pays, what stays resident, and whether a passivated flow comes back.
func (rep *storeReport) check() error {
	if rep.replayReduction < 10 {
		return fmt.Errorf("E14: replayReduction %.1fx (%d journal records / %d store replay records) below 10x",
			rep.replayReduction, rep.journalRecords, rep.storeReplayRecords)
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

// e14CodecRecords sizes the codec replay phase's synthetic stream.
func e14CodecRecords(s Scale) int {
	if s == Full {
		return 40000
	}
	return 4000
}

// codecStream builds the codec phase's workload: snapshot records of
// realistic shape — a request document, a dozen dataset variables, a
// dozen completed steps — cycling over a bounded id population so the
// replayed index stays store-sized while every record is decoded.
func codecStream(n int) []store.Record {
	now := time.Now()
	recs := make([]store.Record, n)
	for i := range recs {
		vars := make(map[string]string, 10)
		for v := 0; v < 10; v++ {
			vars[fmt.Sprintf("dataset.partition.%02d", v)] =
				fmt.Sprintf("srb://vault.sdsc.edu/grid/run-%04d/part-%02d.dat", i%977, v)
		}
		done := make([]string, 12)
		for s := range done {
			done[s] = fmt.Sprintf("/lr/s%d", s)
		}
		// The snapshot carries the execution's full DGL request document:
		// for a long-run collection flow that is a multi-kilobyte,
		// attribute-heavy XML body (one step per partition). Inside JSONL
		// every attribute quote is escaped, which is exactly the asymmetry
		// the binary encoding removes — the request rides as one
		// length-prefixed byte run.
		req := make([]byte, 0, 6<<10)
		req = append(req, `<dataGridRequest async="true"><userInfo><userName>bench</userName>`+
			`<virtualOrganization>sdsc</virtualOrganization></userInfo>`+
			`<dataGridFlow name="lr"><flowLogic control="sequential">`...)
		for s := 0; s < 24; s++ {
			req = append(req, fmt.Sprintf(`<step name="partition-%02d"><op kind="replicate" `+
				`src="srb://vault.sdsc.edu/home/collections/run-%04d/partition-%02d/objects.dat" `+
				`dst="srb://mirror.npaci.edu/archive/run-%04d/partition-%02d/objects.dat" `+
				`checksum="md5:%08x" replicas="3"/></step>`, s, i%977, s, i%977, s, uint32(i*31+s))...)
		}
		req = append(req, `</flowLogic></dataGridFlow></dataGridRequest>`...)
		recs[i] = store.Record{
			Type:    store.TypeExecSnap,
			ID:      fmt.Sprintf("dgf-%06d", i%4096),
			Time:    now.Add(time.Duration(i) * time.Millisecond),
			Request: string(req),
			Node:    "/lr/park",
			Vars:    vars,
			Done:    done,
			Paused:  i%7 == 0,
		}
	}
	return recs
}

// codecPhase writes recs to a fresh store in the given encoding via the
// vectored batch path, then times a cold store.Open over the result.
func codecPhase(dir string, recs []store.Record, binary bool) (openMs float64, size int64, err error) {
	st, err := store.Open(dir, store.Options{Binary: binary})
	if err != nil {
		return 0, 0, err
	}
	const chunk = 512
	for lo := 0; lo < len(recs); lo += chunk {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		if err := st.AppendBatch(recs[lo:hi]); err != nil {
			st.Close()
			return 0, 0, err
		}
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		if fi, serr := os.Stat(s); serr == nil {
			size += fi.Size()
		}
	}
	t0 := time.Now()
	st2, err := store.Open(dir, store.Options{Binary: binary})
	if err != nil {
		return 0, 0, err
	}
	openMs = float64(time.Since(t0).Microseconds()) / 1000
	defer st2.Close()
	if got := st2.Stats().ReplayRecords; got != len(recs) {
		return 0, 0, fmt.Errorf("E14 codec: replayed %d of %d records (binary=%v)", got, len(recs), binary)
	}
	return openMs, size, nil
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

// countLines counts newline-terminated records in a file.
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	n := 0
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			n++
		}
		if err != nil {
			return n, nil
		}
	}
}

// scanJournal decodes every record in the journal file — the minimum
// work any full-journal replay must do, independent of what the engine
// then does with the records.
func scanJournal(path string) (int, time.Duration, error) {
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	n := 0
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 1 {
			var rec store.Record
			if uerr := json.Unmarshal(line, &rec); uerr == nil {
				n++
			}
		}
		if err != nil {
			return n, time.Since(t0), nil
		}
	}
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
	journalPath := filepath.Join(dir, "journal.jsonl")
	storeDir := filepath.Join(dir, "store")

	g, err := newGrid()
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	var parked atomic.Int64
	registerPark(e, &parked)
	journal, err := matrix.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	e.SetJournal(journal)
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
	rep.residentAfterSweep = len(e.Executions())
	rep.passivated = st.Stats().Passivated
	rep.heapAfterMB = heapMB()

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
	if err := journal.Close(); err != nil {
		return nil, err
	}

	// The restart: what would each recovery path replay?
	rep.journalRecords, _ = countLines(journalPath)
	scanned, scanDur, err := scanJournal(journalPath)
	if err != nil {
		return nil, err
	}
	if scanned != rep.journalRecords {
		return nil, fmt.Errorf("E14: journal scan decoded %d of %d records", scanned, rep.journalRecords)
	}
	rep.journalScanMs = float64(scanDur.Microseconds()) / 1000

	t0 := time.Now()
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	rep.storeOpenMs = float64(time.Since(t0).Microseconds()) / 1000
	defer st2.Close()
	rep.storeReplayRecords = st2.Stats().ReplayRecords
	if rep.storeReplayRecords > 0 {
		rep.replayReduction = float64(rep.journalRecords) / float64(rep.storeReplayRecords)
	}

	g2, err := newGrid()
	if err != nil {
		return nil, err
	}
	e2 := matrix.NewEngine(g2)
	var parked2 atomic.Int64
	registerPark(e2, &parked2)
	e2.SetStore(st2)
	t0 = time.Now()
	resumed, err := e2.RecoverFromStore()
	if err != nil {
		return nil, err
	}
	rep.recoverMs = float64(time.Since(t0).Microseconds()) / 1000
	rep.residentAfterRecovery = len(e2.Executions()) + len(resumed)

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

	// Codec replay phase: the same synthetic snapshot stream through a
	// JSONL store and a binary store, each timed through a cold Open.
	recs := codecStream(e14CodecRecords(scale))
	rep.codecReplayRecords = len(recs)
	rep.codecJSONOpenMs, rep.codecJSONBytes, err = codecPhase(filepath.Join(dir, "codec-json"), recs, false)
	if err != nil {
		return nil, err
	}
	rep.codecBinOpenMs, rep.codecBinBytes, err = codecPhase(filepath.Join(dir, "codec-bin"), recs, true)
	if err != nil {
		return nil, err
	}
	if rep.codecBinOpenMs > 0 {
		rep.codecReplaySpeedup = rep.codecJSONOpenMs / rep.codecBinOpenMs
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
		Header: []string{"quantity", "journal only", "with store"},
	}
	r.Row("flows", fmt.Sprint(rep.flows), fmt.Sprint(rep.flows))
	r.Row("resident executions", fmt.Sprint(rep.flows), fmt.Sprint(rep.residentAfterSweep))
	r.Row("restart replay (records)", fmt.Sprint(rep.journalRecords), fmt.Sprint(rep.storeReplayRecords))
	r.Row("restart replay (ms)", fmt.Sprintf("%.1f", rep.journalScanMs), fmt.Sprintf("%.1f", rep.storeOpenMs+rep.recoverMs))
	r.Row("resident after restart", fmt.Sprint(rep.flows), fmt.Sprint(rep.residentAfterRecovery))
	r.Note("replay reduction %.1fx (compaction kept %d, dropped %d); %d flows passivated (heap baseline %.1f MB, after sweep %.1f MB)",
		rep.replayReduction, rep.compactKept, rep.compactDropped, rep.passivated, rep.heapBeforeMB, rep.heapAfterMB)
	r.Note("write path batched %d records into %d fsyncs (%.1f records/fsync)",
		rep.groupCommitRecords, rep.groupCommits, float64(rep.groupCommitRecords)/float64(max64(rep.groupCommits, 1)))
	if rep.resurrected {
		r.Note("sampled passivated flow resurrected after restart with all %d burst steps checkpoint-complete", rep.stepsPerFlow)
	}
	r.Row(fmt.Sprintf("codec replay ms (%d records)", rep.codecReplayRecords),
		fmt.Sprintf("%.1f", rep.codecJSONOpenMs), fmt.Sprintf("%.1f", rep.codecBinOpenMs))
	r.Note("binary segment codec: replay %.1fx faster than JSONL, %.0f%% of the bytes (%d -> %d)",
		rep.codecReplaySpeedup, 100*float64(rep.codecBinBytes)/float64(max64(rep.codecJSONBytes, 1)),
		rep.codecJSONBytes, rep.codecBinBytes)
	return r, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
