package matrix

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/replica"
	"datagridflow/internal/store"
)

// Crash at every prefix (docs/STORE.md, "Durability"). A run is recorded
// once; then, for every place the log could have stopped — each record
// boundary and a cut inside each record, on the owner's disk or in the
// frames a follower had been sent — what is left is recovered on a fresh
// engine with counting operations and held to the store's promise: the
// flow reaches exactly one exec.end, a step whose step.done survived
// does not run again, any other step runs at most once more.

const crashSteps = 4

// crashFlow is flow n of a recorded run. Each step's "i" parameter is
// its node path less the leading slash, so run counts key on the same
// string a step.done record's Node carries.
func crashFlow(n int) dgl.Flow {
	name := fmt.Sprintf("job-%d", n)
	fb := dgl.NewFlow(name)
	for s := 0; s < crashSteps; s++ {
		fb.Step(fmt.Sprintf("s%d", s), dgl.Op("work", map[string]string{"i": fmt.Sprintf("%s/s%d", name, s)}))
	}
	return fb.Flow()
}

// countingOp registers "work" on e, counting runs by the "i" parameter.
type countingOp struct {
	mu   sync.Mutex
	runs map[string]int
}

func registerCountingOp(e *Engine) *countingOp {
	c := &countingOp{runs: map[string]int{}}
	e.RegisterOp("work", func(oc *OpContext) error {
		c.mu.Lock()
		c.runs[oc.ParamOr("i", "")]++
		c.mu.Unlock()
		return nil
	})
	return c
}

// recordedRun is what one run of `flows` concurrent flows left behind.
type recordedRun struct {
	binary bool
	names  map[string]string // execution id → flow name
	log    []byte            // the owner's one segment
	recs   []store.Record    // its records, in order
	ends   []int             // ends[i]: offset just past recs[i] in log
	frames []replica.Frame   // what the replication tap was handed, in order
}

func recordRun(t *testing.T, binary bool, flows int) *recordedRun {
	t.Helper()
	run := &recordedRun{binary: binary, names: map[string]string{}}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Binary: binary})
	if err != nil {
		t.Fatal(err)
	}
	st.SetTap(func(batch []store.TapRecord) func() {
		recs := make([]store.Record, len(batch))
		for i := range batch {
			recs[i] = batch[i].Rec
		}
		block, err := replica.EncodeBlock(recs, binary)
		if err != nil {
			t.Error(err)
			return nil
		}
		run.frames = append(run.frames, replica.Frame{ // the tap is called in sequence order, one batch at a time
			Op: replica.OpAppend, Source: "peerA", Seq: batch[0].Seq, Count: len(recs), Block: block,
		})
		return nil
	})
	e := newTestEngine(t)
	registerCountingOp(e)
	e.SetStore(st)
	var execs []*Execution
	for n := 0; n < flows; n++ {
		ex := startFlow(t, e, crashFlow(n))
		run.names[ex.ID] = fmt.Sprintf("job-%d", n)
		execs = append(execs, ex)
	}
	for _, ex := range execs {
		if err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	run.log, run.recs, run.ends = readSegments(t, dir)
	if want := flows * (crashSteps + 2); len(run.recs) != want {
		t.Fatalf("recorded %d records, want %d", len(run.recs), want)
	}
	sent := 0
	for _, f := range run.frames {
		sent += f.Count
	}
	if sent != len(run.recs) {
		t.Fatalf("the tap was handed %d records, the log holds %d", sent, len(run.recs))
	}
	return run
}

// readSegments returns the concatenated segments of a closed store
// directory (one encoding throughout), its records and where each ends.
func readSegments(t *testing.T, dir string) (log []byte, recs []store.Record, ends []int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, data...)
	}
	if recs, err = replica.DecodeBlock(log); err != nil {
		t.Fatal(err)
	}
	if len(log) > 0 && log[0] == codec.Magic {
		for off := 0; ; {
			f, err := codec.NextFrame(log, off)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			off = f.End
			ends = append(ends, off)
		}
	} else {
		for off := 0; off < len(log); {
			off += bytes.IndexByte(log[off:], '\n') + 1
			ends = append(ends, off)
		}
	}
	if len(ends) != len(recs) {
		t.Fatalf("%d record boundaries for %d records", len(ends), len(recs))
	}
	return log, recs, ends
}

// survived is what a prefix of the record stream proves.
type survived struct {
	started, ended map[string]bool
	done           map[string]bool // id + node path
}

func foldSurvived(recs []store.Record) survived {
	s := survived{started: map[string]bool{}, ended: map[string]bool{}, done: map[string]bool{}}
	for _, r := range recs {
		switch r.Type {
		case store.TypeExecStart:
			s.started[r.ID] = true
		case store.TypeStepDone:
			s.done[r.ID+r.Node] = true
		case store.TypeExecEnd:
			s.ended[r.ID] = true
		}
	}
	return s
}

// checkRecovery holds one recovery to the promise. after is every
// record in the recovering engine's store once its flows have finished:
// a flow the prefix left unfinished has exactly one exec.end there, one
// it never started has none, and one it finished has the one the prefix
// held when the store began as a copy of it (endInPrefix) and none when
// it began empty, as an heir's does.
func (run *recordedRun) checkRecovery(t *testing.T, label string, had survived, ops *countingOp, after []store.Record, endInPrefix bool) {
	t.Helper()
	ends := map[string]int{}
	for _, r := range after {
		if r.Type == store.TypeExecEnd {
			ends[r.ID]++
		}
	}
	ops.mu.Lock()
	defer ops.mu.Unlock()
	for id, name := range run.names {
		live := had.started[id] && !had.ended[id]
		wantEnds := 0
		if live || (endInPrefix && had.ended[id]) {
			wantEnds = 1
		}
		if ends[id] != wantEnds {
			t.Errorf("%s: %s (%s) has %d exec.end records after recovery, want %d", label, id, name, ends[id], wantEnds)
		}
		for s := 0; s < crashSteps; s++ {
			step := fmt.Sprintf("%s/s%d", name, s)
			got := ops.runs[step]
			switch {
			case !live || had.done[id+"/"+step]:
				if got != 0 {
					t.Errorf("%s: step %s ran %d more time(s); its flow was live: %v, its step.done survived: %v",
						label, step, got, live, had.done[id+"/"+step])
				}
			case got != 1:
				// At most once more is the promise; exactly once is what a
				// flow that then finished must have done with a step nothing
				// proved complete.
				t.Errorf("%s: step %s ran %d more times, want 1", label, step, got)
			}
		}
	}
}

// recoverPrefix restarts from the first n bytes of the owner's log.
func (run *recordedRun) recoverPrefix(t *testing.T, n, intact int) {
	t.Helper()
	label := fmt.Sprintf("binary=%v cut at byte %d (%d records intact)", run.binary, n, intact)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), run.log[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Binary: run.binary})
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	e := newTestEngine(t)
	ops := registerCountingOp(e)
	e.SetStore(st)
	resumed, err := e.RecoverFromStore()
	if err != nil {
		t.Fatalf("%s: RecoverFromStore: %v", label, err)
	}
	for _, ex := range resumed {
		if err := ex.Wait(); err != nil {
			t.Errorf("%s: recovered %s: %v", label, ex.ID, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, after, _ := readSegments(t, dir)
	run.checkRecovery(t, label, foldSurvived(run.recs[:intact]), ops, after, true)
}

// promoteAfter takes over from a follower that had been delivered the
// first k frames when the owner died.
func (run *recordedRun) promoteAfter(t *testing.T, k int) {
	t.Helper()
	label := fmt.Sprintf("binary=%v promoted after frame %d of %d", run.binary, k, len(run.frames))
	recv, err := replica.NewReceiver(replica.ReceiverConfig{Dir: t.TempDir(), Binary: run.binary})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	delivered := 0
	for _, f := range run.frames[:k] {
		if ack := recv.Apply(f); !ack.OK {
			t.Fatalf("%s: follower refused frame seq %d: %+v", label, f.Seq, ack)
		}
		delivered += f.Count
	}
	entries, err := recv.Promote("peerA")
	if err != nil {
		t.Fatalf("%s: Promote: %v", label, err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Binary: run.binary})
	if err != nil {
		t.Fatal(err)
	}
	heir := newTestEngine(t)
	ops := registerCountingOp(heir)
	heir.SetStore(st)
	for _, a := range heir.AdoptEntries(entries, "peerA") {
		ex, ok := heir.Execution(a.ID)
		if !ok || !a.Resumed {
			t.Fatalf("%s: adopted %+v is not resident", label, a)
		}
		if err := ex.Wait(); err != nil {
			t.Errorf("%s: adopted %s: %v", label, a.ID, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, after, _ := readSegments(t, dir)
	run.checkRecovery(t, label, foldSurvived(run.recs[:delivered]), ops, after, false)
}

func TestCrashAtEveryPrefix(t *testing.T) {
	for _, flows := range []int{1, 8} {
		for _, binary := range []bool{true, false} {
			t.Run(fmt.Sprintf("flows=%d/binary=%v", flows, binary), func(t *testing.T) {
				run := recordRun(t, binary, flows)
				// A flow's step.done records are in the log ahead of its
				// exec.end, whatever the syncs did: they were written first.
				if had := foldSurvived(run.recs); len(had.done) != flows*crashSteps || len(had.ended) != flows {
					t.Fatalf("the full log proves %d steps done and %d flows ended", len(had.done), len(had.ended))
				}
				run.recoverPrefix(t, 0, 0)
				start := 0
				for i, end := range run.ends {
					run.recoverPrefix(t, (start+end)/2, i) // torn inside record i
					run.recoverPrefix(t, end, i+1)
					start = end
				}
				for k := 1; k <= len(run.frames); k++ {
					run.promoteAfter(t, k)
				}
			})
		}
	}
}

// TestPruneBatchTornAnywhere cuts the log inside and between the
// tombstones Engine.Prune appends as one batch: whatever part of the
// batch survives, no pruned flow comes back. A flow whose tombstone was
// lost is still ended — its exec.end is ahead of the batch in the log —
// so it is neither recovered nor resurrectable, only not yet reclaimed.
func TestPruneBatchTornAnywhere(t *testing.T) {
	for _, binary := range []bool{true, false} {
		const flows = 5
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{Binary: binary})
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t)
		registerCountingOp(e)
		e.SetStore(st)
		var ids []string
		for n := 0; n < flows; n++ {
			ids = append(ids, mustRun(t, e, crashFlow(n)).ID)
		}
		if got := e.Prune(0); got != flows {
			t.Fatalf("pruned %d flows, want %d", got, flows)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		log, recs, ends := readSegments(t, dir)
		first := len(recs) - flows
		for i, r := range recs[first:] {
			if r.Type != store.TypeExecPrune {
				t.Fatalf("binary=%v: record %d of the log's tail is %s, want the tombstones last and together", binary, i, r.Type)
			}
		}
		cuts := []int{ends[first-1]}
		for i := first; i < len(recs); i++ {
			cuts = append(cuts, (ends[i-1]+ends[i])/2, ends[i])
		}
		for _, cut := range cuts {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), log[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(dir, store.Options{Binary: binary})
			if err != nil {
				t.Fatalf("binary=%v cut at %d: Open: %v", binary, cut, err)
			}
			e := newTestEngine(t)
			ops := registerCountingOp(e)
			e.SetStore(st)
			resumed, err := e.RecoverFromStore()
			if err != nil || len(resumed) != 0 {
				t.Errorf("binary=%v cut at %d: recovery resumed %d flows (%v), want none", binary, cut, len(resumed), err)
			}
			for _, id := range ids {
				if _, err := e.ResurrectFor(id, "status"); err == nil {
					t.Errorf("binary=%v cut at %d: pruned flow %s resurrected", binary, cut, id)
				}
				if st.Has(id) {
					t.Errorf("binary=%v cut at %d: the index holds pruned flow %s as live", binary, cut, id)
				}
			}
			if len(ops.runs) != 0 {
				t.Errorf("binary=%v cut at %d: steps ran again: %v", binary, cut, ops.runs)
			}
			st.Close()
		}
	}
}
