package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/obs"
)

// tapLog records what the replication tap was handed, batch by batch.
type tapLog struct {
	mu      sync.Mutex
	batches [][]TapRecord
}

func (l *tapLog) tap(batch []TapRecord) func() {
	l.mu.Lock()
	l.batches = append(l.batches, append([]TapRecord(nil), batch...))
	l.mu.Unlock()
	return nil
}

func (l *tapLog) snapshot() [][]TapRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]TapRecord(nil), l.batches...)
}

func stepDone(id string, n int) Record {
	return Record{Type: TypeStepDone, ID: id, Node: fmt.Sprintf("/f/s%d", n)}
}

// lingerRun is one attempt of insideLinger: a fresh tapped binary store
// and the moment its first non-waited write armed the linger.
type lingerRun struct {
	t     *testing.T
	s     *Store
	reg   *obs.Registry
	taps  *tapLog
	armed time.Time
}

func (r *lingerRun) write(rec Record) {
	r.t.Helper()
	if r.armed.IsZero() {
		r.armed = time.Now()
	}
	if _, err := r.s.Write(rec); err != nil {
		r.t.Fatal(err)
	}
}

// insideLinger runs attempt on fresh stores until one run finishes
// within Linger of its first non-waited write. The timer is armed by
// that write and fires no sooner than Linger after it, so in such a run
// no background sync happened and commit counts are exact; attempt
// returns the assertions to make once that is known. A disk whose fsync
// alone outlasts the linger cannot show what these tests count.
func insideLinger(t *testing.T, attempt func(r *lingerRun) (check func())) {
	t.Helper()
	for try := 0; try < 50; try++ {
		r := &lingerRun{t: t, reg: obs.NewRegistry(), taps: &tapLog{}}
		r.s = mustOpen(t, t.TempDir(), Options{Obs: r.reg})
		r.s.SetTap(r.taps.tap)
		check := attempt(r)
		clean := r.armed.IsZero() || time.Since(r.armed) < Linger
		if clean {
			check()
		}
		r.s.Close()
		if clean {
			return
		}
	}
	t.Skipf("no attempt in 50 finished inside the %v linger: this disk is too slow to count commits on", Linger)
}

func commits(reg *obs.Registry) int64 {
	return reg.Counter("journal_group_commits_total").Value()
}

// TestWriteRidesNextCommit: records written without waiting stay out of
// the index, the sequence and the tap until a sync covers them, and then
// leave in the same fsync and the same tap batch as the record that
// waited — and the linger's firing afterwards finds nothing to do.
func TestWriteRidesNextCommit(t *testing.T) {
	insideLinger(t, func(r *lingerRun) func() {
		s, reg, taps := r.s, r.reg, r.taps
		appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
		for n := 0; n < 4; n++ {
			r.write(stepDone("a", n))
		}
		mid, _ := s.Entry("a")
		midStats, midSeq, midTaps := s.Stats(), s.ReplSeq(), len(taps.snapshot())
		midGauge := reg.Gauge("store_pending_records").Value()
		appendAll(t, s, Record{Type: TypeExecEnd, ID: "a"})
		return func() {
			if len(mid.Done) != 0 || midStats.Pending != 4 || midStats.Records != 1 || midSeq != 1 || midTaps != 1 || midGauge != 4 {
				t.Errorf("before the commit: done %v, stats %+v, seq %d, %d tap batches, gauge %d; want nothing of the four writes but Pending 4",
					mid.Done, midStats, midSeq, midTaps, midGauge)
			}
			if got := commits(reg); got != 2 {
				t.Errorf("%d group commits for start, 4×step.done, end; want 2", got)
			}
			batches := taps.snapshot()
			if len(batches) != 2 || len(batches[1]) != 5 {
				t.Fatalf("tap batches %v; want the start, then the four steps with the end", batches)
			}
			for i, tr := range batches[1] {
				wantType := TypeStepDone
				if i == 4 {
					wantType = TypeExecEnd
				}
				if tr.Seq != uint64(i+2) || tr.Rec.Type != wantType {
					t.Errorf("tap record %d: seq %d type %s; want seq %d type %s", i, tr.Seq, tr.Rec.Type, i+2, wantType)
				}
			}
			if st := s.Stats(); st.Pending != 0 || st.Records != 6 || reg.Gauge("store_pending_records").Value() != 0 {
				t.Errorf("after the commit: %+v", st)
			}
			time.Sleep(3 * Linger)
			if got := commits(reg); got != 2 {
				t.Errorf("the linger synced again after a waited commit had covered its records: %d commits", got)
			}
		}
	})
}

// TestLingerSyncsIdleWrite: with no other traffic at all, a non-waited
// write is durable, indexed and on the tap within the linger's bound.
func TestLingerSyncsIdleWrite(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustOpen(t, t.TempDir(), Options{Obs: reg})
	defer s.Close()
	taps := &tapLog{}
	s.SetTap(taps.tap)
	appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
	if _, err := s.Write(stepDone("a", 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * Linger)
	for {
		ent, _ := s.Entry("a")
		if len(ent.Done) == 1 && len(taps.snapshot()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("10×linger after an idle write: done %v, %d tap batches, stats %+v", ent.Done, len(taps.snapshot()), s.Stats())
		}
		time.Sleep(Linger / 5)
	}
	if got := commits(reg); got != 2 {
		t.Errorf("%d group commits; want the start's and the linger's", got)
	}
}

// TestFlushIsABarrier: Flush returns with everything written before it
// durable, indexed and handed to the tap; on an idle store it is free.
func TestFlushIsABarrier(t *testing.T) {
	insideLinger(t, func(r *lingerRun) func() {
		s, reg, taps := r.s, r.reg, r.taps
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
		for n := 0; n < 3; n++ {
			r.write(stepDone("a", n))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		ent, _ := s.Entry("a")
		st, batches := s.Stats(), taps.snapshot()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return func() {
			if len(ent.Done) != 3 || st.Pending != 0 || len(batches) != 2 || len(batches[1]) != 3 {
				t.Errorf("after Flush: done %v, stats %+v, tap batches %v", ent.Done, st, batches)
			}
			if got := commits(reg); got != 2 {
				t.Errorf("%d group commits; want 2 (Flush with nothing pending must not sync)", got)
			}
		}
	})
}

// TestBackgroundSyncFailurePoisons: when the sync nobody waits on fails,
// the store is poisoned exactly as by a failed Append — the unsynced
// records never reach the index or the tap, Stats says how many were
// thrown away, and the next Append returns the sticky error.
func TestBackgroundSyncFailurePoisons(t *testing.T) {
	for try := 0; ; try++ {
		if try == 50 {
			t.Skipf("no attempt in 50 broke the file inside the %v linger", Linger)
		}
		reg := obs.NewRegistry()
		s := mustOpen(t, t.TempDir(), Options{Obs: reg})
		taps := &tapLog{}
		s.SetTap(taps.tap)
		appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
		start := time.Now()
		if _, err := s.Write(stepDone("a", 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(stepDone("a", 1)); err != nil {
			t.Fatal(err)
		}
		// The disk goes away under the segment: writes landed, the fsync
		// the linger is about to run will not.
		s.active.mu.Lock()
		s.active.f.Close()
		s.active.mu.Unlock()
		if time.Since(start) >= Linger {
			s.Close()
			continue // the linger may have synced first; try again
		}
		deadline := time.Now().Add(2 * time.Second)
		for s.Stats().Failed == "" {
			if time.Now().After(deadline) {
				t.Fatal("a failed background sync did not poison the store")
			}
			time.Sleep(Linger / 5)
		}
		st := s.Stats()
		if !strings.Contains(st.Failed, "2 pending record(s) discarded") || st.Pending != 0 || st.Records != 1 {
			t.Errorf("poisoned stats = %+v", st)
		}
		if reg.Gauge("store_failed").Value() != 1 || reg.Gauge("store_pending_records").Value() != 0 {
			t.Errorf("gauges: failed %d pending %d", reg.Gauge("store_failed").Value(), reg.Gauge("store_pending_records").Value())
		}
		if ent, _ := s.Entry("a"); len(ent.Done) != 0 {
			t.Errorf("index took records whose sync failed: %v", ent.Done)
		}
		if n := len(taps.snapshot()); n != 1 {
			t.Errorf("tap saw %d batches; the unsynced records must not replicate", n)
		}
		err := s.Append(Record{Type: TypeExecEnd, ID: "a"})
		if err == nil || !strings.Contains(st.Failed, err.Error()) {
			t.Errorf("Append on the poisoned store = %v; want the sticky error in %q", err, st.Failed)
		}
		if _, err := s.Write(stepDone("a", 2)); err == nil {
			t.Error("Write on the poisoned store succeeded")
		}
		if err := s.Flush(); err == nil {
			t.Error("Flush on the poisoned store reported success")
		}
		s.Close()
		return
	}
}

// TestFailedWriteAtSyncPoisons: the write a sync makes can fail where
// its fsync would not — here the segment's handle stops taking writes
// between the Write and the Flush — and it poisons the store exactly as
// a failed fsync does (TestBackgroundSyncFailurePoisons): the unsynced
// records never reach the index or the tap, Stats says how many were
// thrown away, and every later call returns the sticky error.
func TestFailedWriteAtSyncPoisons(t *testing.T) {
	for try := 0; ; try++ {
		if try == 50 {
			t.Skipf("no attempt in 50 broke the file inside the %v linger", Linger)
		}
		reg := obs.NewRegistry()
		s := mustOpen(t, t.TempDir(), Options{Obs: reg})
		taps := &tapLog{}
		s.SetTap(taps.tap)
		appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
		start := time.Now()
		for n := 0; n < 2; n++ {
			if _, err := s.Write(stepDone("a", n)); err != nil {
				t.Fatalf("Write made a syscall and failed: %v", err)
			}
		}
		g := s.active
		ro, err := os.Open(g.path)
		if err != nil {
			t.Fatal(err)
		}
		g.mu.Lock()
		g.f.Close()
		g.f = ro // an fsync of it succeeds; a write does not
		g.mu.Unlock()
		if time.Since(start) >= Linger {
			s.Close()
			continue // the linger may have synced first; try again
		}
		if err := s.Flush(); err == nil {
			t.Fatal("Flush over a segment that takes no writes reported success")
		}
		st := s.Stats()
		if !strings.Contains(st.Failed, "2 pending record(s) discarded") || st.Pending != 0 || st.Records != 1 {
			t.Errorf("poisoned stats = %+v", st)
		}
		if reg.Gauge("store_failed").Value() != 1 || reg.Gauge("store_pending_records").Value() != 0 {
			t.Errorf("gauges: failed %d pending %d", reg.Gauge("store_failed").Value(), reg.Gauge("store_pending_records").Value())
		}
		if ent, _ := s.Entry("a"); len(ent.Done) != 0 {
			t.Errorf("index took records whose write failed: %v", ent.Done)
		}
		if n := len(taps.snapshot()); n != 1 {
			t.Errorf("tap saw %d batches; the unwritten records must not replicate", n)
		}
		err = s.Append(Record{Type: TypeExecEnd, ID: "a"})
		if err == nil || !strings.Contains(st.Failed, err.Error()) {
			t.Errorf("Append on the poisoned store = %v; want the sticky error in %q", err, st.Failed)
		}
		if _, err := s.Write(stepDone("a", 2)); err == nil {
			t.Error("Write on the poisoned store succeeded")
		}
		if err := s.Flush(); err == nil {
			t.Error("Flush on the poisoned store reported success")
		}
		s.Close()
		return
	}
}

// TestWriteReachesFileWithItsCommit: a record written without waiting is
// in no file until a sync carries it — the next Append's, Flush's or
// the linger's — and it reaches the segment in that sync's write,
// together with the record that waited.
func TestWriteReachesFileWithItsCommit(t *testing.T) {
	size := func(s *Store) int64 {
		t.Helper()
		fi, err := os.Stat(s.active.path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	frame := func(rec Record) int64 { return int64(len(frameBlock(rec))) }
	start, step0, step1 := Record{Type: TypeExecStart, ID: "a", Request: "<r/>"}, stepDone("a", 0), stepDone("a", 1)
	other := Record{Type: TypeExecStart, ID: "b", Request: "<r/>"}
	insideLinger(t, func(r *lingerRun) func() {
		s := r.s
		appendAll(t, s, start)
		base := size(s)
		r.write(step0)
		afterWrite := size(s)
		appendAll(t, s, other)
		afterAppend := size(s)
		r.write(step1)
		afterSecond := size(s)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		afterFlush := size(s)
		return func() {
			if afterWrite != base || afterSecond != afterAppend {
				t.Errorf("a Write changed the segment's size: %d → %d, %d → %d", base, afterWrite, afterAppend, afterSecond)
			}
			if want := base + frame(step0) + frame(other); afterAppend != want {
				t.Errorf("after the next Append the segment holds %d bytes, want %d", afterAppend, want)
			}
			if want := afterSecond + frame(step1); afterFlush != want {
				t.Errorf("after Flush the segment holds %d bytes, want %d", afterFlush, want)
			}
		}
	})
	insideLinger(t, func(r *lingerRun) func() {
		s := r.s
		appendAll(t, s, start)
		base := size(s)
		r.write(step0)
		afterWrite := size(s)
		return func() {
			if afterWrite != base {
				t.Errorf("a Write changed the segment's size: %d → %d", base, afterWrite)
			}
			deadline := time.Now().Add(10 * Linger)
			for size(s) != base+frame(step0) {
				if time.Now().After(deadline) {
					t.Fatalf("10×linger after an idle write the segment holds %d bytes, want %d", size(s), base+frame(step0))
				}
				time.Sleep(Linger / 5)
			}
		}
	})
}

// TestWaitAllocs: waiting on the ticket of a Write — for its fsync, as
// an async submit's acknowledgement does before it is sent, and then as
// its run does before the first step — allocates nothing: no goroutine
// and no channel per wait.
func TestWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	s.SetTap(func([]TapRecord) func() { return nil })
	appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
	rec := Record{Type: TypeExecStart, ID: "b", Request: "<r/>"}
	allocs := testing.AllocsPerRun(200, func() {
		ticket, err := s.Write(rec)
		if err == nil {
			err = ticket.Sync()
		}
		if err == nil {
			err = s.Wait(ticket)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a Write and the waits on its ticket allocate %.2f times, want 0", allocs)
	}
}

// TestWriteConcurrentWithAppends: writers that never wait beside
// appenders that do, across rotations — every record reaches the index
// and the tap exactly once, in sequence, and survives a reopen.
func TestWriteConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 2048})
	taps := &tapLog{}
	s.SetTap(taps.tap)
	const flows, steps = 8, 12
	var wg sync.WaitGroup
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			id := fmt.Sprintf("dgf-%06d", f)
			if err := s.Append(Record{Type: TypeExecStart, ID: id, Request: "<r/>"}); err != nil {
				t.Error(err)
			}
			for n := 0; n < steps; n++ {
				if _, err := s.Write(stepDone(id, n)); err != nil {
					t.Error(err)
				}
			}
			if f%2 == 0 {
				if err := s.Append(Record{Type: TypeExecSnap, ID: id, Request: "<r/>", Done: []string{"/f/s0"}}); err != nil {
					t.Error(err)
				}
				if _, err := s.Write(stepDone(id, steps)); err != nil {
					t.Error(err)
				}
			}
		}(f)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := imageOf(s)
	seq := uint64(0)
	for _, b := range taps.snapshot() {
		for _, tr := range b {
			if seq++; tr.Seq != seq {
				t.Fatalf("tap record has seq %d, want %d", tr.Seq, seq)
			}
		}
	}
	if total := uint64(flows*(1+steps) + flows/2*2); seq != total || s.ReplSeq() != total {
		t.Errorf("tap saw %d records, ReplSeq %d, want %d", seq, s.ReplSeq(), total)
	}
	if st := s.Stats(); st.Segments < 2 || st.Pending != 0 {
		t.Errorf("stats %+v; want several segments, nothing pending", st)
	}
	for f := 0; f < flows; f++ {
		ent, _ := s.Entry(fmt.Sprintf("dgf-%06d", f))
		wantDone := steps
		if f%2 == 0 {
			wantDone = 2 // the snapshot's /f/s0 and the step after it
		}
		if len(ent.Done) != wantDone {
			t.Errorf("flow %d: %d steps done, want %d", f, len(ent.Done), wantDone)
		}
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := imageOf(r); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened index differs\nwritten:  %+v\nreopened: %+v", want, got)
	}
}

// TestWriteAllocs: the non-waited path exists to be cheap — no sync, no
// tap hand-off, no timer per write (one reusable timer per segment).
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	appendAll(t, s, Record{Type: TypeExecStart, ID: "a", Request: "<r/>"})
	rec := stepDone("a", 0)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := s.Write(rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocations per non-waited write (linger syncs and drains included)", allocs)
	if allocs > 2 {
		t.Errorf("Store.Write allocates %.2f times per record, budget 2", allocs)
	}
}

// TestDurabilityTableMatchesWaits holds docs/STORE.md's record-type ×
// wait table to the one function that decides.
func TestDurabilityTableMatchesWaits(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "STORE.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z.]+)` \\| (yes|no) \\| (yes|no) \\|")
	_, section, ok := strings.Cut(string(doc), "\n## Durability\n")
	if !ok {
		t.Fatal("docs/STORE.md has no Durability section")
	}
	documented := map[string][2]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = [2]bool{m[2] == "yes", m[3] == "yes"}
	}
	if len(documented) != len(recordTypes) {
		t.Errorf("the table has %d rows, there are %d record types", len(documented), len(recordTypes))
	}
	for _, typ := range recordTypes {
		fsync, quorum := Waits(typ)
		if got, ok := documented[typ]; !ok || got != [2]bool{fsync, quorum} {
			t.Errorf("%s: documented %v (found %v), Waits says fsync %v quorum %v", typ, got, ok, fsync, quorum)
		}
	}
}
