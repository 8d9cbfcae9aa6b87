package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func openTap(t *testing.T, opt Options) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestTapSequenceOrder: the tap sees every durable record exactly once,
// numbered contiguously from 1, in order — across concurrent appenders
// and group-committed batches.
func TestTapSequenceOrder(t *testing.T) {
	st := openTap(t, Options{})
	var mu sync.Mutex
	var seen []TapRecord
	st.SetTap(func(batch []TapRecord) func() {
		mu.Lock()
		seen = append(seen, batch...)
		mu.Unlock()
		return nil
	})
	const workers, per = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := st.AppendBatch([]Record{
					{Type: TypeExecSnap, ID: id},
					{Type: TypeExecEnd, ID: id},
				}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := workers * per * 2
	if len(seen) != want {
		t.Fatalf("tap saw %d records, want %d", len(seen), want)
	}
	for i, tr := range seen {
		if tr.Seq != uint64(i+1) {
			t.Fatalf("tap record %d has seq %d (out of order or gapped)", i, tr.Seq)
		}
	}
	if got := st.ReplSeq(); got != uint64(want) {
		t.Fatalf("ReplSeq = %d, want %d", got, want)
	}
}

// TestTapWaitBlocksAppend: an Append whose batch demands a wait must
// not return before the wait completes — that coupling is what makes a
// quorum-acked append a durability promise.
func TestTapWaitBlocksAppend(t *testing.T) {
	st := openTap(t, Options{})
	release := make(chan struct{})
	st.SetTap(func(batch []TapRecord) func() {
		return func() { <-release }
	})
	done := make(chan struct{})
	go func() {
		if err := st.Append(Record{Type: TypeExecSnap, ID: "x"}); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("append returned before the tap wait completed")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("append never returned after the wait released")
	}
}

// TestTapWaitsOverlap: with the two-phase tap, a second appender's
// hand-off proceeds while the first appender's wait is still pending —
// ack round trips overlap instead of queueing — and both appends
// complete once all waits release, in any order.
func TestTapWaitsOverlap(t *testing.T) {
	st := openTap(t, Options{})
	type waitReq struct {
		id      string
		release chan struct{}
	}
	handed := make(chan waitReq, 4)
	st.SetTap(func(batch []TapRecord) func() {
		req := waitReq{id: batch[0].Rec.ID, release: make(chan struct{})}
		handed <- req
		return func() { <-req.release }
	})
	appendDone := func(id string) chan struct{} {
		done := make(chan struct{})
		go func() {
			if err := st.Append(Record{Type: TypeExecSnap, ID: id}); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		return done
	}
	d1 := appendDone("a")
	w1 := <-handed
	// First wait is pending; the second appender must still get its
	// batch handed off (possibly group-committed with nothing else).
	d2 := appendDone("b")
	var w2 waitReq
	select {
	case w2 = <-handed:
	case <-time.After(5 * time.Second):
		t.Fatal("second hand-off blocked behind the first wait")
	}
	// Release in reverse order: the piggyback bookkeeping must not
	// deadlock on completion order.
	close(w2.release)
	close(w1.release)
	for _, d := range []chan struct{}{d1, d2} {
		select {
		case <-d:
		case <-time.After(5 * time.Second):
			t.Fatal("append never completed")
		}
	}
	if w1.id == w2.id {
		t.Fatalf("both hand-offs carried %q", w1.id)
	}
}

// TestTapDetach: a nil tap detaches cleanly and drops queued delivery.
func TestTapDetach(t *testing.T) {
	st := openTap(t, Options{})
	calls := 0
	st.SetTap(func(batch []TapRecord) func() {
		calls++
		return nil
	})
	if err := st.Append(Record{Type: TypeExecSnap, ID: "x"}); err != nil {
		t.Fatal(err)
	}
	st.SetTap(nil)
	if err := st.Append(Record{Type: TypeExecSnap, ID: "y"}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("tap called %d times, want 1 (detached before the second append)", calls)
	}
	// Sequence numbers keep advancing while detached: a re-attached tap
	// resumes at the durable cursor, it does not restart.
	if got := st.ReplSeq(); got != 2 {
		t.Fatalf("ReplSeq = %d, want 2", got)
	}
}

// TestSnapshotRecords: the catch-up payload is one merged exec.snap per
// live execution — ended flows excluded — current through the cursor.
func TestSnapshotRecords(t *testing.T) {
	st := openTap(t, Options{})
	for _, rec := range []Record{
		{Type: TypeExecSnap, ID: "live1", Request: "<r/>", Vars: map[string]string{"k": "v"}},
		{Type: TypeExecSnap, ID: "done1"},
		{Type: TypeExecEnd, ID: "done1"},
		{Type: TypeExecSnap, ID: "live2", Done: []string{"step1"}},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, seq := st.SnapshotRecords()
	if seq != 4 {
		t.Fatalf("snapshot seq = %d, want 4", seq)
	}
	var ids []string
	for _, r := range recs {
		if r.Type != TypeExecSnap {
			t.Fatalf("snapshot carries %s record", r.Type)
		}
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, []string{"live1", "live2"}) {
		t.Fatalf("snapshot ids: %v", ids)
	}
	if recs[0].Vars["k"] != "v" || recs[0].Request != "<r/>" {
		t.Fatalf("snapshot lost state: %+v", recs[0])
	}
	if !reflect.DeepEqual(recs[1].Done, []string{"step1"}) {
		t.Fatalf("snapshot lost done set: %+v", recs[1])
	}
}

// TestTapHandOffAllocs: the tap queue's two arrays take turns, so a
// commit hands its records to the tap without growing an array — a
// flow's second commit (four step.done and its exec.end: four array
// growths when the queue was dropped after each hand-off) costs the same
// allocations with a tap attached as without.
func TestTapHandOffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	recs := make([]Record, 5)
	for i := range recs {
		recs[i] = stepDone("own:dgf-000001", i)
	}
	recs[4] = Record{Type: TypeExecEnd, ID: "own:dgf-000001"}
	commits := func(tapped bool) float64 {
		s := mustOpen(t, t.TempDir(), Options{})
		defer s.Close()
		if tapped {
			s.SetTap(func([]TapRecord) func() { return nil })
		}
		return testing.AllocsPerRun(500, func() {
			if err := s.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, tapped := commits(false), commits(true)
	t.Logf("allocations per 5-record commit: %.2f without a tap, %.2f with one", bare, tapped)
	if tapped > bare {
		t.Errorf("handing a commit's records to the tap allocates %.2f times, want none", tapped-bare)
	}
}

// TestSnapshotRecordsOfParkedEntry: a follower catching up from a
// restarted store gets, for a parked flow, the records it would have got
// before the restart — although Open left the flow's snapshot undecoded
// and SnapshotRecords is what decodes it.
func TestSnapshotRecordsOfParkedEntry(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Now: func() time.Time { return time.Unix(7, 0) }}
	s := mustOpen(t, dir, opt)
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "parked", Request: "<r/>"},
		Record{Type: TypeStepDone, ID: "parked", Node: "/f/a"},
		Record{Type: TypeExecSnap, ID: "parked", Request: "<r/>", Vars: map[string]string{"k": "v", "e": ""}, Done: []string{"/f/a"}},
		Record{Type: TypeStepDone, ID: "parked", Node: "/f/b"},
		Record{Type: TypeExecPassivate, ID: "parked", Paused: true},
		Record{Type: TypeExecStart, ID: "running", Request: "<r/>"},
	)
	before, _ := s.SnapshotRecords()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, opt)
	if st := s.index["parked"]; st.snap == "" || st.vars != nil {
		t.Fatalf("Open decoded the parked entry's snapshot: %+v", *st)
	}
	after, _ := s.SnapshotRecords()
	s.Close()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("catch-up records after a restart\n%+v\nbefore it\n%+v", after, before)
	}
	if p := before[0]; p.ID != "parked" || !p.Passivated || !p.Paused || !reflect.DeepEqual(p.Done, []string{"/f/a", "/f/b"}) || p.Vars["k"] != "v" {
		t.Fatalf("parked entry's catch-up record %+v", p)
	}
}
