package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// tapFuncs is a Tap made of two functions; a nil one does nothing.
type tapFuncs struct {
	replicate func([]TapRecord)
	await     func(seq uint64)
}

func (f tapFuncs) Replicate(batch []TapRecord) {
	if f.replicate != nil {
		f.replicate(batch)
	}
}

func (f tapFuncs) Await(seq uint64) {
	if f.await != nil {
		f.await(seq)
	}
}

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
	st.SetTap(tapFuncs{replicate: func(batch []TapRecord) {
		mu.Lock()
		seen = append(seen, batch...)
		mu.Unlock()
	}})
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

// TestTapWaitBlocksAppend: an Append of a quorum commit point must not
// return before the tap's Await does — that coupling is what makes a
// quorum-acked append a durability promise.
func TestTapWaitBlocksAppend(t *testing.T) {
	st := openTap(t, Options{})
	release := make(chan struct{})
	st.SetTap(tapFuncs{await: func(uint64) { <-release }})
	done := make(chan struct{})
	go func() {
		if err := st.Append(Record{Type: TypeExecEnd, ID: "x"}); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("append returned before the tap's Await did")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("append never returned after the wait released")
	}
}

// TestTapWaitsOverlap: a second appender's hand-off proceeds while the
// first appender's Await is still pending — ack round trips overlap
// instead of queueing — and both appends complete once all waits
// release, in any order.
func TestTapWaitsOverlap(t *testing.T) {
	st := openTap(t, Options{})
	type waitReq struct {
		seq     uint64
		release chan struct{}
	}
	handed := make(chan string, 4)
	waiting := make(chan waitReq, 4)
	st.SetTap(tapFuncs{
		replicate: func(batch []TapRecord) { handed <- batch[0].Rec.ID },
		await: func(seq uint64) {
			req := waitReq{seq: seq, release: make(chan struct{})}
			waiting <- req
			<-req.release
		},
	})
	appendDone := func(id string) chan struct{} {
		done := make(chan struct{})
		go func() {
			if err := st.Append(Record{Type: TypeExecEnd, ID: id}); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		return done
	}
	d1 := appendDone("a")
	if id := <-handed; id != "a" {
		t.Fatalf("first hand-off carried %q", id)
	}
	w1 := <-waiting
	// First wait is pending; the second appender must still get its
	// batch handed off.
	d2 := appendDone("b")
	var w2 waitReq
	select {
	case id := <-handed:
		if id != "b" {
			t.Fatalf("second hand-off carried %q", id)
		}
		w2 = <-waiting
	case <-time.After(5 * time.Second):
		t.Fatal("second hand-off blocked behind the first wait")
	}
	// Release in reverse order: completion order must not matter.
	close(w2.release)
	close(w1.release)
	for _, d := range []chan struct{}{d1, d2} {
		select {
		case <-d:
		case <-time.After(5 * time.Second):
			t.Fatal("append never completed")
		}
	}
	if w1.seq != 1 || w2.seq != 2 {
		t.Fatalf("the appends awaited seqs %d and %d, want 1 and 2", w1.seq, w2.seq)
	}
}

// TestQuorumCommitPointGate: the store calls Await only for a writer
// whose own records include a quorum commit point (Waits), and for the
// sequence its sync reached — which covers the records streamed before
// it, because acks are cumulative.
func TestQuorumCommitPointGate(t *testing.T) {
	st := openTap(t, Options{})
	var mu sync.Mutex
	var awaited []uint64
	st.SetTap(tapFuncs{await: func(seq uint64) {
		mu.Lock()
		awaited = append(awaited, seq)
		mu.Unlock()
	}})
	check := func(what string, want ...uint64) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(awaited, want) {
			t.Fatalf("after %s the store awaited %v, want %v", what, awaited, want)
		}
	}
	appendAll(t, st, Record{Type: TypeExecStart, ID: "x", Request: "<r/>"})
	check("an exec.start Append")
	tk, err := st.Write(stepDone("x", 1))
	if err == nil {
		err = st.Wait(tk)
	}
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, Record{Type: TypeExecSnap, ID: "x"})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	check("a step.done, an exec.snap and a Flush")
	appendAll(t, st, Record{Type: TypeExecPassivate, ID: "x"})
	check("an exec.passivate Append", 4)
	if tk, err = st.Write(Record{Type: TypeExecEnd, ID: "x"}); err == nil {
		err = st.Wait(tk)
	}
	if err != nil {
		t.Fatal(err)
	}
	check("a Wait on an exec.end ticket", 4, 5)
	if err := st.AppendBatch([]Record{{Type: TypeExecStart, ID: "y", Request: "<r/>"}, {Type: TypeExecEnd, ID: "y"}}); err != nil {
		t.Fatal(err)
	}
	check("a batch ending in exec.end", 4, 5, 7)
}

// TestTapDetach: a nil tap detaches cleanly and drops queued delivery.
func TestTapDetach(t *testing.T) {
	st := openTap(t, Options{})
	calls := 0
	st.SetTap(tapFuncs{replicate: func([]TapRecord) { calls++ }})
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
			s.SetTap(tapFuncs{})
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

// TestNonQuorumCommitSitsOutNoAck: only a writer whose own records wait
// for the quorum (Waits) sits out a follower's ack. While one flow's
// exec.end holds its ack open, another flow's snapshot Append and the
// Wait on an exec.start's ticket — the one every synchronous submit
// makes before its first step — return.
func TestNonQuorumCommitSitsOutNoAck(t *testing.T) {
	st := openTap(t, Options{})
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	st.SetTap(tapFuncs{await: func(uint64) {
		once.Do(func() { close(held) })
		<-release
	}})
	ended := make(chan error, 1)
	go func() { ended <- st.Append(Record{Type: TypeExecEnd, ID: "a"}) }()
	<-held
	returns := func(what string, call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s sat out another flow's quorum ack", what)
		}
	}
	returns("an exec.snap Append", func() error {
		return st.Append(Record{Type: TypeExecSnap, ID: "b"})
	})
	returns("a Wait on an exec.start ticket", func() error {
		tk, err := st.Write(Record{Type: TypeExecStart, ID: "c", Request: "<r/>"})
		if err != nil {
			return err
		}
		return st.Wait(tk)
	})
	close(release)
	if err := <-ended; err != nil {
		t.Fatal(err)
	}
}
