package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/fault"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
)

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func appendAll(t *testing.T, s *Store, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %s %s: %v", rec.Type, rec.ID, err)
		}
	}
}

// lifecycle returns the record stream of a small finished flow.
func lifecycle(id string) []Record {
	return []Record{
		{Type: TypeExecStart, ID: id, Request: "<dataGridRequest/>"},
		{Type: TypeStepDone, ID: id, Node: "/f/a"},
		{Type: TypeStepDone, ID: id, Node: "/f/b"},
		{Type: TypeExecEnd, ID: id},
	}
}

func TestStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "dgf-000001", Request: "<r1/>"},
		Record{Type: TypeStepDone, ID: "dgf-000001", Node: "/f/a"},
		Record{Type: TypeDelegDone, ID: "dgf-000001", Node: "/f/par", Peer: "peerB"},
	)
	appendAll(t, s, lifecycle("dgf-000002")...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	st := s.Stats()
	if st.ReplayRecords != 7 || st.Records != 7 {
		t.Fatalf("stats = %+v, want 7 replayed", st)
	}
	ent, ok := s.Entry("dgf-000001")
	if !ok {
		t.Fatal("dgf-000001 missing")
	}
	if ent.Request != "<r1/>" || len(ent.Done) != 2 || ent.Done[0] != "/f/a" || ent.Done[1] != "/f/par" {
		t.Fatalf("entry = %+v", ent)
	}
	if ent.Ended || ent.Passivated {
		t.Fatalf("entry flags = %+v", ent)
	}
	ent2, _ := s.Entry("dgf-000002")
	if !ent2.Ended {
		t.Fatalf("dgf-000002 not ended: %+v", ent2)
	}
	live := s.Live()
	if len(live) != 1 || live[0].ID != "dgf-000001" {
		t.Fatalf("live = %+v", live)
	}
	if ids := s.IDs(); len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestStoreSnapshotSupersedes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "x", Request: "<old/>"},
		Record{Type: TypeStepDone, ID: "x", Node: "/f/a"},
		Record{Type: TypeExecSnap, ID: "x", Request: "<new/>",
			Vars: map[string]string{"v": "1"}, Done: []string{"/f/a", "/f/b"}, Paused: true},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	ent, _ := s.Entry("x")
	if ent.Request != "<new/>" || ent.Vars["v"] != "1" || !ent.Paused {
		t.Fatalf("entry = %+v", ent)
	}
	if len(ent.Done) != 2 {
		t.Fatalf("done = %v", ent.Done)
	}
	if s.Stats().SnapshotLag != 0 {
		t.Fatalf("snapshot lag = %d after snap", s.Stats().SnapshotLag)
	}
}

func TestStoreRotation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 256})
	for i := 0; i < 20; i++ {
		appendAll(t, s, Record{Type: TypeExecStart, ID: fmt.Sprintf("dgf-%06d", i),
			Request: "<dataGridRequest padding='xxxxxxxxxxxxxxxx'/>"})
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("segments = %d, want rotation", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(files) != st.Segments {
		t.Fatalf("on-disk segments = %d, stats say %d", len(files), st.Segments)
	}
	s = mustOpen(t, dir, Options{SegmentMaxBytes: 256})
	defer s.Close()
	if got := s.Stats().ReplayRecords; got != 20 {
		t.Fatalf("replayed = %d, want 20", got)
	}
	if len(s.Live()) != 20 {
		t.Fatalf("live = %d", len(s.Live()))
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 512, Obs: reg,
		Now: func() time.Time { return now }})
	// Three finished flows, one live flow with history, one passivated.
	for i := 0; i < 3; i++ {
		appendAll(t, s, lifecycle(fmt.Sprintf("done-%d", i))...)
	}
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "live", Request: "<live/>"},
		Record{Type: TypeStepDone, ID: "live", Node: "/f/a"},
		Record{Type: TypeExecStart, ID: "idle", Request: "<idle/>"},
		Record{Type: TypeStepDone, ID: "idle", Node: "/f/a"},
		Record{Type: TypeExecSnap, ID: "idle", Request: "<idle/>",
			Vars: map[string]string{"n": "7"}, Done: []string{"/f/a"}},
		Record{Type: TypeExecPassivate, ID: "idle"},
	)
	before := s.Stats()
	cs, err := s.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if cs.SegmentsBefore != before.Segments || cs.RecordsBefore != before.Records {
		t.Fatalf("compact stats %+v disagree with %+v", cs, before)
	}
	if cs.RecordsKept != 2 {
		t.Fatalf("kept = %d, want 2 (live + idle)", cs.RecordsKept)
	}
	if cs.RecordsDropped != before.Records-2 {
		t.Fatalf("dropped = %d", cs.RecordsDropped)
	}
	after := s.Stats()
	if after.Segments != 1 || after.Records != 2 || after.Live != 2 || after.Passivated != 1 {
		t.Fatalf("post-compact stats = %+v", after)
	}
	if reg.Counter("store_compactions_total").Value() != 1 {
		t.Fatal("store_compactions_total not incremented")
	}
	// Appends continue on the compacted segment.
	appendAll(t, s, Record{Type: TypeStepDone, ID: "live", Node: "/f/b"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// One segment on disk; the merged snapshots carry everything.
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(files) != 1 {
		t.Fatalf("segments on disk = %v", files)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if got := s.Stats().ReplayRecords; got != 3 {
		t.Fatalf("replayed after compact = %d, want 3", got)
	}
	ent, ok := s.Entry("idle")
	if !ok || !ent.Passivated || ent.Vars["n"] != "7" || len(ent.Done) != 1 {
		t.Fatalf("idle entry = %+v ok=%v", ent, ok)
	}
	liveEnt, _ := s.Entry("live")
	if len(liveEnt.Done) != 2 {
		t.Fatalf("live done = %v", liveEnt.Done)
	}
	if _, ok := s.Entry("done-0"); ok {
		t.Fatal("ended flow survived compaction")
	}
	if got := s.Stats().Passivated; got != 1 {
		t.Fatalf("passivated after reopen = %d", got)
	}
}

func TestStorePruneTombstone(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "p", Request: "<p/>"},
		Record{Type: TypeExecSnap, ID: "p", Request: "<p/>", Done: []string{"/f/a"}},
		Record{Type: TypeExecPassivate, ID: "p"},
		Record{Type: TypeExecPrune, ID: "p"},
		Record{Type: TypeExecStart, ID: "keep", Request: "<k/>"},
	)
	if got := s.Stats().Passivated; got != 0 {
		t.Fatalf("passivated after prune = %d", got)
	}
	// Reopen first: the tombstone must hold across replay.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	ent, ok := s.Entry("p")
	if !ok || !ent.Pruned {
		t.Fatalf("pruned entry = %+v ok=%v", ent, ok)
	}
	for _, e := range s.Live() {
		if e.ID == "p" {
			t.Fatal("pruned flow listed live")
		}
	}
	// Compact drops the tombstoned flow entirely; a further reopen must
	// not resurrect it.
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Entry("p"); ok {
		t.Fatal("pruned flow survived compaction")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if _, ok := s.Entry("p"); ok {
		t.Fatal("pruned flow resurrected after compact+reopen")
	}
	if _, ok := s.Entry("keep"); !ok {
		t.Fatal("live flow lost by compaction")
	}
}

// appendBytes appends raw bytes to a closed store's segment n.
func appendBytes(t *testing.T, dir string, n int, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, segName(n)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornTail simulates a crash mid-append: the active segment
// ends in the header of a frame whose length never made it. Open must
// discard it, truncate the file to the last complete record, and accept
// new appends cleanly.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "a", Request: "<a/>"},
		Record{Type: TypeStepDone, ID: "a", Node: "/f/s1"},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	appendBytes(t, dir, 1, frameBlock(Record{Type: TypeStepDone, ID: "a", Node: "/f/s2"})[:3])
	before, _ := os.Stat(seg)

	reg := obs.NewRegistry()
	s = mustOpen(t, dir, Options{Obs: reg})
	if n, ok := tornFrames(reg); !ok || n != 1 {
		t.Errorf("store_torn_frames_total = %d (registered %v), want 1", n, ok)
	}
	st := s.Stats()
	if st.ReplayRecords != 2 {
		t.Fatalf("replayed = %d, want torn tail discarded", st.ReplayRecords)
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	ent, _ := s.Entry("a")
	if len(ent.Done) != 1 || ent.Done[0] != "/f/s1" {
		t.Fatalf("done = %v", ent.Done)
	}
	// New appends start on a frame boundary: a third reopen sees intact
	// frames throughout.
	appendAll(t, s, Record{Type: TypeStepDone, ID: "a", Node: "/f/s3"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	s.SetObs(reg)
	if n, ok := tornFrames(reg); ok {
		t.Errorf("an intact store registered store_torn_frames_total = %d", n)
	}
	ent, _ = s.Entry("a")
	if len(ent.Done) != 2 || ent.Done[1] != "/f/s3" {
		t.Fatalf("done after repair+append = %v", ent.Done)
	}
}

// tornFrames reads store_torn_frames_total from reg, and whether the
// series is registered at all.
func tornFrames(reg *obs.Registry) (int64, bool) {
	for _, p := range reg.Snapshot().Counters {
		if p.Name == "store_torn_frames_total" {
			return p.Value, true
		}
	}
	return 0, false
}

// TestStoreTornTailCompleteRecord reproduces the subtler crash shape: a
// single write() persisted every byte of the final frame but its last.
// The record was never acknowledged — Append fsyncs the whole frame as
// one write — so Open must treat it as torn, however little is missing.
// Keeping the fragment would also let the next O_APPEND write
// concatenate onto it, rendering the segment unreadable (or silently
// dropping an acknowledged record) on the restart after that.
func TestStoreTornTailCompleteRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "a", Request: "<a/>"},
		Record{Type: TypeStepDone, ID: "a", Node: "/f/s1"},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	frame := frameBlock(Record{Type: TypeStepDone, ID: "a", Node: "/f/s2"})
	appendBytes(t, dir, 1, frame[:len(frame)-1])
	before, _ := os.Stat(seg)

	s = mustOpen(t, dir, Options{})
	if got := s.Stats().ReplayRecords; got != 2 {
		t.Fatalf("replayed = %d, want unacknowledged tail discarded", got)
	}
	ent, _ := s.Entry("a")
	if len(ent.Done) != 1 || ent.Done[0] != "/f/s1" {
		t.Fatalf("done = %v, want /f/s2 dropped", ent.Done)
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("unterminated tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// New appends land on a frame boundary: every frame decodes on the
	// next reopen instead of merging with the torn record.
	appendAll(t, s, Record{Type: TypeStepDone, ID: "a", Node: "/f/s3"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	ent, _ = s.Entry("a")
	if len(ent.Done) != 2 || ent.Done[1] != "/f/s3" {
		t.Fatalf("done after repair+append = %v", ent.Done)
	}
}

// TestStoreCompactConcurrentAppend races Compact against appenders: an
// acknowledged record must survive compaction swapping segments out
// from under it (Compact flushes the pending group-commit queue into
// the merged snapshots before deleting history).
func TestStoreCompactConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 2048})
	var wg sync.WaitGroup
	const flows = 16
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("dgf-%06d", i)
			appendAll(t, s,
				Record{Type: TypeExecStart, ID: id, Request: "<r/>"},
				Record{Type: TypeStepDone, ID: id, Node: "/f/a"},
				Record{Type: TypeStepDone, ID: id, Node: "/f/b"},
			)
		}(i)
	}
	compacted := make(chan error, 1)
	go func() {
		for j := 0; j < 8; j++ {
			if _, err := s.Compact(); err != nil {
				compacted <- err
				return
			}
		}
		compacted <- nil
	}()
	wg.Wait()
	if err := <-compacted; err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("dgf-%06d", i)
		ent, ok := s.Entry(id)
		if !ok || len(ent.Done) != 2 {
			t.Fatalf("%s after compact race = %+v ok=%v", id, ent, ok)
		}
	}
}

// TestStoreCrashDuringCompaction verifies the temp-file + rename
// discipline: a .tmp left by a crash mid-compaction is ignored and
// removed at Open, and the old segments stay authoritative.
func TestStoreCrashDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s, lifecycle("done-1")...)
	appendAll(t, s, Record{Type: TypeExecStart, ID: "live", Request: "<live/>"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed compaction leaves a half-written replacement segment
	// under .tmp — including a torn frame, the worst case.
	tmp := filepath.Join(dir, segName(2)+".tmp")
	bogus := frameBlock(Record{Type: TypeExecSnap, ID: "bogus", Request: "<r/>"})
	if err := os.WriteFile(tmp, bogus[:len(bogus)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp survived open: %v", err)
	}
	if _, ok := s.Entry("bogus"); ok {
		t.Fatal("tmp contents leaked into the index")
	}
	st := s.Stats()
	if st.ReplayRecords != 5 || st.Live != 1 {
		t.Fatalf("stats = %+v, old segments not authoritative", st)
	}
}

// TestStoreCrashDuringSnapshotSeeded replays the crash-mid-append case
// at positions chosen by a seeded fault plan (internal/fault), so the
// cut points vary but reproduce across runs. Whatever prefix survives
// must parse, and the torn suffix must be dropped exactly once.
func TestStoreCrashDuringSnapshotSeeded(t *testing.T) {
	plan, err := fault.ParsePlan([]byte(`{
		"seed": 42,
		"events": [{"target": "store", "kind": "resource-flaky", "at": "0s", "prob": 0.3}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	inj, err := fault.NewInjector(clock, *plan)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		var recs []Record
		for i := 0; i < 6; i++ {
			recs = append(recs, Record{Type: TypeExecSnap, ID: fmt.Sprintf("dgf-%06d", i),
				Request: "<r/>", Vars: map[string]string{"i": fmt.Sprint(i)}})
		}
		appendAll(t, s, recs...)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The injector's seeded roll picks whether this trial crashes
		// mid-record; the roll ordinal makes trials differ.
		crashed := inj.CheckOp("store") != nil
		seg := filepath.Join(dir, segName(1))
		if crashed {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Cut inside the last record: keep three bytes of its frame.
			last := 0
			for off := 0; ; {
				f, err := codec.NextFrame(data, off)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				last, off = off, f.End
			}
			if err := os.WriteFile(seg, data[:last+3], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s = mustOpen(t, dir, Options{})
		want := 6
		if crashed {
			want = 5
		}
		if got := s.Stats().ReplayRecords; got != want {
			t.Fatalf("trial %d (crashed=%v): replayed %d, want %d", trial, crashed, got, want)
		}
		// Survivors are fully usable snapshots.
		for i := 0; i < want; i++ {
			ent, ok := s.Entry(fmt.Sprintf("dgf-%06d", i))
			if !ok || ent.Vars["i"] != fmt.Sprint(i) {
				t.Fatalf("trial %d: entry %d = %+v ok=%v", trial, i, ent, ok)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 4096})
	var wg sync.WaitGroup
	const flows = 24
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("dgf-%06d", i)
			appendAll(t, s,
				Record{Type: TypeExecStart, ID: id, Request: "<r/>"},
				Record{Type: TypeStepDone, ID: id, Node: "/f/a"},
				Record{Type: TypeExecSnap, ID: id, Request: "<r/>", Done: []string{"/f/a"}},
			)
		}(i)
	}
	wg.Wait()
	if got := s.Stats().Records; got != flows*3 {
		t.Fatalf("records = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if got := len(s.Live()); got != flows {
		t.Fatalf("live after reopen = %d", got)
	}
}

// TestStoreRecordCompat pins the segment encoding: a segment is exactly
// the records' codec frames (docs/CODEC.md, golden record_v1.bin), one
// after another, with nothing of the store's own around them.
func TestStoreRecordCompat(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	recs := lifecycle("dgf-000001")
	appendAll(t, s, recs...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := frameBlock(recs...); !bytes.Equal(data, want) {
		t.Fatalf("segment drifted from the record frames:\n got % x\nwant % x", data, want)
	}
}

func TestStoreClosedErrors(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Type: TypeExecStart, ID: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("compact after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
