package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
)

// TestStoreBinaryAppendReplay round-trips a lifecycle through a binary
// store and a reopen.
func TestStoreBinaryAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "dgf-1", Request: "<dataGridRequest/>"},
		Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/a"},
		Record{Type: TypeExecSnap, ID: "dgf-2", Request: "<dataGridRequest/>",
			Vars: map[string]string{"k": "v"}, Done: []string{"/f/a"}, Paused: true},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The segment on disk must actually be binary.
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !codec.IsBinary(data) {
		t.Fatalf("segment is not binary: % x", data[:min(8, len(data))])
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().ReplayRecords; got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	ent, ok := s2.Entry("dgf-2")
	if !ok || ent.Vars["k"] != "v" || !ent.Paused || len(ent.Done) != 1 {
		t.Fatalf("dgf-2 entry = %+v, %v", ent, ok)
	}
	ent, ok = s2.Entry("dgf-1")
	if !ok || ent.Request != "<dataGridRequest/>" {
		t.Fatalf("dgf-1 entry = %+v, %v", ent, ok)
	}
}

// TestStoreBinaryAppendBatch checks the vectored write path: one block,
// one group commit, every record indexed and replayable.
func TestStoreBinaryAppendBatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	recs := append(lifecycle("dgf-1"),
		Record{Type: TypeExecStart, ID: "dgf-2", Request: "<dataGridRequest/>"},
		Record{Type: TypeStepDone, ID: "dgf-2", Node: "/f/a"},
	)
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Records; got != len(recs) {
		t.Fatalf("records = %d, want %d", got, len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().ReplayRecords; got != len(recs) {
		t.Fatalf("replayed %d, want %d", got, len(recs))
	}
	if ent, ok := s2.Entry("dgf-2"); !ok || len(ent.Done) != 1 {
		t.Fatalf("dgf-2 = %+v, %v", ent, ok)
	}
}

// TestOpenRefusesNonBinarySegment: a segment that does not start with a
// record frame — a JSONL segment, a stray byte — fails Open with an
// ErrInvalid naming the file, and the file is left byte for byte as it
// was (nothing is taken for a torn tail and truncated). An empty
// segment is a segment nothing was written to yet, and opens.
func TestOpenRefusesNonBinarySegment(t *testing.T) {
	for name, content := range map[string]string{
		"JSONL":    `{"type":"exec.start","id":"dgf-000001","request":"<dataGridRequest/>"}` + "\n",
		"one byte": "{",
	} {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err == nil {
			s.Close()
			t.Errorf("%s: Open took the segment", name)
			continue
		}
		if !errors.Is(err, dgferr.ErrInvalid) || !strings.Contains(err.Error(), seg) {
			t.Errorf("%s: Open = %v, want an ErrInvalid naming %s", name, err, seg)
		}
		if data, err := os.ReadFile(seg); err != nil || string(data) != content {
			t.Errorf("%s: the refused segment changed to %q (%v)", name, data, err)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	appendAll(t, s, lifecycle("dgf-1")...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if got := s.Stats().ReplayRecords; got != 4 {
		t.Errorf("an empty segment appended to replays %d records, want 4", got)
	}
}

// TestStoreBinaryDirectoryReplaysUnderJSON: Options.Binary is ignored —
// a directory written with it set reopens and appends with it unset.
func TestStoreBinaryDirectoryReplaysUnderJSON(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Binary: true})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "dgf-1", Request: "<dataGridRequest/>"},
		Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/a"},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().ReplayRecords; got != 2 {
		t.Fatalf("replayed %d, want 2", got)
	}
	appendAll(t, s2, Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/b"})
	ent, _ := s2.Entry("dgf-1")
	if len(ent.Done) != 2 {
		t.Fatalf("entry = %+v", ent)
	}
}

// TestStoreBinaryTornTail truncates the active binary segment
// mid-frame and wants the reopen to discard the torn tail, repair the
// file, and accept new appends.
func TestStoreBinaryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "dgf-1", Request: "<dataGridRequest/>"},
		Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/a"},
		Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/b"},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if got := s2.Stats().ReplayRecords; got != 2 {
		t.Fatalf("replayed %d, want 2 (torn frame discarded)", got)
	}
	ent, _ := s2.Entry("dgf-1")
	if len(ent.Done) != 1 || ent.Done[0] != "/f/a" {
		t.Fatalf("entry = %+v", ent)
	}
	appendAll(t, s2, Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/c"})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	ent, _ = s3.Entry("dgf-1")
	if len(ent.Done) != 2 {
		t.Fatalf("entry after repair+append = %+v", ent)
	}
}

// TestStoreBinaryRotation drives the active binary segment over
// SegmentMaxBytes and wants clean rotation and full replay.
func TestStoreBinaryRotation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxBytes: 256})
	for i := 0; i < 8; i++ {
		appendAll(t, s, lifecycle(segName(i))...)
	}
	if got := s.Stats().Segments; got < 2 {
		t.Fatalf("segments = %d, want rotation", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().ReplayRecords; got != 32 {
		t.Fatalf("replayed %d, want 32", got)
	}
}
