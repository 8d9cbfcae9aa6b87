package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
)

// frameBlock encodes recs as the block of record frames an owner's
// store writes and ships.
func frameBlock(recs ...Record) []byte {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	for i := range recs {
		codec.AppendRecordFrame(enc, &recs[i])
	}
	return append([]byte(nil), enc.Bytes()...)
}

// TestAppendFramesDurability: a block AppendFrames took is the segment's
// bytes as it came, its records are in the index at once, and both
// survive a close and reopen — the replica posture skips the fsync wait,
// not the write.
func TestAppendFramesDurability(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	recs := []Record{
		{Type: TypeExecStart, ID: "a", Request: "<r/>"},
		{Type: TypeStepDone, ID: "a", Node: "/f/s0"},
		{Type: TypeExecSnap, ID: "b", Request: "<q/>", Vars: map[string]string{"k": "v"}, Done: []string{"/g/x"}},
		{Type: TypeStepDone, ID: "b", Node: "/g/y"},
		{Type: TypeExecStart, ID: "c"},
		{Type: TypeExecEnd, ID: "c"},
	}
	block := frameBlock(recs...)
	if err := s.AppendFrames(block[:0], 0); err != nil {
		t.Fatalf("an empty block: %v", err)
	}
	if err := s.AppendFrames(block, len(recs)); err != nil {
		t.Fatal(err)
	}
	live := s.Live()
	want := []Entry{
		{ID: "a", Request: "<r/>", Vars: map[string]string{}, Done: []string{"/f/s0"}},
		{ID: "b", Request: "<q/>", Vars: map[string]string{"k": "v"}, Done: []string{"/g/x", "/g/y"}},
	}
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("live at the write:\n%+v\nwant\n%+v", live, want)
	}
	if st := s.Stats(); st.Records != len(recs) || st.Pending != 0 || s.ReplSeq() != uint64(len(recs)) {
		t.Errorf("stats %+v, repl seq %d", st, s.ReplSeq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, segName(1))); err != nil || !bytes.Equal(data, block) {
		t.Fatalf("the segment is not the block as it came (%v):\n got %x\nwant %x", err, data, block)
	}
	again := mustOpen(t, dir, Options{})
	defer again.Close()
	if got := again.Live(); !reflect.DeepEqual(got, live) {
		t.Fatalf("live after reopen:\n%+v\nwant\n%+v", got, live)
	}
}

// TestAppendFramesRefusesBadBlocks: a block that is not exactly the
// records it claims, as whole binary frames that decode, is refused with
// a typed error and nothing written — nor is the store poisoned: the
// next good block lands.
func TestAppendFramesRefusesBadBlocks(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	recs := []Record{{Type: TypeExecStart, ID: "a", Request: "<r/>"}, {Type: TypeExecEnd, ID: "a"}}
	good := frameBlock(recs...)
	for name, c := range map[string]struct {
		block []byte
		n     int
	}{
		"JSONL":                 {[]byte(`{"type":"exec.start","id":"a","request":"<r/>"}` + "\n"), 1},
		"torn":                  {good[:len(good)-2], 2},
		"fewer than claimed":    {good, 3},
		"more than claimed":     {good, 1},
		"another message type":  {[]byte{codec.Magic, codec.Version, codec.MsgResponse, 0}, 1},
		"a record that is bad":  {[]byte{codec.Magic, codec.Version, codec.MsgRecord, 2, 0xff, 0xff}, 1},
		"good, then a bad tail": {append(append([]byte(nil), good...), 0xff), 2},
	} {
		err := s.AppendFrames(c.block, c.n)
		if !errors.Is(err, ErrBadBlock) || !errors.Is(err, dgferr.ErrInvalid) {
			t.Errorf("%s: %v, want ErrBadBlock", name, err)
		}
	}
	if st := s.Stats(); st.Records != 0 || st.Live != 0 || st.Failed != "" {
		t.Fatalf("refused blocks left stats %+v", st)
	}
	if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() != 0 {
		t.Fatalf("refused blocks wrote to the segment: %v, %v", fi, err)
	}
	if err := s.AppendFrames(good, len(recs)); err != nil {
		t.Fatalf("a good block after the refusals: %v", err)
	}
	s.Close()
}
