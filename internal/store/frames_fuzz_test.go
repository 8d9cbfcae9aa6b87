package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datagridflow/internal/replica"
	"datagridflow/internal/store"
)

// fuzzTypes are the record types a fuzz program picks from.
var fuzzTypes = [...]string{
	store.TypeExecStart, store.TypeStepDone, store.TypeDelegStart, store.TypeDelegDone, store.TypeExecEnd,
	store.TypeExecSnap, store.TypeExecPassivate, store.TypeExecResurrect, store.TypeExecPrune,
}

// fuzzBlocks reads blocks of records from prog, two bytes a record. The
// first byte picks the type (low nibble) and starts a new block (0x80);
// the second picks the execution (low two bits), the node (next two),
// and sets a request (0x10), a variable (0x20), paused (0x40) and
// passivated (0x80).
func fuzzBlocks(prog []byte) [][]store.Record {
	var blocks [][]store.Record
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		rec := store.Record{
			Type:       fuzzTypes[int(op&0x0f)%len(fuzzTypes)],
			ID:         fmt.Sprintf("own:dgf-%06d", arg&3),
			Paused:     arg&0x40 != 0,
			Passivated: arg&0x80 != 0,
		}
		node := fmt.Sprintf("/f/s%d", arg>>2&3)
		switch rec.Type {
		case store.TypeStepDone, store.TypeDelegStart, store.TypeDelegDone:
			rec.Node = node
		case store.TypeExecSnap:
			rec.Done = []string{node, "/f/s0"}
		}
		if arg&0x10 != 0 {
			rec.Request = "<r n='" + node + "'/>"
		}
		if arg&0x20 != 0 {
			rec.Vars = map[string]string{"v": node, "w": ""}
		}
		if len(blocks) == 0 || op&0x80 != 0 {
			blocks = append(blocks, nil)
		}
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], rec)
	}
	return blocks
}

// index lists a store's entries in its id order.
func index(s *store.Store) []store.Entry {
	var out []store.Entry
	for _, id := range s.IDs() {
		ent, _ := s.Entry(id)
		out = append(out, ent)
	}
	return out
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzAppendFramesMatchesAppend holds the replica's way in to the one it
// replaced: the blocks an owner ships, written as they came by
// AppendFrames, give the index that decoding them (replica.DecodeBlock)
// and appending the records (AppendBatch) gives — entry by entry — and
// the store reopens to it. A block of arbitrary bytes that DecodeBlock
// refuses, or whose record count is not the one claimed, is refused
// with ErrBadBlock and nothing written; one it takes, AppendFrames takes
// as AppendBatch does.
func FuzzAppendFramesMatchesAppend(f *testing.F) {
	frames := func(recs ...store.Record) []byte {
		block, err := replica.EncodeBlock(recs, true)
		if err != nil {
			f.Fatal(err)
		}
		return block
	}
	one := frames(store.Record{Type: store.TypeExecStart, ID: "a", Request: "<r/>"}, store.Record{Type: store.TypeExecEnd, ID: "a"})
	for _, seed := range []struct {
		prog, raw string
		n         uint8
	}{
		// a flow's life in one block; a second flow abandoned mid-way
		{"\x00\x10\x01\x04\x01\x08\x84\x00\x00\x11\x81\x05\x04\x01", string(one), 2},
		// snapshot with variables, passivate, resurrect, a step, the end
		{"\x05\x32\x86\x42\x07\x02\x81\x0a\x04\x02", string(one), 1},
		// stragglers before a start, a prune, a stale snapshot after it
		{"\x01\x03\x00\x13\x88\x03\x85\x33\x04\x03", "{\"type\":\"exec.start\",\"id\":\"a\"}\n", 1},
		// one record a block
		{"\x80\x10\x81\x04\x81\x08\x85\x20\x84\x00", "\xdf\x01\x01\x02\xff\xff", 1},
	} {
		f.Add([]byte(seed.prog), []byte(seed.raw), seed.n)
	}
	f.Fuzz(func(t *testing.T, prog, raw []byte, n uint8) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		refDir, dir := t.TempDir(), t.TempDir()
		ref, s := openStore(t, refDir), openStore(t, dir)
		for _, recs := range fuzzBlocks(prog) {
			block := frames(recs...)
			decoded, err := replica.DecodeBlock(block)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.AppendBatch(decoded); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendFrames(block, len(recs)); err != nil {
				t.Fatal(err)
			}
		}
		want := index(ref)
		if got := index(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("index after AppendFrames:\n%+v\nafter AppendBatch:\n%+v", got, want)
		}
		ref.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openStore(t, dir)
		if got := index(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("index after reopening:\n%+v\nafter AppendBatch:\n%+v", got, want)
		}
		s.Close()

		// Arbitrary bytes as a block, against DecodeBlock's verdict.
		rawDir := t.TempDir()
		ref, s = openStore(t, t.TempDir()), openStore(t, rawDir)
		defer ref.Close()
		defer s.Close()
		decoded, derr := replica.DecodeBlock(raw)
		err := s.AppendFrames(raw, int(n))
		if derr != nil || len(decoded) != int(n) {
			if !errors.Is(err, store.ErrBadBlock) {
				t.Fatalf("a block DecodeBlock refuses (%v) or miscounts (%d of %d): AppendFrames says %v",
					derr, len(decoded), n, err)
			}
			if st := s.Stats(); st.Records != 0 {
				t.Fatalf("a refused block left %d records", st.Records)
			}
			if fi, err := os.Stat(filepath.Join(rawDir, "seg-00000001.log")); err != nil || fi.Size() != 0 {
				t.Fatalf("a refused block was written: %v, %v", fi, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("a block DecodeBlock takes: %v", err)
		}
		if err := ref.AppendBatch(decoded); err != nil {
			t.Fatal(err)
		}
		if got, want := index(s), index(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("index of a raw block:\n%+v\nafter AppendBatch:\n%+v", got, want)
		}
	})
}
