package store

// replay.go is Open's fold: it rebuilds the index from the segments on
// disk, newest record first, so that a record a later one supersedes is
// checked but never turned into strings and maps. docs/STORE.md,
// "Replay", states the stream grammar the fold relies on and the rule
// per record type.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"datagridflow/internal/codec"
)

type replayer struct {
	s *Store
	// buf holds the segment being replayed and recs where each of its
	// records lies, oldest first; both are reused from segment to segment.
	buf  []byte
	recs []extent
	view codec.RecordView
	// enc re-encodes a JSONL record, so both encodings reach the fold as
	// a view.
	enc codec.Encoder
	// ids lists every execution met, in the order met; n counts the
	// records folded — a replay position that grows towards the past.
	ids []replayID
	n   int
}

// extent bounds one record inside the segment buffer: a binary frame's
// fields, or a JSONL line without its newline.
type extent struct{ off, end int }

type replayID struct {
	id string
	st *execState
}

// replay folds every segment into the index, newest first, and reports
// the tail segment's encoding and whether it is empty. A torn trailing
// record — the tail of a crash mid-append — is discarded, and truncated
// away in the tail segment, the only one appended to.
func (s *Store) replay() (tailBinary, tailEmpty bool, err error) {
	rp := replayer{s: s}
	for i := len(s.segs) - 1; i >= 0; i-- {
		tail := i == len(s.segs)-1
		binary, empty, err := rp.segment(filepath.Join(s.dir, segName(s.segs[i])), tail)
		if err != nil {
			return false, false, err
		}
		if tail {
			tailBinary, tailEmpty = binary, empty
		}
	}
	rp.finish()
	return tailBinary, tailEmpty, nil
}

// segment replays one segment file, sniffing the encoding from its
// first byte. The file is read once; a forward pass finds the record
// boundaries and the torn tail, if any — an unterminated JSONL line or a
// truncated binary frame was never acknowledged, since Append returns
// only once the whole record is fsynced — and the records are then
// folded last to first. A complete record that fails to decode is real
// corruption and fails Open, whether or not a later record supersedes
// it.
func (rp *replayer) segment(path string, repair bool) (binary, empty bool, err error) {
	if err := rp.read(path); err != nil {
		return false, false, err
	}
	binary = codec.IsBinary(rp.buf)
	var valid int
	if binary {
		valid, err = rp.indexFrames(path)
	} else {
		valid = rp.indexLines()
	}
	if err != nil {
		return false, false, err
	}
	if valid < len(rp.buf) {
		rp.s.torn++
		if repair {
			// Left in place, the fragment would corrupt the next O_APPEND
			// write, which would concatenate onto it.
			if err := os.Truncate(path, int64(valid)); err != nil {
				return false, false, fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
			}
		}
	}
	for i := len(rp.recs) - 1; i >= 0; i-- {
		r := rp.recs[i]
		if binary {
			if err := rp.view.DecodeFields(rp.buf, r.off, r.end); err != nil {
				return false, false, fmt.Errorf("store: %s frame %d: %v", path, i+1, err)
			}
		} else if err := rp.viewLine(rp.buf[r.off:r.end]); err != nil {
			line := bytes.Count(rp.buf[:r.off], []byte{'\n'}) + 1
			return false, false, fmt.Errorf("store: %s line %d: %v", path, line, err)
		}
		rp.fold()
	}
	return binary, valid == 0, nil
}

// read loads a whole segment into rp.buf: at most SegmentMaxBytes plus
// the one block that crossed the limit.
func (rp *replayer) read(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && int64(cap(rp.buf)) <= fi.Size() {
		// One byte over, so the read that finds EOF needs no regrowth.
		rp.buf = make([]byte, 0, fi.Size()+1)
	}
	rp.buf = rp.buf[:0]
	for {
		if len(rp.buf) == cap(rp.buf) {
			rp.buf = append(rp.buf, 0)[:len(rp.buf)]
		}
		n, err := f.Read(rp.buf[len(rp.buf):cap(rp.buf)])
		rp.buf = rp.buf[:len(rp.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: %s: %w", path, err)
		}
	}
}

// indexFrames records the bounds of every complete binary frame and
// returns the offset at which the valid prefix ends.
func (rp *replayer) indexFrames(path string) (valid int, err error) {
	rp.recs = rp.recs[:0]
	for {
		f, err := codec.NextFrame(rp.buf, valid)
		if err == io.EOF || errors.Is(err, codec.ErrTorn) {
			return valid, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: %s: %w", path, err)
		}
		if f.Type != codec.MsgRecord {
			return 0, fmt.Errorf("store: %s frame %d: message type %d, want %d", path, len(rp.recs)+1, f.Type, codec.MsgRecord)
		}
		rp.recs = append(rp.recs, extent{f.Body, f.End})
		valid = f.End
	}
}

// indexLines records the bounds of every newline-terminated, non-empty
// JSONL line and returns the offset at which the valid prefix ends. An
// unterminated last line is torn even when its prefix parses as
// complete JSON: the newline is part of the acknowledged write.
func (rp *replayer) indexLines() (valid int) {
	rp.recs = rp.recs[:0]
	for {
		nl := bytes.IndexByte(rp.buf[valid:], '\n')
		if nl < 0 {
			return valid
		}
		if nl > 0 {
			rp.recs = append(rp.recs, extent{valid, valid + nl})
		}
		valid += nl + 1
	}
}

// viewLine decodes one JSONL line into the view by way of the binary
// encoding.
func (rp *replayer) viewLine(line []byte) error {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	rp.enc.Reset()
	codec.AppendRecord(&rp.enc, &rec)
	return rp.view.Decode(rp.enc.Bytes())
}

// fold merges the viewed record — older than every record folded before
// it — into the index. Whatever a newer record already decided stands:
// the first end or prune met leaves a tombstone and every older record
// of that execution is skipped; a snapshot seals the request, variables,
// done set and paused flag against older records; between snapshots the
// done set is a union. Only what survives is materialised.
func (rp *replayer) fold() {
	s, v := rp.s, &rp.view
	rp.n++
	s.replayed++
	st := s.index[string(v.ID())]
	if st == nil {
		id := string(v.ID())
		st = &execState{}
		s.index[id] = st
		rp.ids = append(rp.ids, replayID{id, st})
	}
	switch string(v.Type()) {
	case TypeExecEnd:
		st.ended = true
		st.collapse()
		return
	case TypeExecPrune:
		st.pruned = true
		st.collapse()
		return
	case TypeExecStart, TypeExecSnap:
		// Met last, the oldest root is where apply would have created the
		// entry: it fixes the execution's place in s.order.
		st.rooted, st.first = true, rp.n
	}
	if st.terminal() {
		return
	}
	switch string(v.Type()) {
	case TypeExecStart:
		if st.req == "" {
			st.req = string(v.Request())
		}
	case TypeExecSnap:
		rp.foldSnap(st)
	case TypeStepDone, TypeDelegDone:
		if node := v.Node(); !st.hasSnap && len(node) > 0 && !st.done[string(node)] {
			st.markDone(string(node))
		}
	case TypeExecPassivate:
		st.decidePassivated(true)
		st.decidePaused(v.Paused())
	case TypeExecResurrect:
		st.decidePassivated(false)
	}
}

// foldSnap folds an exec.snap into a live entry. The newest snapshot is
// materialised whole — one string backs its request, variables and done
// list; an older one can only supply a request or a passivation marker
// that nothing newer carried. A snapshot without the marker says nothing
// about passivation, as in apply.
func (rp *replayer) foldSnap(st *execState) {
	v := &rp.view
	if v.Passivated() {
		st.decidePassivated(true)
	}
	if st.hasSnap {
		if st.req == "" {
			st.req = string(v.Request())
		}
		return
	}
	rec := v.Record()
	st.hasSnap = true
	if st.req == "" {
		st.req = rec.Request
	}
	st.vars = rec.Vars
	for _, n := range rec.Done {
		st.markDone(n)
	}
	st.decidePaused(rec.Paused)
}

// decidePassivated and decidePaused take a record's word for a flag
// unless a newer record has already spoken.
func (st *execState) decidePassivated(on bool) {
	if !st.passSet {
		st.passivated, st.passSet = on, true
	}
}

func (st *execState) decidePaused(on bool) {
	if !st.pausedSet {
		st.paused, st.pausedSet = on, true
	}
}

// finish drops the entries no root record vouched for — stragglers of an
// execution compaction dropped, which apply never indexes — counts the
// passivated, and restores s.order to the order apply builds: by each
// execution's oldest root.
func (rp *replayer) finish() {
	s := rp.s
	kept := rp.ids[:0]
	for _, e := range rp.ids {
		if !e.st.rooted {
			delete(s.index, e.id)
			continue
		}
		if e.st.passivated {
			s.passive++
		}
		kept = append(kept, e)
	}
	slices.SortFunc(kept, func(a, b replayID) int { return cmp.Compare(b.st.first, a.st.first) })
	s.order = make([]string, len(kept))
	for i, e := range kept {
		s.order[i] = e.id
	}
}
