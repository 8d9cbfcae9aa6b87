package store

// replay.go is Open's fold: it rebuilds the index from the segments on
// disk, newest record first, so that a record a later one supersedes is
// checked but never turned into strings and maps. docs/STORE.md,
// "Replay", states the stream grammar the fold relies on and the rule
// per record type.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
)

type replayer struct {
	s *Store
	// buf holds the segment being replayed and recs where each of its
	// records lies, oldest first; both are reused from segment to segment.
	buf  []byte
	recs []extent
	view codec.RecordView
	// ids holds the fold's state for every execution met, in the order
	// met, and byID finds an id's place in it; n counts the records folded
	// — a replay position that grows towards the past.
	ids  []replayID
	byID map[string]int
	n    int
}

// extent bounds one record's fields inside the segment buffer.
type extent struct{ off, end int }

// replayID is the fold's state for one execution id. apply creates an
// entry at the id's first root record (exec.start, exec.snap) and ignores
// whatever precedes it; read newest first, no record can tell whether a
// root still lies behind it. So the records met since the last root are
// folded into held, and only a root commits them — then itself — to st.
// What is still held when the oldest segment is done preceded every root
// and is dropped, as apply dropped it.
type replayID struct {
	id string
	// st is the entry as of the oldest root met — rooted says one was —
	// and first is that root's replay position. It is held here by value:
	// finish copies the kept entries into one slab.
	st     execState
	rooted bool
	first  int
	// sealed: a snapshot is committed, so its variables and done set
	// stand against older records. pausedSet, passSet: a committed record
	// has decided the flag, so no older one can.
	sealed, pausedSet, passSet bool
	held                       held
}

// held is the fold of the non-root records met since the last root.
type held struct {
	ended, pruned       bool
	paused, pausedSet   bool
	passivated, passSet bool
	done                map[string]bool
}

// replay folds every segment into the index, newest first. A torn
// trailing frame — the tail of a crash mid-append — is discarded, and
// truncated away in the tail segment, the only one appended to.
func (s *Store) replay() error {
	rp := replayer{s: s, byID: map[string]int{}}
	for i := len(s.segs) - 1; i >= 0; i-- {
		if err := rp.segment(filepath.Join(s.dir, segName(s.segs[i])), i == len(s.segs)-1); err != nil {
			return err
		}
	}
	rp.finish()
	return nil
}

// segment replays one segment file. The file is read once; a forward
// pass finds the frame boundaries and the torn tail, if any — a
// truncated frame was never acknowledged, since Append returns only once
// the whole record is fsynced — and the records are then folded last to
// first. A complete record that fails to decode is real corruption and
// fails Open, whether or not a later record supersedes it. So does a
// non-empty file that does not start with a frame — a segment some other
// program, or a build that wrote JSONL, left — which is refused before
// anything of it is truncated.
func (rp *replayer) segment(path string, repair bool) error {
	if err := rp.read(path); err != nil {
		return err
	}
	if len(rp.buf) > 0 && !codec.IsBinary(rp.buf) {
		return fmt.Errorf("store: %s is not a segment of binary record frames (first byte %#02x): %w",
			path, rp.buf[0], dgferr.ErrInvalid)
	}
	valid, err := rp.indexFrames(path)
	if err != nil {
		return err
	}
	if valid < len(rp.buf) {
		rp.s.torn++
		if repair {
			// Left in place, the fragment would corrupt the next O_APPEND
			// write, which would concatenate onto it.
			if err := os.Truncate(path, int64(valid)); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
			}
		}
	}
	for i := len(rp.recs) - 1; i >= 0; i-- {
		r := rp.recs[i]
		if err := rp.view.DecodeFields(rp.buf, r.off, r.end); err != nil {
			return fmt.Errorf("store: %s frame %d: %v", path, i+1, err)
		}
		rp.fold()
	}
	return nil
}

// read loads a whole segment into rp.buf (Options.SegmentMaxBytes states
// how large one gets).
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

// fold merges the viewed record — older than every record folded before
// it — into its execution's replay state. A root commits what is held and
// then itself; any other record is held, unless something newer already
// makes it moot: behind an end or prune nothing but another end, prune
// or root counts; behind a snapshot no step.done does; behind the first
// record to speak of paused or passivated no other does. Only what
// survives is materialised.
func (rp *replayer) fold() {
	v := &rp.view
	rp.n++
	rp.s.replayed++
	i, ok := rp.byID[string(v.ID())]
	if !ok {
		id := rp.s.strs.Cut(v.ID())
		i = len(rp.ids)
		rp.byID[id] = i
		rp.ids = append(rp.ids, replayID{id: id})
	}
	e := &rp.ids[i]
	switch string(v.Type()) {
	case TypeExecEnd:
		e.held.ended = true
		return
	case TypeExecPrune:
		e.held.pruned = true
		return
	case TypeExecStart, TypeExecSnap:
		rp.root(e)
		return
	}
	if e.held.ended || e.held.pruned || e.st.terminal() {
		return
	}
	switch string(v.Type()) {
	case TypeStepDone, TypeDelegDone:
		node := v.Node()
		known := e.sealed || e.st.done[string(node)] || e.held.done[string(node)]
		if len(node) > 0 && !known {
			if e.held.done == nil {
				e.held.done = make(map[string]bool)
			}
			e.held.done[rp.s.strs.Cut(node)] = true
		}
	case TypeExecPassivate:
		e.holdPassivated(true)
		if !e.pausedSet && !e.held.pausedSet {
			e.held.paused, e.held.pausedSet = v.Paused(), true
		}
	case TypeExecResurrect:
		e.holdPassivated(false)
	}
}

func (e *replayID) holdPassivated(on bool) {
	if !e.passSet && !e.held.passSet {
		e.held.passivated, e.held.passSet = on, true
	}
}

// root folds the viewed exec.start or exec.snap: the oldest root met so
// far, so this is where apply would have created the entry, and what is
// held — newer than the root — now counts. A held end or prune leaves a
// tombstone, whatever newer roots had built.
func (rp *replayer) root(e *replayID) {
	v := &rp.view
	e.first, e.rooted = rp.n, true
	st, h := &e.st, e.held
	e.held = held{}
	if h.ended || h.pruned {
		st.ended, st.pruned = st.ended || h.ended, st.pruned || h.pruned
		st.collapse()
	}
	if st.terminal() {
		return
	}
	if h.passSet {
		st.passivated, e.passSet = h.passivated, true
	}
	if h.pausedSet {
		st.paused, e.pausedSet = h.paused, true
	}
	if st.done == nil {
		st.done = h.done
	} else {
		for node := range h.done {
			st.done[node] = true
		}
	}
	if string(v.Type()) == TypeExecStart {
		if st.req == "" {
			st.req = string(v.Request())
		}
		return
	}
	// A snapshot without the passivation marker says nothing about
	// passivation, as in apply.
	if v.Passivated() && !e.passSet {
		st.passivated, e.passSet = true, true
	}
	if e.sealed {
		// An older snapshot can only supply a request that nothing newer
		// carried.
		if st.req == "" {
			st.req = string(v.Request())
		}
		return
	}
	// The newest snapshot is kept as it was written: one string backs its
	// request, variables and done list, and the variables and done list
	// are decoded from it when something first asks for them
	// (materialise) — which, for a parked flow, no restart does.
	fields, req := v.Fields()
	e.sealed = true
	if st.req == "" {
		st.req = req
	}
	st.snap = fields
	if !e.pausedSet {
		st.paused, e.pausedSet = v.Paused(), true
	}
}

// finish builds the index from the executions a root vouched for — the
// rest are stragglers of an execution compaction dropped, which apply
// never indexes — in the order apply builds: by each execution's oldest
// root.
func (rp *replayer) finish() {
	s := rp.s
	kept := rp.ids[:0]
	for _, e := range rp.ids {
		if e.rooted {
			kept = append(kept, e)
		}
	}
	slices.SortFunc(kept, func(a, b replayID) int { return cmp.Compare(b.first, a.first) })
	slab := make([]execState, len(kept))
	s.index = make(map[string]*execState, len(kept))
	s.order = make([]string, len(kept))
	for i := range kept {
		slab[i] = kept[i].st
		s.index[kept[i].id], s.order[i] = &slab[i], kept[i].id
		if slab[i].passivated {
			s.passive++
		}
	}
}
