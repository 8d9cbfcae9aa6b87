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
	// seg holds the segment being replayed, reused from segment to
	// segment.
	seg  FrameFile
	view codec.RecordView
	// ids holds the fold's state for every execution met, in the order
	// met, and byID finds an id's place in it; n counts the records folded
	// — a replay position that grows towards the past.
	ids  []replayID
	byID map[string]int
	n    int
}

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

// segment replays one segment file: its frames are found by one forward
// pass (FrameFile.Read) — a torn tail was never acknowledged, since
// Append returns only once the whole record is fsynced — and the records
// are then folded last to first. A complete record that fails to decode
// is real corruption and fails Open, whether or not a later record
// supersedes it.
func (rp *replayer) segment(path string, repair bool) error {
	torn, err := rp.seg.Read(path, codec.MsgRecord, repair)
	if err != nil {
		return err
	}
	if torn {
		rp.s.torn++
	}
	// Each record names one execution, so the segment meets at most as
	// many new ones as it holds records.
	rp.ids = slices.Grow(rp.ids, len(rp.seg.Frames))
	for i := len(rp.seg.Frames) - 1; i >= 0; i-- {
		f := rp.seg.Frames[i]
		if err := rp.view.DecodeFields(rp.seg.Buf, f.Body, f.End); err != nil {
			return fmt.Errorf("store: %s frame %d: %v", path, i+1, err)
		}
		rp.fold()
	}
	return nil
}

// A FrameFile is an append-only file of binary frames of one message
// type — a store segment, the virtual-data catalog's log, the provenance
// log — read whole for replay. Buf holds the file's bytes and Frames
// where the fields of each complete frame lie in it, oldest first; both
// are reused from one Read to the next.
type FrameFile struct {
	Buf    []byte
	Frames []Extent
}

// An Extent bounds one frame's fields: Buf[Body:End], as in codec.Frame.
type Extent struct{ Body, End int }

// Read loads the file at path and indexes its frames, which must all be
// of type msgType. A torn trailing frame — the tail of a crash
// mid-append — is left out and reported; with repair set the file is
// truncated to its last whole frame, since a fragment left in place would
// corrupt the next O_APPEND write, which would concatenate onto it. A
// non-empty file that does not start with a frame — one some other
// program, or a build that wrote JSONL, left — is refused with an
// ErrInvalid naming it before anything of it is truncated; so is a frame
// of another type, or one NextFrame finds corrupt.
func (ff *FrameFile) Read(path string, msgType byte, repair bool) (torn bool, err error) {
	if err := ff.read(path); err != nil {
		return false, err
	}
	if len(ff.Buf) > 0 && !codec.IsBinary(ff.Buf) {
		return false, fmt.Errorf("store: %s is not a file of binary frames (first byte %#02x): %w",
			path, ff.Buf[0], dgferr.ErrInvalid)
	}
	// Count the frames first, so that Frames is sized once: a frame's
	// head is all the count reads.
	count := 0
	for off := 0; ; count++ {
		f, err := codec.NextFrame(ff.Buf, off)
		if err != nil {
			break
		}
		off = f.End
	}
	ff.Frames = slices.Grow(ff.Frames[:0], count)
	valid := 0
	for {
		f, err := codec.NextFrame(ff.Buf, valid)
		if err == io.EOF {
			return false, nil
		}
		if errors.Is(err, codec.ErrTorn) {
			break
		}
		if err == nil && f.Type != msgType {
			err = fmt.Errorf("message type %d, want %d", f.Type, msgType)
		}
		if err != nil {
			return false, fmt.Errorf("store: %s frame %d: %v: %w", path, len(ff.Frames)+1, err, dgferr.ErrInvalid)
		}
		ff.Frames = append(ff.Frames, Extent{f.Body, f.End})
		valid = f.End
	}
	if repair {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return true, fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
	}
	return true, nil
}

// read loads the whole file into Buf (Options.SegmentMaxBytes states how
// large a segment gets).
func (ff *FrameFile) read(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && int64(cap(ff.Buf)) <= fi.Size() {
		// One byte over, so the read that finds EOF needs no regrowth.
		ff.Buf = make([]byte, 0, fi.Size()+1)
	}
	ff.Buf = ff.Buf[:0]
	for {
		if len(ff.Buf) == cap(ff.Buf) {
			ff.Buf = append(ff.Buf, 0)[:len(ff.Buf)]
		}
		n, err := f.Read(ff.Buf[len(ff.Buf):cap(ff.Buf)])
		ff.Buf = ff.Buf[:len(ff.Buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: %s: %w", path, err)
		}
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
	// What is sorted is each kept entry's root position and place, not
	// the entry: a replayID is some two hundred bytes to move.
	type kept struct{ first, i int }
	order := make([]kept, 0, len(rp.ids))
	for i := range rp.ids {
		if rp.ids[i].rooted {
			order = append(order, kept{rp.ids[i].first, i})
		}
	}
	slices.SortFunc(order, func(a, b kept) int { return cmp.Compare(b.first, a.first) })
	slab := make([]execState, len(order))
	s.index = make(map[string]*execState, len(order))
	s.order = make([]string, len(order))
	for k, o := range order {
		e := &rp.ids[o.i]
		slab[k] = e.st
		s.index[e.id], s.order[k] = &slab[k], e.id
		if slab[k].passivated {
			s.passive++
		}
	}
}
