package store

import (
	"fmt"
	"io"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
)

// ErrBadBlock refuses a block of record frames AppendFrames cannot take
// as it is: not binary frames, not whole, not the number of records it
// claims, or holding a record that does not decode.
var ErrBadBlock = dgferr.Mark(dgferr.ErrInvalid, "store: bad record block")

// AppendFrames is the replica's verb (docs/REPLICATION.md): it writes a
// block of n binary record frames — the bytes another store's writer
// made — to the active segment as they are, in one write, and folds each
// record into the index from a view of its frame, cutting the ids and
// done paths the index keeps from the store's arena.
//
// The block is checked whole first, as replay checks a segment but with
// nothing torn forgiven: one that is not exactly n MsgRecord frames, each
// of which decodes, is refused with ErrBadBlock and nothing is written.
//
// The records enter the index at the write, without waiting for an
// fsync: a replica's durability is its owner's copy and the snapshot
// that re-syncs it, so a crash may lose or tear the unsynced tail, which
// replay repairs like any torn tail (docs/STORE.md, "Durability"). The
// segment is synced when it is rotated or the store closed. The records
// are numbered (ReplSeq) but reach no tap.
func (s *Store) AppendFrames(block []byte, n int) error {
	rotated := false
	defer func() {
		if rotated {
			s.flushTap() // after the unlock below
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &s.frames.v
	if err := checkFrames(v, block, n); err != nil || n == 0 {
		return err
	}
	var err error
	if _, _, rotated, err = s.writeLocked(block, n); err != nil {
		return err
	}
	for off := 0; off < len(block); {
		f, _ := codec.NextFrame(block, off) // checked above
		_ = v.DecodeFields(block, f.Body, f.End)
		s.fold(&s.frames)
		s.countLocked(s.frames.kind())
		off = f.End
	}
	return nil
}

// CheckFrames reports, as an ErrBadBlock, why block is not exactly n
// whole binary record frames that decode, or nil when it is: the check
// AppendFrames makes before it writes anything.
func CheckFrames(block []byte, n int) error {
	var v codec.RecordView
	return checkFrames(&v, block, n)
}

func checkFrames(v *codec.RecordView, block []byte, n int) error {
	got := 0
	for off := 0; ; got++ {
		f, err := codec.NextFrame(block, off)
		if err == io.EOF {
			break
		}
		if err == nil && f.Type != codec.MsgRecord {
			err = fmt.Errorf("message type %d, want %d", f.Type, codec.MsgRecord)
		}
		if err == nil {
			err = v.DecodeFields(block, f.Body, f.End)
		}
		if err != nil {
			return fmt.Errorf("%w: frame %d: %v", ErrBadBlock, got+1, err)
		}
		off = f.End
	}
	if got != n {
		return fmt.Errorf("%w: %d record frames, want %d", ErrBadBlock, got, n)
	}
	return nil
}

// viewFold is a record being folded from the view of its frame: it makes
// only the strings the index keeps.
type viewFold struct{ v codec.RecordView }

func (f *viewFold) kind() string { return recordType(f.v.Type()) }

func (f *viewFold) entry(index map[string]*execState) *execState { return index[string(f.v.ID())] }

func (f *viewFold) id(strs *codec.Arena) string { return strs.Cut(f.v.ID()) }
func (f *viewFold) request() string             { return string(f.v.Request()) }
func (f *viewFold) paused() bool                { return f.v.Paused() }
func (f *viewFold) passivated() bool            { return f.v.Passivated() }

func (f *viewFold) node(strs *codec.Arena) string {
	if n := f.v.Node(); len(n) > 0 {
		return strs.Cut(n)
	}
	return ""
}

// snapshot keeps the snapshot as replay does: one string holds its
// fields, and its variables and done list are decoded from it when
// something first needs them (materialise).
func (f *viewFold) snapshot(st *execState) {
	fields, req := f.v.Fields()
	if req != "" {
		st.req = req
	}
	st.snap, st.vars, st.done = fields, nil, nil
}

// recordTypes lists every record type, in the order docs/STORE.md
// tabulates them.
var recordTypes = [...]string{
	TypeExecStart, TypeStepDone, TypeDelegStart, TypeDelegDone, TypeExecEnd,
	TypeExecSnap, TypeExecPassivate, TypeExecResurrect, TypeExecPrune,
}

// recordType returns a viewed record's type: a known one as the constant
// that spells it, so no string is made for it.
func recordType(b []byte) string {
	for _, t := range recordTypes {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}
