// Package provenance implements the durable audit trail a Datagridflow
// Management System must keep: every DGMS operation and every flow/step
// transition is recorded, and the records can be queried "even (years)
// after the execution" (paper §2.1). A record is encoded once, as a
// binary frame (codec.MsgProv), which the store holds in memory and,
// optionally, writes to a log that survives process restarts: a file of
// those frames written through the store's group-committed writer
// (store.GroupFile) and replayed by its frame walk (store.FrameFile).
package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/store"
)

// Outcome of a recorded operation.
const (
	// OutcomeOK marks a successful operation.
	OutcomeOK = "ok"
	// OutcomeError marks a failed operation.
	OutcomeError = "error"
	// OutcomeSkipped marks an operation elided (e.g. virtual-data hit).
	OutcomeSkipped = "skipped"
)

// Record is one provenance entry.
type Record struct {
	// Seq is assigned by the store; strictly increasing from 1.
	Seq int64
	// Time is the (simulated) instant of the operation.
	Time time.Time
	// Actor is the grid user or system component that acted.
	Actor string
	// Action names the operation ("ingest", "replicate", "step.start", ...).
	Action string
	// Target is the logical path or id acted on.
	Target string
	// FlowID and StepID tie the record to a datagridflow execution.
	FlowID string
	StepID string
	// Outcome is OutcomeOK, OutcomeError or OutcomeSkipped.
	Outcome string
	// Err carries the error text when Outcome is OutcomeError.
	Err string
	// Detail holds free-form key/value context (sizes, resources, ...),
	// sorted by key. Keys are unique within a record.
	Detail Attrs
}

// Attr is one key/value pair of a record's detail.
type Attr struct {
	Key, Value string
}

// Attrs is a record's detail, a list of pairs.
type Attrs []Attr

func sortAttrs(d Attrs) {
	slices.SortFunc(d, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
}

// Record field numbers: the one binary form of a record, the fields of a
// codec.MsgProv frame. Frozen: new fields append, numbers are never
// reused (docs/CODEC.md §8).
const (
	fSeq     = 1  // zigzag varint
	fTime    = 2  // zigzag varint, UTC UnixNano; absent = zero time
	fActor   = 3  // sym
	fAction  = 4  // sym
	fTarget  = 5  // str
	fFlow    = 6  // str
	fStep    = 7  // str
	fOutcome = 8  // sym
	fErr     = 9  // str
	fDetail  = 10 // repeated msg {1: key sym, 2: value str}, in the record's order
)

// AppendRecord writes r's fields into the message enc is encoding. The
// detail pairs are written in the order r holds them — sorted by key, in
// a record the store returned — so a record always encodes to the same
// bytes.
func AppendRecord(enc *codec.Encoder, r *Record) {
	enc.Int(fSeq, r.Seq)
	if !r.Time.IsZero() {
		enc.Int(fTime, r.Time.UnixNano())
	}
	enc.Sym(fActor, r.Actor)
	enc.Sym(fAction, r.Action)
	enc.Str(fTarget, r.Target)
	enc.Str(fFlow, r.FlowID)
	enc.Str(fStep, r.StepID)
	enc.Sym(fOutcome, r.Outcome)
	enc.Str(fErr, r.Err)
	for _, a := range r.Detail {
		enc.Msg(fDetail, func(enc *codec.Encoder) {
			enc.Sym(1, a.Key)
			enc.Str(2, a.Value)
		})
	}
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("provenance: store closed")

// Store is an append-only provenance log. The zero value is not usable;
// construct with NewMemory or Open.
//
// A store holds its records as the codec.MsgProv frames AppendRecord
// writes — the bytes a durable store's log holds — in chunks it owns:
// the garbage collector never scans them and no string a caller passed
// stays alive in them. Reads walk the frames and decode only the
// records they return.
type Store struct {
	mu sync.RWMutex
	// chunks hold the frames in sequence order, each chunk filled up to
	// its length; a frame never spans two. Only the last chunk grows, and
	// only past its length, so a reader may walk what it saw under the
	// lock after letting go of it (frames).
	chunks [][]byte
	// enc and detail are Append's scratch: its encoder, and the caller's
	// pairs sorted by key. Both are emptied once a record is kept, so
	// they keep no caller's string.
	enc     codec.Encoder
	detail  Attrs
	nextSeq int64
	// log is nil for a memory-only store; ticket is the commit ticket of
	// the last record written to it, the one Flush waits for.
	log    *store.GroupFile
	ticket int64
	closed bool
}

// A store's first chunk takes provChunkMin bytes, some fifty records,
// and each chunk after it twice the one before, up to provChunkMax. A
// frame larger than that gets a chunk of its own size.
const (
	provChunkMin = 4 << 10
	provChunkMax = 64 << 10
)

// NewMemory returns a store that keeps records only in memory.
func NewMemory() *Store {
	return &Store{nextSeq: 1}
}

// Open returns a store persisted to the log at path, loading any records
// already present — this is what lets an auditor query flows that ran in
// past processes. A torn last frame, what a process killed mid-append
// leaves, is truncated away. A file that is not binary frames — the
// JSON-lines log an earlier build wrote — is refused with
// dgferr.ErrInvalid and left as it was.
func Open(path string) (*Store, error) {
	s := NewMemory()
	if err := s.replay(path); err != nil {
		return nil, err
	}
	log, err := store.OpenGroupFile(path)
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	s.log = log
	return s, nil
}

// replay loads the log at path, if there is one, through the store's
// frame walk. Every frame is checked as a read would decode it, and the
// frames are kept as they were read: the file's bytes become the first
// chunk. Numbering continues after the highest seq.
func (s *Store) replay(path string) error {
	var log store.FrameFile
	if _, err := log.Read(path, codec.MsgProv, true); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("provenance: %w", err)
	}
	if len(log.Frames) == 0 {
		return nil
	}
	var w walker
	defer w.release()
	for i, f := range log.Frames {
		if err := w.read(log.Buf, f.Body, f.End); err != nil {
			return fmt.Errorf("provenance: %s frame %d: %v: %w", path, i+1, err, dgferr.ErrInvalid)
		}
		s.nextSeq = max(s.nextSeq, w.v.seq+1)
	}
	end := log.Frames[len(log.Frames)-1].End
	s.chunks = [][]byte{log.Buf[:end:end]}
	return nil
}

// Append records r, assigning and returning its sequence number. The
// record's Detail is detail, sorted by key; r.Detail is not read. The
// record is encoded into the store, so neither r nor detail is kept: a
// caller may build detail on its stack. A closed store encodes nothing.
//
// The detail is an argument of its own because escape analysis does
// not tell a struct's fields apart: r's strings are encoded through a
// pooled encoder's symbol table, so a Detail set in r would have to be
// built on the heap too.
//
// A file-backed store adds the record's frame to its log's tail before
// returning, with no syscall, and does not wait for the sync: a record
// is a memo, written and on disk within 2×store.Linger or at the next
// Flush (docs/STORE.md, "Durability"). A store refuses, with dgferr.ErrInvalid, a record too
// large for one frame (codec.MaxFrameBody), which is then neither kept
// nor numbered.
func (s *Store) Append(r Record, detail ...Attr) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if r.Outcome == "" {
		r.Outcome = OutcomeOK
	}
	r.Seq = s.nextSeq
	s.detail = append(s.detail[:0], detail...)
	sortAttrs(s.detail)
	r.Detail = s.detail
	enc := &s.enc
	defer s.forget()
	mark := enc.BeginFrame(codec.MsgProv)
	AppendRecord(enc, &r)
	enc.EndFrame(mark)
	if enc.Len() > codec.MaxFrameBody {
		return 0, fmt.Errorf("provenance: a %q record encodes to %d bytes, over the %d-byte frame limit: %w",
			r.Action, enc.Len(), codec.MaxFrameBody, dgferr.ErrInvalid)
	}
	frame := enc.Bytes()
	if s.log != nil {
		// Under s.mu, so frames land in seq order; the write and the
		// sync are left to the linger.
		ticket, err := s.log.WriteBlock(frame, 1)
		if err != nil {
			return 0, fmt.Errorf("provenance: %w", err)
		}
		s.ticket = ticket
		s.log.SyncSoon()
	}
	k := len(s.chunks) - 1
	if k < 0 || cap(s.chunks[k])-len(s.chunks[k]) < len(frame) {
		next := provChunkMin
		if k >= 0 {
			next = min(2*cap(s.chunks[k]), provChunkMax)
		}
		s.chunks = append(s.chunks, make([]byte, 0, max(next, len(frame))))
		k++
	}
	s.chunks[k] = append(s.chunks[k], frame...)
	s.nextSeq++
	return r.Seq, nil
}

// forget empties Append's scratch, dropping an encoder buffer that grew
// past provChunkMax. Caller holds s.mu.
func (s *Store) forget() {
	clear(s.detail)
	if s.enc.Reset(); cap(s.enc.Bytes()) > provChunkMax {
		s.enc = codec.Encoder{}
	}
}

// Flush returns once every record appended so far is on stable storage.
// A memory-only store has nothing to wait for; a closed one answers
// ErrClosed.
func (s *Store) Flush() error {
	s.mu.RLock()
	closed, log, ticket := s.closed, s.log, s.ticket
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if log == nil {
		return nil
	}
	if err := log.Sync(ticket); err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	return nil
}

// Close syncs and closes the log (if any). The in-memory index stays
// readable after Close for final reporting, but appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// Filter selects records; zero-value fields match everything.
type Filter struct {
	FlowID       string
	StepID       string
	Actor        string
	Action       string    // exact action name
	ActionPrefix string    // e.g. "step." for all step transitions
	TargetPrefix string    // logical path subtree
	Outcome      string    // OutcomeOK / OutcomeError / OutcomeSkipped
	Since        time.Time // inclusive
	Until        time.Time // exclusive; zero means no bound
	Limit        int       // 0 = unlimited
}

// matches reports whether the record v views passes f.
func (f *Filter) matches(v *view) bool {
	if f.FlowID != "" && string(v.flow) != f.FlowID {
		return false
	}
	if f.StepID != "" && string(v.step) != f.StepID {
		return false
	}
	if f.Actor != "" && string(v.actor) != f.Actor {
		return false
	}
	if f.Action != "" && string(v.action) != f.Action {
		return false
	}
	if f.ActionPrefix != "" && !hasPrefix(v.action, f.ActionPrefix) {
		return false
	}
	if f.TargetPrefix != "" && !hasPrefix(v.target, f.TargetPrefix) {
		return false
	}
	if f.Outcome != "" && string(v.outcome) != f.Outcome {
		return false
	}
	if !f.Since.IsZero() && v.time().Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !v.time().Before(f.Until) {
		return false
	}
	return true
}

// needle returns the longest string f requires a record to hold. A
// record's strings lie in its frame as they are, so a frame that does
// not contain the needle cannot match, and is passed over unread.
func (f *Filter) needle() string {
	n := ""
	for _, s := range [...]string{f.FlowID, f.StepID, f.Actor, f.Action, f.ActionPrefix, f.TargetPrefix, f.Outcome} {
		if len(s) > len(n) {
			n = s
		}
	}
	return n
}

func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// frames returns what the store holds, as a reader may walk it without
// the lock: the chunks before the last, never written again, and the
// last as far as it was filled. It does not copy the chunk list.
func (s *Store) frames() (full [][]byte, last []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	k := len(s.chunks)
	if k == 0 {
		return nil, nil
	}
	return s.chunks[: k-1 : k-1], s.chunks[k-1]
}

// each calls fn for every frame of the store that may match f, oldest
// first, with the walker viewing the frame's record, until fn returns
// false.
func (s *Store) each(w *walker, f *Filter, fn func() bool) {
	w.needle = []byte(f.needle())
	full, last := s.frames()
	for _, c := range full {
		if !w.chunk(c, fn) {
			return
		}
	}
	w.chunk(last, fn)
}

// Query returns matching records in sequence order. It decodes only the
// records it returns; their strings are cut from shared chunks
// (codec.Arena) and their details from one slab.
func (s *Store) Query(f Filter) []Record {
	var w walker
	defer w.release()
	var out []Record
	s.each(&w, &f, func() bool {
		if !f.matches(&w.v) {
			return true
		}
		out = append(out, w.record())
		return f.Limit <= 0 || len(out) < f.Limit
	})
	return out
}

// Count returns the number of records matching f without materializing
// them.
func (s *Store) Count(f Filter) int {
	var w walker
	defer w.release()
	n := 0
	s.each(&w, &f, func() bool {
		if f.matches(&w.v) {
			n++
		}
		return true
	})
	return n
}

// view is a record where its frame holds it: each string a slice of the
// frame's bytes.
type view struct {
	seq, nanos                   int64
	hasTime                      bool
	actor, action, target        []byte
	flow, step, outcome, errText []byte
	detail                       [][2][]byte // key, value
}

func (v *view) time() time.Time {
	if !v.hasTime {
		return time.Time{}
	}
	return time.Unix(0, v.nanos).UTC()
}

// walker views the frames of a store one at a time and materialises the
// records a read returns.
type walker struct {
	d codec.Decoder
	v view
	// needle, when set, is what a frame must contain to be viewed at all
	// (Filter.needle).
	needle []byte
	// strs and pairs back the records the walker materialises: the
	// first chunk of each is the size of the first record, and each
	// chunk after it twice the one before, up to the usual size.
	strs  codec.Arena
	pairs Attrs
	began bool
}

// pairsChunk is the most detail pairs one chunk of a walker's slab holds
// before a record needs more.
const pairsChunk = 1024

// chunk views each frame of c in turn, calling fn until it returns
// false; it reports whether fn asked for more. The store wrote or
// replayed every frame it holds, so none fails to parse.
func (w *walker) chunk(c []byte, fn func() bool) bool {
	for off := 0; off < len(c); {
		f, err := codec.NextFrame(c, off)
		if err != nil {
			panic(fmt.Sprintf("provenance: a held frame does not parse: %v", err))
		}
		off = f.End
		if len(w.needle) > 0 && !bytes.Contains(c[f.Body:f.End], w.needle) {
			continue
		}
		if err := w.read(c, f.Body, f.End); err != nil {
			panic(fmt.Sprintf("provenance: a held frame does not decode: %v", err))
		}
		if !fn() {
			return false
		}
	}
	return true
}

// read views the record whose fields are data[body:end], checking them
// as DecodeRecord would.
func (w *walker) read(data []byte, body, end int) error {
	d := &w.d
	d.View(data, body, end)
	v := &w.v
	*v = view{detail: v.detail[:0]}
	for d.Next() {
		switch d.Field() {
		case fSeq:
			v.seq = d.Int()
		case fTime:
			v.nanos, v.hasTime = d.Int(), true
		case fActor:
			v.actor = d.SymBlob()
		case fAction:
			v.action = d.SymBlob()
		case fTarget:
			v.target = d.Blob()
		case fFlow:
			v.flow = d.Blob()
		case fStep:
			v.step = d.Blob()
		case fOutcome:
			v.outcome = d.SymBlob()
		case fErr:
			v.errText = d.Blob()
		case fDetail:
			var kv [2][]byte
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					kv[0] = d.SymBlob()
				case 2:
					kv[1] = d.Blob()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			v.detail = append(v.detail, kv)
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// record materialises the viewed record.
func (w *walker) record() Record {
	v := &w.v
	if !w.began {
		n := len(v.actor) + len(v.action) + len(v.target) + len(v.flow) + len(v.step) + len(v.outcome) + len(v.errText)
		for _, kv := range v.detail {
			n += len(kv[0]) + len(kv[1])
		}
		w.strs.Start(n)
		w.began = true
	}
	r := Record{
		Seq: v.seq, Time: v.time(),
		Actor: w.str(v.actor), Action: w.str(v.action), Target: w.str(v.target),
		FlowID: w.str(v.flow), StepID: w.str(v.step), Outcome: w.str(v.outcome), Err: w.str(v.errText),
	}
	if n := len(v.detail); n > 0 {
		if cap(w.pairs)-len(w.pairs) < n {
			w.pairs = make(Attrs, 0, max(n, min(2*cap(w.pairs), pairsChunk)))
		}
		at := len(w.pairs)
		for _, kv := range v.detail {
			w.pairs = append(w.pairs, Attr{w.str(kv[0]), w.str(kv[1])})
		}
		r.Detail = w.pairs[at:len(w.pairs):len(w.pairs)]
	}
	return r
}

func (w *walker) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return w.strs.Cut(b)
}

// release gives back what the walker's decoder borrowed and lets go of
// the frames it viewed.
func (w *walker) release() {
	w.d.Release()
	clear(w.v.detail)
}
