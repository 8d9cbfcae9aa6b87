// Package provenance implements the durable audit trail a Datagridflow
// Management System must keep: every DGMS operation and every flow/step
// transition is recorded, and the records can be queried "even (years)
// after the execution" (paper §2.1). Records append to an in-memory index
// and, optionally, to a log that survives process restarts: a file of
// binary frames (codec.MsgProv) written through the store's
// group-committed writer (store.GroupFile) and replayed by its frame walk
// (store.FrameFile).
package provenance

import (
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

// Get returns the value of key, or "" when there is no such pair.
func (d Attrs) Get(key string) string {
	for _, a := range d {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

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

// DecodeRecord reads a record's fields from d into r, up to the end of
// the message d is positioned in; unknown fields are skipped. The detail
// pairs are appended to r.Detail, so a caller may hand in a buffer to
// reuse. Decode errors are d's (d.Err).
func DecodeRecord(d *codec.Decoder, r *Record) {
	for d.Next() {
		switch d.Field() {
		case fSeq:
			r.Seq = d.Int()
		case fTime:
			r.Time = time.Unix(0, d.Int()).UTC()
		case fActor:
			r.Actor = d.Sym()
		case fAction:
			r.Action = d.Sym()
		case fTarget:
			r.Target = d.Str()
		case fFlow:
			r.FlowID = d.Str()
		case fStep:
			r.StepID = d.Str()
		case fOutcome:
			r.Outcome = d.Sym()
		case fErr:
			r.Err = d.Str()
		case fDetail:
			var a Attr
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					a.Key = d.Sym()
				case 2:
					a.Value = d.Str()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Detail = append(r.Detail, a)
		default:
			d.Skip()
		}
	}
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("provenance: store closed")

// Store is an append-only provenance log. The zero value is not usable;
// construct with NewMemory or Open.
type Store struct {
	mu      sync.RWMutex
	records []Record
	// slab backs the records' details, slabChunk pairs to an allocation:
	// a record's Detail is a slice of it, never grown once handed out.
	slab    []Attr
	nextSeq int64
	// log is nil for a memory-only store; ticket is the commit ticket of
	// the last record written to it, the one Flush waits for.
	log    *store.GroupFile
	ticket int64
	closed bool
}

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
// frame walk. A record's detail goes into the slab, as Append puts it,
// and numbering continues after the highest seq.
func (s *Store) replay(path string) error {
	var log store.FrameFile
	if _, err := log.Read(path, codec.MsgProv, true); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("provenance: %w", err)
	}
	s.records = make([]Record, 0, len(log.Frames))
	var pairs Attrs // decoded into, then copied to the slab
	for i, f := range log.Frames {
		d := codec.NewFieldsDecoder(log.Buf, f.Body, f.End)
		r := Record{Detail: pairs[:0]}
		DecodeRecord(&d, &r)
		d.Release()
		if err := d.Err(); err != nil {
			return fmt.Errorf("provenance: %s frame %d: %v: %w", path, i+1, err, dgferr.ErrInvalid)
		}
		pairs, r.Detail = r.Detail, s.keep(r.Detail)
		s.records = append(s.records, r)
		s.nextSeq = max(s.nextSeq, r.Seq+1)
	}
	return nil
}

// slabChunk is how many detail pairs one allocation of a store's slab
// holds: a few hundred records' worth.
const slabChunk = 1024

// Append records r, assigning and returning its sequence number. The
// record's Detail is detail, sorted by key; r.Detail is not read. The
// pairs are copied into the store, so detail does not escape: a caller
// may build it on its stack. A closed store copies nothing.
//
// The detail is an argument of its own because escape analysis does
// not tell a struct's fields apart: r's strings are kept, so a Detail
// set in r would be kept too, and have to be built on the heap.
//
// A file-backed store writes the record to its log before returning but
// does not wait for the sync: a record is a memo, on disk within
// 2×store.Linger or at the next Flush (docs/STORE.md, "Durability"). It
// refuses, with dgferr.ErrInvalid, a record too large for one frame
// (codec.MaxFrameBody), which is then neither kept nor numbered.
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
	r.Detail = s.keep(detail)
	if s.log != nil {
		if err := s.write(&r); err != nil {
			// Give the slab back the pairs keep took for r.
			clear(r.Detail)
			s.slab = s.slab[:len(s.slab)-len(r.Detail)]
			return 0, err
		}
	}
	s.nextSeq++
	s.records = append(s.records, r)
	return r.Seq, nil
}

// write appends r to the log as one frame — under s.mu, so frames land
// in seq order — and leaves its sync to the linger.
func (s *Store) write(r *Record) error {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	mark := enc.BeginFrame(codec.MsgProv)
	AppendRecord(enc, r)
	enc.EndFrame(mark)
	if enc.Len() > codec.MaxFrameBody {
		return fmt.Errorf("provenance: a %q record encodes to %d bytes, over the %d-byte frame limit: %w",
			r.Action, enc.Len(), codec.MaxFrameBody, dgferr.ErrInvalid)
	}
	ticket, err := s.log.WriteBlock(enc.Bytes(), 1)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	s.ticket = ticket
	s.log.SyncSoon()
	return nil
}

// keep copies detail into the slab, sorted by key.
func (s *Store) keep(detail []Attr) Attrs {
	if len(detail) == 0 {
		return nil
	}
	if cap(s.slab)-len(s.slab) < len(detail) {
		s.slab = make([]Attr, 0, max(slabChunk, len(detail)))
	}
	at := len(s.slab)
	s.slab = append(s.slab, detail...)
	kept := Attrs(s.slab[at:len(s.slab):len(s.slab)])
	sortAttrs(kept)
	return kept
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

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
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

func (f Filter) matches(r Record) bool {
	if f.FlowID != "" && r.FlowID != f.FlowID {
		return false
	}
	if f.StepID != "" && r.StepID != f.StepID {
		return false
	}
	if f.Actor != "" && r.Actor != f.Actor {
		return false
	}
	if f.Action != "" && r.Action != f.Action {
		return false
	}
	if f.ActionPrefix != "" && !strings.HasPrefix(r.Action, f.ActionPrefix) {
		return false
	}
	if f.TargetPrefix != "" && !strings.HasPrefix(r.Target, f.TargetPrefix) {
		return false
	}
	if f.Outcome != "" && r.Outcome != f.Outcome {
		return false
	}
	if !f.Since.IsZero() && r.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !r.Time.Before(f.Until) {
		return false
	}
	return true
}

// Query returns matching records in sequence order.
func (s *Store) Query(f Filter) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, r := range s.records {
		if !f.matches(r) {
			continue
		}
		out = append(out, r)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Count returns the number of records matching f without materializing
// them.
func (s *Store) Count(f Filter) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.records {
		if f.matches(r) {
			n++
		}
	}
	return n
}

// Last returns the most recent record matching f, if any.
func (s *Store) Last(f Filter) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := len(s.records) - 1; i >= 0; i-- {
		if f.matches(s.records[i]) {
			return s.records[i], true
		}
	}
	return Record{}, false
}
