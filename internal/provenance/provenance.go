// Package provenance implements the durable audit trail a Datagridflow
// Management System must keep: every DGMS operation and every flow/step
// transition is recorded, and the records can be queried "even (years)
// after the execution" (paper §2.1). Records append to an in-memory index
// and, optionally, to a JSON-lines file that survives process restarts.
package provenance

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
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
	Seq int64 `json:"seq"`
	// Time is the (simulated) instant of the operation.
	Time time.Time `json:"time"`
	// Actor is the grid user or system component that acted.
	Actor string `json:"actor,omitempty"`
	// Action names the operation ("ingest", "replicate", "step.start", ...).
	Action string `json:"action"`
	// Target is the logical path or id acted on.
	Target string `json:"target,omitempty"`
	// FlowID and StepID tie the record to a datagridflow execution.
	FlowID string `json:"flow_id,omitempty"`
	StepID string `json:"step_id,omitempty"`
	// Outcome is OutcomeOK, OutcomeError or OutcomeSkipped.
	Outcome string `json:"outcome"`
	// Err carries the error text when Outcome is OutcomeError.
	Err string `json:"err,omitempty"`
	// Detail holds free-form key/value context (sizes, resources, ...),
	// sorted by key. Keys are unique within a record.
	Detail Attrs `json:"detail,omitempty"`
}

// Attr is one key/value pair of a record's detail.
type Attr struct {
	Key, Value string
}

// Attrs is a record's detail, a list of pairs. It encodes as a JSON
// object with its keys sorted: the bytes a map of the pairs encodes to,
// the form provenance files hold.
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

// MarshalJSON writes the pairs as the object a map of them encodes to.
func (d Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]string, len(d))
	for _, a := range d {
		m[a.Key] = a.Value
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads the object MarshalJSON writes, keys sorted.
func (d *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*d = nil
	for k, v := range m {
		*d = append(*d, Attr{Key: k, Value: v})
	}
	sortAttrs(*d)
	return nil
}

func sortAttrs(d Attrs) {
	slices.SortFunc(d, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
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
	w       *bufio.Writer // nil for memory-only stores
	f       *os.File
	closed  bool
}

// NewMemory returns a store that keeps records only in memory.
func NewMemory() *Store {
	return &Store{nextSeq: 1}
}

// Open returns a store persisted to the JSON-lines file at path, loading
// any records already present — this is what lets an auditor query flows
// that ran in past processes.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("provenance: open %s: %w", path, err)
	}
	s := &Store{nextSeq: 1, f: f}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r Record
		if err := dec.Decode(&r); err != nil {
			if err == io.EOF {
				break
			}
			f.Close()
			return nil, fmt.Errorf("provenance: corrupt log %s: %w", path, err)
		}
		s.records = append(s.records, r)
		if r.Seq >= s.nextSeq {
			s.nextSeq = r.Seq + 1
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	s.w = bufio.NewWriter(f)
	return s, nil
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
	s.nextSeq++
	r.Detail = s.keep(detail)
	s.records = append(s.records, r)
	if s.w != nil {
		b, err := json.Marshal(r)
		if err != nil {
			return 0, fmt.Errorf("provenance: marshal: %w", err)
		}
		if _, err := s.w.Write(append(b, '\n')); err != nil {
			return 0, fmt.Errorf("provenance: write: %w", err)
		}
	}
	return r.Seq, nil
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

// Flush forces buffered records to the underlying file.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.w != nil {
		return s.w.Flush()
	}
	return nil
}

// Close flushes and closes the backing file (if any). The in-memory index
// stays readable after Close for final reporting, but appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			s.f.Close()
			return err
		}
		return s.f.Close()
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
