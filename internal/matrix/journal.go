package matrix

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/provenance"
	"datagridflow/internal/store"
)

// Journal is the engine's crash-recovery log: an append-only JSONL file
// recording, for every execution, its request document at start
// (exec.start), each step that completed (step.done, by restart-stable
// node path) and its terminal state (exec.end). An engine process that
// dies mid-run leaves executions with no exec.end record; a fresh engine
// pointed at the same file resumes exactly those with
// RecoverFromJournal, skipping the steps the journal proves are done.
//
// The journal complements provenance: provenance is the durable audit
// trail (it does not store request documents, and
// RestartFromProvenance therefore needs the caller to resupply them);
// the journal is operational state that makes recovery self-contained.
//
// Appends are group-committed (store.GroupFile): concurrent executions
// share fsyncs instead of serializing on one per record. For segment
// rotation, compaction and passivation on top of this record stream,
// attach a store.Store with SetStore — the flat journal stays as the
// simple single-file option and the wire-compatible baseline.
type Journal struct {
	g      *store.GroupFile
	binary bool
}

// JournalOptions tunes a journal.
type JournalOptions struct {
	// Binary writes records as internal/codec binary frames instead of
	// JSONL (docs/CODEC.md). A journal file holds one encoding: when the
	// file already has content, its sniffed encoding wins over this
	// option, so an existing JSONL journal keeps appending JSONL.
	Binary bool
}

// journalRecord is one journal record. The encoding is shared with the
// flow-state store (internal/store), so a journal file and a store
// segment are the same format — JSONL or binary frames, sniffed from
// the file's first byte.
type journalRecord = store.Record

// Journal record types. deleg.start marks a subflow handed to the
// federation (recovery re-runs it: the remote outcome is unknown — the
// at-least-once caveat in docs/FEDERATION.md); deleg.done marks one
// that completed remotely and is skipped on recovery like step.done.
// The snap/passivate/resurrect/prune types are written on behalf of an
// attached store (docs/STORE.md); RecoverFromJournal honours prune
// tombstones and ignores the rest.
const (
	journalExecStart     = store.TypeExecStart
	journalStepDone      = store.TypeStepDone
	journalDelegStart    = store.TypeDelegStart
	journalDelegDone     = store.TypeDelegDone
	journalExecEnd       = store.TypeExecEnd
	journalExecSnap      = store.TypeExecSnap
	journalExecPassivate = store.TypeExecPassivate
	journalExecResurrect = store.TypeExecResurrect
	journalExecPrune     = store.TypeExecPrune
)

// OpenJournal opens (creating if needed) an append-mode JSONL journal
// file (an existing file keeps its sniffed encoding).
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalOptions(path, JournalOptions{})
}

// OpenJournalOptions opens a journal with explicit options.
func OpenJournalOptions(path string, opt JournalOptions) (*Journal, error) {
	binary := opt.Binary
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		// Sticky encoding: never mix encodings within one file.
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("matrix: open journal: %w", err)
		}
		var b [1]byte
		_, rerr := io.ReadFull(f, b[:])
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("matrix: open journal: %w", rerr)
		}
		binary = b[0] == codec.Magic
	}
	g, err := store.OpenGroupFile(path)
	if err != nil {
		return nil, fmt.Errorf("matrix: open journal: %w", err)
	}
	return &Journal{g: g, binary: binary}, nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error { return j.g.Close() }

// Path returns the journal's file path — pass it to RecoverFromJournal
// after a restart.
func (j *Journal) Path() string { return j.g.Path() }

// append writes one record and blocks until it is on disk — a crashed
// process must not lose acknowledged step completions. Concurrent
// appenders share a group commit.
func (j *Journal) append(rec journalRecord) error {
	if j.binary {
		enc := codec.GetEncoder()
		codec.AppendRecordFrame(enc, &rec)
		err := j.g.AppendRaw(enc.Bytes())
		codec.PutEncoder(enc)
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.g.Append(data)
}

// SetJournal attaches (or, with nil, detaches) the engine's execution
// journal. Every execution started afterwards records its lifecycle.
func (e *Engine) SetJournal(j *Journal) {
	if j != nil {
		j.g.SetObs(e.Obs())
	}
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// Journal returns the attached journal, or nil.
func (e *Engine) Journal() *Journal {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.journal
}

// journaling reports whether any durable record sink (journal or
// store) is attached — the gate for paying request-marshal costs.
func (e *Engine) journaling() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.journal != nil || e.store != nil
}

// journalAppend best-effort writes a lifecycle record to every attached
// sink (no-op when neither a journal nor a store is attached). Whether
// the store write waits for its fsync is the record type's to say
// (storeRecord): a step.done is written and left to ride the next commit.
func (e *Engine) journalAppend(rec journalRecord) {
	e.mu.RLock()
	j, st := e.journal, e.store
	e.mu.RUnlock()
	if j == nil && st == nil {
		return
	}
	rec.Time = e.Clock().Now()
	if j != nil {
		if err := j.append(rec); err == nil {
			e.Obs().Counter("matrix_journal_records_total", "type", rec.Type).Inc()
		}
	}
	if st != nil {
		if err := storeRecord(st, rec); err != nil {
			// A dead store must not stop the engine, but it must not die
			// silently either: a restart would replay stale state.
			e.Obs().Counter("store_append_errors_total").Inc()
		} else {
			e.chargeRecord(&rec)
		}
	}
}

// storeRecord writes rec to st with the verb its type calls for: Append
// where the writer waits for the fsync, Write where it does not.
func storeRecord(st *store.Store, rec journalRecord) error {
	if fsync, _ := store.Waits(rec.Type); fsync {
		return st.Append(rec)
	}
	return st.Write(rec)
}

// mirrorToJournal best-effort writes a record to the flat journal only
// (no-op when none is attached) — used for the passivation markers that
// journal-only recovery needs in order to exclude parked flows, which
// otherwise reach just the store via storeAppend.
func (e *Engine) mirrorToJournal(rec journalRecord) {
	e.mu.RLock()
	j := e.journal
	e.mu.RUnlock()
	if j == nil {
		return
	}
	rec.Time = e.Clock().Now()
	if err := j.append(rec); err == nil {
		e.Obs().Counter("matrix_journal_records_total", "type", rec.Type).Inc()
	}
}

// RecoverFromJournal replays a journal file and resumes every execution
// it proves incomplete — those with an exec.start but no exec.end, i.e.
// runs a crashed engine process abandoned mid-flight. Each is restarted
// asynchronously on this engine under a fresh id, skipping the steps
// whose step.done records survive; the returned executions are in
// journal order. Terminally failed executions are not recovered (their
// exec.end is on record) — use Restart or RestartFromProvenance for
// those. Pruned executions (exec.prune tombstones) are never recovered,
// and neither are passivated ones (exec.passivate without a later
// exec.resurrect): they live in the flow-state store and resurrect on
// demand — re-running them here from scratch would duplicate their
// work under a fresh id.
func (e *Engine) RecoverFromJournal(path string) ([]*Execution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: journal %s: %v", dgferr.ErrNotFound, path, err)
	}
	defer f.Close()
	// The body below folds records regardless of encoding;
	// scanJournalRecords sniffs JSONL vs binary frames per file.
	type pending struct {
		req        *dgl.Request
		skip       map[string]bool
		passivated bool
	}
	open := map[string]*pending{}
	var order []string
	fold := func(rec *journalRecord, line int) error {
		switch rec.Type {
		case journalExecStart:
			// Decode only: validation runs below against this engine's
			// full operation registry, not the built-ins alone.
			req, err := codec.DecodeRequestDoc(rec.Request)
			if err != nil {
				return fmt.Errorf("%w: journal %s record %d: %v", dgferr.ErrInvalid, path, line, err)
			}
			open[rec.ID] = &pending{req: req, skip: map[string]bool{}}
			order = append(order, rec.ID)
		case journalStepDone, journalDelegDone:
			if p := open[rec.ID]; p != nil {
				p.skip[rec.Node] = true
			}
		case journalExecPassivate:
			if p := open[rec.ID]; p != nil {
				p.passivated = true
			}
		case journalExecResurrect:
			if p := open[rec.ID]; p != nil {
				p.passivated = false
			}
		case journalExecEnd, journalExecPrune:
			delete(open, rec.ID)
		}
		return nil
	}
	if err := scanJournalRecords(path, f, fold); err != nil {
		return nil, err
	}
	var out []*Execution
	for _, id := range order {
		p, ok := open[id]
		if !ok {
			continue
		}
		if p.passivated {
			continue
		}
		if err := dgl.ValidateFlow(p.req.Flow, e.knownOps()); err != nil {
			return out, fmt.Errorf("matrix: journal %s: execution %s: %w", path, id, err)
		}
		next := e.newExecution(p.req, p.skip, nil)
		e.Obs().Counter("matrix_recoveries_total").Inc()
		e.record(provenance.Record{
			Actor: p.req.User.Name, Action: "flow.recover",
			FlowID: next.ID, Target: p.req.Flow.Name,
			Detail: map[string]string{"prior": id, "steps-done": strconv.Itoa(len(p.skip))},
		})
		go next.run()
		out = append(out, next)
	}
	return out, nil
}

// scanJournalRecords streams every record of a journal file into fold,
// sniffing the encoding from the first byte: JSONL or binary frames. A
// torn trailing binary frame — a crash mid-append — ends the scan
// cleanly, mirroring how JSONL recovery treats an unterminated final
// line (the scanner simply never yields it as a complete record).
func scanJournalRecords(path string, f *os.File, fold func(*journalRecord, int) error) error {
	r := bufio.NewReaderSize(f, 1<<20)
	if first, err := r.Peek(1); err == nil && first[0] == codec.Magic {
		sc := codec.NewFrameScanner(r)
		var rd codec.RecordDecoder
		n := 0
		for {
			_, payload, err := sc.Next()
			if err == io.EOF || errors.Is(err, codec.ErrTorn) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("matrix: journal %s: %w", path, err)
			}
			n++
			rec, err := rd.Decode(payload)
			if err != nil {
				return fmt.Errorf("%w: journal %s record %d: %v", dgferr.ErrInvalid, path, n, err)
			}
			if err := fold(&rec, n); err != nil {
				return err
			}
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("%w: journal %s line %d: %v", dgferr.ErrInvalid, path, line, err)
		}
		if err := fold(&rec, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("matrix: journal %s: %w", path, err)
	}
	return nil
}
