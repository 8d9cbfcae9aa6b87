package store

import (
	"fmt"
	"os"
	"sync"
	"time"

	"datagridflow/internal/obs"
)

// Linger bounds how long a record written without waiting for its sync
// (WriteBlock followed by SyncSoon) can stay in the process when nobody
// else commits: a background sync writes and fsyncs it within 2×Linger
// of the write. It is the whole durability window a crash can cost such
// a record, so it is a constant, not a setting — long enough that a busy
// file never sees the timer sync (a waited commit gets there first),
// short enough that re-running the lost work is cheaper than having
// waited (docs/STORE.md, "Durability").
const Linger = 5 * time.Millisecond

// GroupFile is an append-only file of binary frames with group-committed
// durability. A writer's block of frames joins an in-memory tail
// (WriteBlock) and costs no syscall; whoever syncs first — a waited
// Sync, the linger, Close — takes the whole tail and hands it to the OS
// in one write followed by one fsync, on behalf of every writer so far.
// The rest wait until a sync covers their block. Under N concurrent
// writers this turns N writes and N fsyncs into roughly one of each per
// batch without weakening the guarantee — Sync(ticket) returns only once
// the records the ticket covers are on stable storage.
//
// One flush runs at a time and each takes the tail whole, so the file
// holds the blocks in ticket order. A failed write or fsync poisons the
// file: every later call returns that error.
//
// The store's segments, the virtual-data catalog's log and the provenance
// log write through GroupFile: per-record syscalls under their locks
// would serialize their writers.
type GroupFile struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	path string
	size int64 // bytes in the file plus bytes in the tail

	// tail holds the frames written since the last flush took it, or is
	// nil: it comes from tails at the first write after a flush and goes
	// back once the flush has written it, so an idle file holds none.
	tail *[]byte

	writeSeq int64 // records written (the newest ticket)
	outSeq   int64 // records handed to the OS
	syncSeq  int64 // records proven on disk
	flushing bool
	closed   bool
	err      error // sticky: first write/sync failure poisons the file

	// The linger (SyncSoon): one reusable timer per file. lingering is
	// true from arming until the firing that syncs or finds nothing left
	// to sync; lingerSeq is the newest record the current wait is for.
	linger    *time.Timer
	lingering bool
	lingerSeq int64
	// onLinger is told, with no lock held, the outcome of every sync the
	// timer ran — the only syncs no caller is waiting on. The store sets
	// it when it opens a segment, before anything else can reach the file.
	onLinger func(error)

	// commits and covered are journal_group_commits_total and
	// journal_group_commit_records_total, resolved by SetObs; nil without
	// a registry.
	commits, covered *obs.Counter
}

// tails holds the buffers of frames written and not yet flushed, shared
// by every GroupFile: a file holds one only between a write and the
// flush that empties it.
var tails = sync.Pool{New: func() any { return new([]byte) }}

// OpenGroupFile opens (creating if needed) path in append mode.
func OpenGroupFile(path string) (*GroupFile, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	g := &GroupFile{f: f, path: path, size: size}
	g.cond = sync.NewCond(&g.mu)
	return g, nil
}

// SetObs attaches a metrics registry; each group commit then counts
// toward journal_group_commits_total and the records it covered toward
// journal_group_commit_records_total.
func (g *GroupFile) SetObs(reg *obs.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.commits, g.covered = nil, nil
	if reg != nil {
		g.commits = reg.Counter("journal_group_commits_total")
		g.covered = reg.Counter("journal_group_commit_records_total")
	}
}

// Size returns the current byte size: the initial size plus every block
// written, whether or not a flush has handed it to the OS yet.
func (g *GroupFile) Size() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.size
}

// WriteBlock appends a block of pre-serialized records — binary frames,
// already framed by the caller — to the file's tail, and returns a
// commit ticket covering all of them for Sync. It makes no syscall: the
// block reaches the file with the next flush, in the one write that
// precedes its fsync, and until then it is only in this process. A batch
// encodes N records into one buffer and still counts each of them toward
// the group-commit record metrics. The caller may reuse block once
// WriteBlock returns.
func (g *GroupFile) WriteBlock(block []byte, records int64) (int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, fmt.Errorf("store: %s: %w", g.path, os.ErrClosed)
	}
	if g.err != nil {
		return 0, g.err
	}
	if g.tail == nil {
		g.tail = tails.Get().(*[]byte)
	}
	*g.tail = append(*g.tail, block...)
	g.size += int64(len(block))
	g.writeSeq += records
	return g.writeSeq, nil
}

// writeThrough is WriteBlock for a writer that must see its block in the
// file, though not on stable storage, when the call returns: the tail
// and then the block are handed to the OS before it does. A replica
// acknowledges its owner on that write (docs/REPLICATION.md).
func (g *GroupFile) writeThrough(block []byte, records int64) (int64, error) {
	ticket, err := g.WriteBlock(block, records)
	if err == nil {
		err = g.await(ticket, false)
	}
	return ticket, err
}

// Sync blocks until the records with the given ticket are durable. The
// first caller to arrive while no flush is running writes and fsyncs on
// behalf of every record written so far; later callers piggyback on that
// commit.
func (g *GroupFile) Sync(ticket int64) error {
	return g.await(ticket, true)
}

// await returns once the records up to ticket are in the file — on
// stable storage too when durable is set — flushing the tail itself
// when no flush is running.
func (g *GroupFile) await(ticket int64, durable bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		done := g.outSeq
		if durable {
			done = g.syncSeq
		}
		if done >= ticket {
			return nil
		}
		if g.flushing {
			g.cond.Wait()
			continue
		}
		if g.closed {
			return fmt.Errorf("store: %s: %w", g.path, os.ErrClosed)
		}
		g.flushLocked(durable)
	}
}

// flushLocked takes the tail, writes it in one syscall and, when durable
// is set, fsyncs, with g.mu released for the I/O; then it records the
// outcome and wakes every waiter. A failure poisons the file. Caller
// holds g.mu, and no flush is running.
func (g *GroupFile) flushLocked(durable bool) {
	g.flushing = true
	target, tail := g.writeSeq, g.tail
	g.tail = nil
	g.mu.Unlock()
	var err error
	if tail != nil {
		_, err = g.f.Write(*tail)
		*tail = (*tail)[:0]
		tails.Put(tail)
	}
	if err == nil && durable {
		err = g.f.Sync()
	}
	g.mu.Lock()
	g.flushing = false
	switch {
	case err != nil:
		g.err = err
	case durable:
		if g.commits != nil {
			g.commits.Inc()
			g.covered.Add(target - g.syncSeq)
		}
		g.outSeq, g.syncSeq = target, target
	default:
		g.outSeq = target
	}
	g.cond.Broadcast()
}

// syncedSeq returns the highest ticket proven on disk.
func (g *GroupFile) syncedSeq() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncSeq
}

// SyncSoon promises that everything written so far is synced within
// 2×Linger even if no caller ever waits on it: the writer of a record
// nobody was promised (a step.done, a vdata put, a provenance record)
// calls it in place of Sync. A waited commit that gets there first makes
// the timer's firing free; records still unsynced then, all younger than
// the one that armed it, get one more Linger for a commit of their own to
// carry them. A failed background write or sync poisons the file like
// any other.
func (g *GroupFile) SyncSoon() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lingering || g.closed || g.err != nil || g.syncSeq >= g.writeSeq {
		return
	}
	g.lingering = true
	g.lingerSeq = g.writeSeq
	if g.linger == nil {
		g.linger = time.AfterFunc(Linger, g.lingerFired)
	} else {
		g.linger.Reset(Linger)
	}
}

func (g *GroupFile) lingerFired() {
	g.mu.Lock()
	if g.closed || g.err != nil {
		g.lingering = false
		g.mu.Unlock()
		return
	}
	if g.syncSeq >= g.lingerSeq {
		// A waited commit got there first. What is unsynced now is
		// younger than what armed the timer: it gets a wait of its own.
		if g.syncSeq < g.writeSeq {
			g.lingerSeq = g.writeSeq
			g.linger.Reset(Linger)
		} else {
			g.lingering = false
		}
		g.mu.Unlock()
		return
	}
	g.lingering = false
	ticket, notify := g.writeSeq, g.onLinger
	g.mu.Unlock()
	err := g.Sync(ticket)
	if notify != nil {
		notify(err)
	}
}

// Close performs a final flush covering every written record, wakes all
// waiters and closes the file. Waiters whose records made it to disk
// return nil; later writes fail with os.ErrClosed. A failed final write
// or sync is Close's error: records written without waiting have no
// other caller to hear of it.
func (g *GroupFile) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.flushing {
		g.cond.Wait()
	}
	if g.closed {
		return nil
	}
	g.closed = true // no write from here on: the final flush is final
	var syncErr error
	if g.err == nil && g.syncSeq < g.writeSeq {
		g.flushLocked(true)
		syncErr = g.err
	}
	if g.tail != nil {
		// Written after a failure poisoned the file: never to be written.
		*g.tail = (*g.tail)[:0]
		tails.Put(g.tail)
		g.tail = nil
	}
	if g.linger != nil {
		g.linger.Stop() // a firing already under way finds the file closed
	}
	g.cond.Broadcast()
	if err := g.f.Close(); syncErr == nil {
		syncErr = err
	}
	return syncErr
}
