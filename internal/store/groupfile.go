package store

import (
	"fmt"
	"os"
	"sync"
	"time"

	"datagridflow/internal/obs"
)

// Linger bounds how long a record written without waiting for its sync
// (WriteBlock followed by SyncSoon) can stay in the
// OS buffer when nobody else commits: a background sync covers it within
// 2×Linger of the write. It is the whole durability window a crash can
// cost such a record, so it is a constant, not a setting — long enough
// that a busy file never sees the timer sync (a waited commit gets there
// first), short enough that re-running the lost work is cheaper than
// having waited (docs/STORE.md, "Durability").
const Linger = 5 * time.Millisecond

// GroupFile is an append-only file of binary frames with group-committed
// durability: concurrent appenders write their blocks of frames
// immediately (WriteBlock) but share fsyncs. One appender becomes the
// syncer for everything written so far; the rest wait until a sync covers
// their block. Under N concurrent writers this turns N fsyncs into
// roughly one per batch without weakening the guarantee — Sync(ticket)
// returns only once the records the ticket covers are on stable storage.
//
// The store's segments, the virtual-data catalog's log and the provenance
// log write through GroupFile: per-record fsyncs would serialize their
// writers.
type GroupFile struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	path string
	size int64

	writeSeq int64 // records written
	syncSeq  int64 // records proven on disk
	syncing  bool
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

	reg *obs.Registry
}

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
	g.reg = reg
	g.mu.Unlock()
}

// Size returns the current byte size (initial size plus appends).
func (g *GroupFile) Size() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.size
}

// WriteBlock appends a block of pre-serialized records — binary frames,
// already framed by the caller — in ONE write syscall,
// and returns a commit ticket covering all of them for Sync. The block
// is in the OS buffer but not yet durable. A batch encodes N records
// into one buffer, pays one write and (via Sync) one shared fsync, yet
// each record still counts toward the group-commit record metrics.
func (g *GroupFile) WriteBlock(block []byte, records int64) (int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, fmt.Errorf("store: %s: %w", g.path, os.ErrClosed)
	}
	if g.err != nil {
		return 0, g.err
	}
	if _, err := g.f.Write(block); err != nil {
		g.err = err
		g.cond.Broadcast()
		return 0, err
	}
	g.size += int64(len(block))
	g.writeSeq += records
	return g.writeSeq, nil
}

// Sync blocks until the records with the given ticket are durable. The
// first caller to arrive while no sync is running fsyncs on behalf of
// every record written so far; later callers piggyback on that commit.
func (g *GroupFile) Sync(ticket int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		if g.syncSeq >= ticket {
			return nil
		}
		if g.closed {
			return fmt.Errorf("store: %s: %w", g.path, os.ErrClosed)
		}
		if !g.syncing {
			g.syncing = true
			target := g.writeSeq
			covered := target - g.syncSeq
			g.mu.Unlock()
			err := g.f.Sync()
			g.mu.Lock()
			g.syncing = false
			if err != nil {
				g.err = err
			} else {
				g.syncSeq = target
				if g.reg != nil {
					g.reg.Counter("journal_group_commits_total").Inc()
					g.reg.Counter("journal_group_commit_records_total").Add(covered)
				}
			}
			g.cond.Broadcast()
			continue
		}
		g.cond.Wait()
	}
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
// carry them. A failed background sync poisons the file like any other.
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

// Close performs a final sync covering every written record, wakes all
// waiters and closes the file. Waiters whose records made it to disk
// return nil; later writes fail with os.ErrClosed. A failed final sync
// is Close's error: records written without waiting have no other caller
// to hear of it.
func (g *GroupFile) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.syncing {
		g.cond.Wait()
	}
	if g.closed {
		return nil
	}
	var syncErr error
	if g.err == nil && g.syncSeq < g.writeSeq {
		if syncErr = g.f.Sync(); syncErr != nil {
			g.err = syncErr
		} else {
			g.syncSeq = g.writeSeq
		}
	}
	if g.linger != nil {
		g.linger.Stop() // a firing already under way finds the file closed
	}
	g.closed = true
	g.cond.Broadcast()
	if err := g.f.Close(); syncErr == nil {
		syncErr = err
	}
	return syncErr
}
