package store

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// refGroupFile is the GroupFile that wrote every block with its own
// write syscall, under its lock, at WriteBlock — kept as the reference
// FuzzGroupFileMatchesWritePerBlock holds the tail-flushing one to. It
// has no writeThrough: every WriteBlock of it was one.
type refGroupFile struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	path string
	size int64

	writeSeq int64
	syncSeq  int64
	syncing  bool
	closed   bool
	err      error

	linger    *time.Timer
	lingering bool
	lingerSeq int64
}

func openRefGroupFile(path string) (*refGroupFile, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	g := &refGroupFile{f: f, path: path, size: size}
	g.cond = sync.NewCond(&g.mu)
	return g, nil
}

func (g *refGroupFile) Size() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.size
}

func (g *refGroupFile) WriteBlock(block []byte, records int64) (int64, error) {
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

func (g *refGroupFile) Sync(ticket int64) error {
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
			g.mu.Unlock()
			err := g.f.Sync()
			g.mu.Lock()
			g.syncing = false
			if err != nil {
				g.err = err
			} else {
				g.syncSeq = target
			}
			g.cond.Broadcast()
			continue
		}
		g.cond.Wait()
	}
}

func (g *refGroupFile) SyncSoon() {
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

func (g *refGroupFile) lingerFired() {
	g.mu.Lock()
	if g.closed || g.err != nil {
		g.lingering = false
		g.mu.Unlock()
		return
	}
	if g.syncSeq >= g.lingerSeq {
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
	ticket := g.writeSeq
	g.mu.Unlock()
	_ = g.Sync(ticket)
}

func (g *refGroupFile) Close() error {
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
		g.linger.Stop()
	}
	g.closed = true
	g.cond.Broadcast()
	if err := g.f.Close(); syncErr == nil {
		syncErr = err
	}
	return syncErr
}
