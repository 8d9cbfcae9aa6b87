package replica

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"datagridflow/internal/codec"
	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

// ReceiverConfig configures a Receiver.
type ReceiverConfig struct {
	// Dir is the replica root; each source gets <Dir>/<source>.
	Dir string
	// Binary is ignored: a replica store is binary, its segments the
	// blocks its owner shipped. The field goes once the benchmark stops
	// setting it (ROADMAP item 16).
	Binary bool
	// Obs receives the repl_* metrics. Optional.
	Obs *obs.Registry
}

// SourceStatus is one replicated source's position, for `dgfctl repl`.
type SourceStatus struct {
	Source   string `json:"source"`
	LastSeq  uint64 `json:"lastSeq"`
	Live     int    `json:"live"`
	Promoted bool   `json:"promoted"`
}

// Receiver applies replicate frames into one real store.Store per
// source under Dir, each block written as it came (store.AppendFrames):
// the replica's segments hold the owner's bytes, and torn-tail repair,
// per-segment encoding sniffing and O(live) recovery all come for free
// at promotion time — Promote is just Live() on the replica.
type Receiver struct {
	cfg ReceiverConfig

	mu      sync.Mutex
	sources map[string]*source
	closed  bool
}

type source struct {
	mu sync.Mutex
	st *store.Store
	// lastSeq is the highest contiguous owner sequence applied. It is
	// not persisted: a receiver restart reports 0, the next frame is a
	// gap, and the owner re-syncs by snapshot.
	lastSeq  uint64
	promoted bool
}

// NewReceiver opens a receiver, discovering replica stores left on disk
// by a previous run — their entries remain promotable even though their
// cursors restart at 0.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: receiver needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	r := &Receiver{cfg: cfg, sources: map[string]*source{}}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			r.sources[ent.Name()] = &source{}
		}
	}
	return r, nil
}

// validSource rejects source names that would escape Dir.
func validSource(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\")
}

// open lazily opens (or creates) the replica store for a source.
// Caller holds src.mu.
func (r *Receiver) open(name string, src *source) error {
	if src.st != nil {
		return nil
	}
	// A replica acks on the OS write, not the fsync (AppendFrames): the
	// owner's copy and the gap→snapshot re-sync are its durability
	// backstop, and waiting out an fsync per frame would put a disk
	// flush on every quorum-acked owner append.
	st, err := store.Open(filepath.Join(r.cfg.Dir, name), store.Options{Obs: r.cfg.Obs})
	if err != nil {
		return err
	}
	src.st = st
	return nil
}

func (r *Receiver) source(name string) (*source, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("replica: receiver closed")
	}
	src := r.sources[name]
	if src == nil {
		src = &source{}
		r.sources[name] = src
	}
	return src, nil
}

// Apply folds one replicate frame into the source's replica store and
// returns the ack the sender acts on. Idempotent under replays: a frame
// whose records are all at or below the cursor is acknowledged without
// re-applying (duplicate-frame delivery after a reconnect), an
// overlapping frame applies only its unseen suffix, and a frame beyond
// the cursor requests a snapshot.
func (r *Receiver) Apply(f Frame) Ack {
	if !validSource(f.Source) {
		return Ack{Error: fmt.Sprintf("replica: bad source %q", f.Source)}
	}
	src, err := r.source(f.Source)
	if err != nil {
		return Ack{Error: err.Error()}
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	var ack Ack
	switch f.Op {
	case OpSnapshot:
		ack = r.applySnapshot(src, f)
	case OpAppend:
		ack = r.applyAppend(src, f)
	default:
		return Ack{Error: fmt.Sprintf("replica: unknown op %q", f.Op)}
	}
	if ack.OK {
		r.count("repl_frames_applied_total", "op", f.Op)
		if r.cfg.Obs != nil {
			r.cfg.Obs.Gauge("repl_source_last_seq", "source", f.Source).Set(int64(src.lastSeq))
		}
	}
	return ack
}

// applySnapshot discards the replica and rebuilds it from the frame. A
// block that would be refused is refused before anything is discarded.
// Caller holds src.mu.
func (r *Receiver) applySnapshot(src *source, f Frame) Ack {
	if err := store.CheckFrames(f.Block, f.Count); err != nil {
		return Ack{Error: err.Error()}
	}
	if src.st != nil {
		_ = src.st.Close()
		src.st = nil
	}
	dir := filepath.Join(r.cfg.Dir, f.Source)
	if err := os.RemoveAll(dir); err != nil {
		return Ack{Error: fmt.Sprintf("replica: reset %s: %v", f.Source, err)}
	}
	if err := r.open(f.Source, src); err != nil {
		return Ack{Error: err.Error()}
	}
	if err := src.st.AppendFrames(f.Block, f.Count); err != nil {
		return Ack{Error: err.Error()}
	}
	src.lastSeq = f.Seq
	src.promoted = false
	r.count("repl_snapshots_applied_total")
	return Ack{OK: true, AckSeq: src.lastSeq}
}

// applyAppend applies an append frame at the cursor. Caller holds
// src.mu.
func (r *Receiver) applyAppend(src *source, f Frame) Ack {
	if f.Count <= 0 {
		return Ack{Error: "replica: empty append frame"}
	}
	end := f.Seq + uint64(f.Count) - 1
	if end <= src.lastSeq {
		// Replayed duplicate (sender retry after reconnect): already
		// applied, ack idempotently.
		r.count("repl_duplicate_frames_total")
		return Ack{OK: true, AckSeq: src.lastSeq}
	}
	if f.Seq > src.lastSeq+1 {
		// Gap: cold follower, dropped frames upstream, or our restart.
		r.count("repl_gap_snapshots_total")
		return Ack{OK: false, AckSeq: src.lastSeq, NeedSnapshot: true}
	}
	block, n := f.Block, f.Count
	if skip := src.lastSeq + 1 - f.Seq; skip > 0 {
		// Overlap: apply only the unseen suffix.
		var err error
		if block, err = dropFrames(block, int(skip)); err != nil {
			return Ack{Error: err.Error()}
		}
		n -= int(skip)
	}
	if err := r.open(f.Source, src); err != nil {
		return Ack{Error: err.Error()}
	}
	if err := src.st.AppendFrames(block, n); err != nil {
		return Ack{Error: err.Error()}
	}
	src.lastSeq = end
	return Ack{OK: true, AckSeq: src.lastSeq}
}

// dropFrames returns what follows the first k frames of block; the
// store checks the rest as it writes it.
func dropFrames(block []byte, k int) ([]byte, error) {
	off := 0
	for i := 0; i < k; i++ {
		f, err := codec.NextFrame(block, off)
		if err != nil {
			return nil, fmt.Errorf("replica: block frame %d: %w", i+1, err)
		}
		off = f.End
	}
	return block[off:], nil
}

// Sources reports every replicated source, sorted by name.
func (r *Receiver) Sources() []SourceStatus {
	r.mu.Lock()
	names := make([]string, 0, len(r.sources))
	for n := range r.sources {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]SourceStatus, 0, len(names))
	for _, n := range names {
		src, err := r.source(n)
		if err != nil {
			break
		}
		src.mu.Lock()
		st := SourceStatus{Source: n, LastSeq: src.lastSeq, Promoted: src.promoted}
		if src.st == nil {
			// Opening replays the replica (repairing any torn tail), so
			// Live counts are accurate even for rediscovered directories.
			_ = r.open(n, src)
		}
		if src.st != nil {
			st.Live = src.st.Stats().Live
		}
		src.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Promote marks a dead source's replica taken over and returns its live
// entries for adoption. Opening the replica store replays it with the
// same torn-tail repair a primary gets, so a follower that crashed
// mid-write still promotes from its last acknowledged record. The
// second and later calls return nil — promotion is once per source.
func (r *Receiver) Promote(name string) ([]store.Entry, error) {
	if !validSource(name) {
		return nil, fmt.Errorf("replica: bad source %q", name)
	}
	src, err := r.source(name)
	if err != nil {
		return nil, err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.promoted {
		return nil, nil
	}
	if err := r.open(name, src); err != nil {
		return nil, err
	}
	src.promoted = true
	r.count("repl_promotions_total")
	return src.st.Live(), nil
}

// Close closes every replica store.
func (r *Receiver) Close() {
	r.mu.Lock()
	r.closed = true
	srcs := make([]*source, 0, len(r.sources))
	for _, src := range r.sources {
		srcs = append(srcs, src)
	}
	r.mu.Unlock()
	for _, src := range srcs {
		src.mu.Lock()
		if src.st != nil {
			_ = src.st.Close()
			src.st = nil
		}
		src.mu.Unlock()
	}
}

func (r *Receiver) count(name string, labels ...string) {
	if r.cfg.Obs != nil {
		r.cfg.Obs.Counter(name, labels...).Inc()
	}
}
