package store

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
)

// Options tunes a Store.
type Options struct {
	// SegmentMaxBytes rotates the active segment once it exceeds this
	// size. Default 8 MiB. It is also what Open holds in memory while it
	// replays, one whole segment at a time: an appended-to segment is at
	// most this size, or one AppendBatch block larger than it. The segment
	// a Compact writes is not rotated — it holds one snapshot per live
	// execution, about what the index keeps of them once replayed.
	SegmentMaxBytes int64
	// Now stamps compaction-written records. Default time.Now.
	Now func() time.Time
	// Obs receives the store_* metrics (docs/METRICS.md). Optional;
	// Engine.SetStore attaches its registry when nil.
	Obs *obs.Registry
	// Binary is ignored: every segment is binary frames. It stays only
	// because the contract benchmark sets it; ROADMAP item 16 removes it
	// with replica.ReceiverConfig.Binary.
	Binary bool
}

// Store is a directory of segment files of binary record frames
// (docs/STORE.md) plus an in-memory index of every execution's live
// state. All appends go to
// the active (highest-numbered) segment through a group-committed
// writer; Compact collapses the whole directory into one fresh segment
// holding a snapshot per live execution.
//
// Segment files are named seg-%08d.log and replayed in numeric order.
// Compaction writes the replacement segment as seg-%08d.log.tmp,
// fsyncs, then renames — a crash mid-compaction leaves either the old
// segments (tmp ignored and removed at Open) or the complete new one,
// never a half state.
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	active   *GroupFile
	segs     []int // existing segment numbers, ascending; last is active
	index    map[string]*execState
	order    []string // index insertion order (exec.start order)
	closed   bool
	failed   error // sticky: first write/fsync failure poisons the store
	records  int   // live records across current segments (incl. replayed)
	replayed int   // records replayed at Open
	torn     int   // torn trailing frames Open discarded, until a registry counts them
	// pending holds records written to the active segment but not yet
	// proven durable by a group commit, in write order. They fold into
	// the index only once an fsync covers them, so Entry/Live/Stats
	// never report state a reopen could not rebuild.
	pending []pendingRec
	// discarded counts the pending records poisoning threw away.
	discarded int
	// sinceSnap counts records appended since the last exec.snap — the
	// "snapshot lag" operators watch through dgfctl store.
	sinceSnap int
	passive   int // executions currently marked passivated
	// snapView is materialise's, reused from entry to entry.
	snapView codec.RecordView
	// strs is where the ids and done paths the index keeps are cut from
	// when they come from bytes — Open's replay and AppendFrames. Requests
	// are never cut from it: one would keep its chunk alive past its
	// flow's end. frames is AppendFrames' view.
	strs   codec.Arena
	frames viewFold

	// replSeq numbers every fsync-proven record, in durability order —
	// the replication cursor (repl.go). Assigned under s.mu in
	// applyDurableLocked whether or not a tap is attached, so a follower
	// attached late sees a gap and catches up by snapshot.
	replSeq uint64
	// tap receives durable records for replication; tapQueue buffers
	// them under s.mu and tapMu serializes hand-off so the tap observes
	// strict seq order (see flushTap). tapSpare, under tapMu, is the
	// queue's other array.
	tap      Tap
	tapMu    sync.Mutex
	tapQueue []TapRecord
	tapSpare []TapRecord
	// series holds the per-record metric series by handle; SetObs
	// resets it.
	series recordSeries
}

// pendingRec is one written-but-not-yet-synced record awaiting its
// group commit before it may enter the index.
type pendingRec struct {
	gw     *GroupFile
	ticket int64
	rec    Record
}

// execState is the index entry for one execution, folded from its
// records — oldest first by apply as they are appended, newest first by
// replay at Open (replay.go). A terminal entry (ended or pruned) keeps
// its two flags and nothing else.
type execState struct {
	req  string
	vars map[string]string
	done map[string]bool // nil until the first node
	// snap is the newest snapshot's fields as replay found them, while its
	// variables and done list are still undecoded: they join vars and done
	// on the first read or write that needs them (materialise), so an
	// entry nobody asks about — a parked flow across a restart — stays
	// this one string. Empty once materialised, and on every entry apply
	// built.
	snap       string
	paused     bool
	passivated bool
	ended      bool
	pruned     bool
}

func (st *execState) terminal() bool { return st.ended || st.pruned }

// collapse drops what a terminal entry does not report: no reader looks
// at the request, variables or done set of an execution that has ended,
// so they are released with the record that ends it rather than held
// until the next compaction.
func (st *execState) collapse() {
	*st = execState{ended: st.ended, pruned: st.pruned}
}

func (st *execState) markDone(node string) {
	if st.done == nil {
		st.done = make(map[string]bool)
	}
	st.done[node] = true
}

// materialise decodes the variables and done list an entry still holds
// as its snapshot's fields into vars and done — where the done set
// already holds the nodes records newer than the snapshot proved. It is
// the one way to them: Entry, Live and Running, apply, Compact and
// SnapshotRecords all come through here first. Caller holds s.mu.
func (s *Store) materialise(st *execState) {
	if st.snap == "" {
		return
	}
	// Open walked these very bytes, so they decode.
	_ = s.snapView.DecodeFieldsString(st.snap)
	st.snap = ""
	rec := s.snapView.Record()
	st.vars = rec.Vars
	for _, n := range rec.Done {
		st.markDone(n)
	}
}

// Entry is a point-in-time copy of an execution's indexed state.
type Entry struct {
	ID      string
	Request string
	Vars    map[string]string
	// Done lists the restart-stable node paths proven complete, sorted.
	Done       []string
	Paused     bool
	Passivated bool
	Ended      bool
	Pruned     bool
}

// Stats summarizes the store for operators (dgfctl store).
type Stats struct {
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// Records counts live records across the segments, including those
	// replayed at Open.
	Records int `json:"records"`
	// ReplayRecords is how many records Open replayed — the restart
	// cost this store bounds.
	ReplayRecords int `json:"replayRecords"`
	// Live counts executions that are neither ended nor pruned.
	Live int `json:"live"`
	// Passivated counts live executions evicted from engine memory.
	Passivated int `json:"passivated"`
	// SnapshotLag is the number of records appended since the last
	// snapshot — how much tail a crash right now would replay on top
	// of snapshots.
	SnapshotLag int `json:"snapshotLag"`
	// Pending counts records written but not yet proven durable: waited
	// appends in mid-commit and step.done records riding the next one.
	// They are in no other figure here until a sync covers them.
	Pending int `json:"pending"`
	// Failed carries the sticky write/fsync error that poisoned the
	// store, if any, and how many pending records it discarded. A failed
	// store rejects all further appends; its index stays readable but
	// frozen at the last durable record.
	Failed string `json:"failed,omitempty"`
}

// CompactStats reports one compaction.
type CompactStats struct {
	SegmentsBefore int `json:"segmentsBefore"`
	RecordsBefore  int `json:"recordsBefore"`
	// RecordsKept is the size of the replacement segment: one merged
	// snapshot per live execution.
	RecordsKept    int `json:"recordsKept"`
	RecordsDropped int `json:"recordsDropped"`
}

const segPattern = "seg-%08d.log"

func segName(n int) string { return fmt.Sprintf(segPattern, n) }

// Open opens (creating if needed) a store directory, removes temp
// files from interrupted compactions, and replays every segment into
// the index. A torn trailing frame — the tail of a crash mid-append —
// is discarded, and truncated away in the active segment so new
// appends start on a frame boundary. A non-empty segment that does not
// start with a binary frame is refused with an ErrInvalid naming it,
// and left as it is.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SegmentMaxBytes <= 0 {
		opt.SegmentMaxBytes = 8 << 20
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opt: opt}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Interrupted compaction: the rename never happened, so the
			// old segments are still authoritative.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, segPattern, &n); err == nil && segName(n) == name {
			s.segs = append(s.segs, n)
		}
	}
	sort.Ints(s.segs)
	if err := s.replay(); err != nil {
		return nil, err
	}
	if len(s.segs) == 0 {
		s.segs = []int{1}
	}
	if s.active, err = s.openSegment(s.segs[len(s.segs)-1]); err != nil {
		return nil, err
	}
	s.records = s.replayed
	if opt.Obs != nil {
		s.SetObs(opt.Obs)
	}
	return s, nil
}

// openSegment opens segment n for appending, with the store's registry
// and its ear for the syncs nobody waits on.
func (s *Store) openSegment(n int) (*GroupFile, error) {
	gw, err := OpenGroupFile(filepath.Join(s.dir, segName(n)))
	if err != nil {
		return nil, err
	}
	if s.opt.Obs != nil {
		gw.SetObs(s.opt.Obs)
	}
	gw.onLinger = func(err error) {
		_, _ = s.synced(gw, err) // poisons on failure: the next Append reports it
		s.flushTap()
	}
	return gw, nil
}

// SetObs attaches a metrics registry to the store and its active
// segment writer.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opt.Obs = reg
	if s.active != nil {
		s.active.SetObs(reg)
	}
	s.series = recordSeries{}
	if reg != nil {
		reg.Gauge("store_recovery_replay_records").Set(int64(s.replayed))
		reg.Gauge("store_segments").Set(int64(len(s.segs)))
		reg.Gauge("store_passivated").Set(int64(s.passive))
		if s.torn > 0 {
			// Registered only then: a store opened intact adds no series.
			reg.Counter("store_torn_frames_total").Add(int64(s.torn))
			s.torn = 0
		}
	}
}

// recordSeries are the series the write path updates on every record,
// held by handle: each is resolved in the registry the first time it is
// updated.
type recordSeries struct {
	records    [len(recordTypes)]*obs.Counter // store_records_total{type}
	snapshots  *obs.Counter                   // store_snapshots_total
	passivated *obs.Gauge                     // store_passivated
	pending    *obs.Gauge                     // store_pending_records
}

// recordsCounter returns the store_records_total series of typ. Caller
// holds s.mu.
func (s *Store) recordsCounter(typ string) *obs.Counter {
	for i, t := range recordTypes {
		if t == typ {
			if s.series.records[i] == nil {
				s.series.records[i] = s.opt.Obs.Counter("store_records_total", "type", typ)
			}
			return s.series.records[i]
		}
	}
	return s.opt.Obs.Counter("store_records_total", "type", typ)
}

// folding is one record on its way into the index, in the form it came
// in: a Record an Append wrote (recordFold), or the view of a frame
// AppendFrames wrote as it came (viewFold). fold reads it only through
// these methods, so a view makes the strings the index keeps, and no
// others.
type folding interface {
	// kind is the record type.
	kind() string
	// entry is the record's index entry, or nil.
	entry(index map[string]*execState) *execState
	// id is the execution id, for a new entry; request the request
	// document; node the node path, "" when there is none.
	id(strs *codec.Arena) string
	request() string
	node(strs *codec.Arena) string
	// snapshot loads an exec.snap's request, variables and done set
	// into st.
	snapshot(st *execState)
	paused() bool
	passivated() bool
}

// fold is the one rule per record type by which a record enters the
// index, oldest first, whatever form it came in. Caller holds s.mu.
// Open's newest-first fold (replay.go) reaches the same index from the
// bytes on disk: FuzzReplayMatchesAppend holds the two to each other,
// and FuzzAppendFramesMatchesAppend the two forms.
func (s *Store) fold(r folding) {
	typ := r.kind()
	st := r.entry(s.index)
	if st == nil {
		if typ != TypeExecStart && typ != TypeExecSnap {
			// step.done etc. for an execution whose start was compacted
			// away after it ended — nothing to track.
			return
		}
		st = &execState{}
		id := r.id(&s.strs)
		s.index[id] = st
		s.order = append(s.order, id)
	}
	if st.terminal() && typ != TypeExecPrune && typ != TypeExecEnd {
		// A passivate racing the execution's natural completion loses:
		// once ended (or tombstoned), later snapshots and markers are
		// stale and must not revive the entry.
		return
	}
	switch typ {
	case TypeExecStart:
		if req := r.request(); req != "" {
			st.req = req
		}
	case TypeStepDone, TypeDelegDone:
		if node := r.node(&s.strs); node != "" {
			s.materialise(st)
			st.markDone(node)
		}
	case TypeExecSnap:
		r.snapshot(st) // superseded whole: nothing of the last one is decoded
		st.paused = r.paused()
		if r.passivated() {
			s.setPassivated(st, true)
		}
	case TypeExecPassivate:
		s.setPassivated(st, true)
		st.paused = r.paused()
	case TypeExecResurrect:
		s.setPassivated(st, false)
	case TypeExecEnd, TypeExecPrune:
		s.setPassivated(st, false)
		if typ == TypeExecEnd {
			st.ended = true
		} else {
			st.pruned = true
		}
		st.collapse()
	}
}

// recordFold is a Record being folded: its strings are already made.
type recordFold Record

func (r *recordFold) kind() string { return r.Type }

func (r *recordFold) entry(index map[string]*execState) *execState { return index[r.ID] }

func (r *recordFold) id(*codec.Arena) string   { return r.ID }
func (r *recordFold) request() string          { return r.Request }
func (r *recordFold) node(*codec.Arena) string { return r.Node }
func (r *recordFold) paused() bool             { return r.Paused }
func (r *recordFold) passivated() bool         { return r.Passivated }

func (r *recordFold) snapshot(st *execState) {
	if r.Request != "" {
		st.req = r.Request
	}
	st.snap = ""
	// The appender still aliases the record's maps: copy.
	st.vars = make(map[string]string, len(r.Vars))
	for k, v := range r.Vars {
		st.vars[k] = v
	}
	st.done = nil
	for _, n := range r.Done {
		st.markDone(n)
	}
}

// setPassivated flips an entry's passivation marker, keeping the
// store-wide count in step. Caller holds s.mu.
func (s *Store) setPassivated(st *execState, on bool) {
	if st.passivated == on {
		return
	}
	st.passivated = on
	if on {
		s.passive++
	} else {
		s.passive--
	}
}

// Append writes one record durably. Concurrent appends to the same
// segment share fsyncs (group commit); rotation happens transparently
// when the active segment exceeds SegmentMaxBytes. The record enters
// the in-memory index only after its group commit succeeds — a failed
// write or fsync poisons the store instead of letting the index run
// ahead of what a reopen would rebuild.
func (s *Store) Append(rec Record) error {
	return s.AppendBatch([]Record{rec})
}

// AppendBatch writes many records durably in one shot: the whole batch
// is serialized into one block of frames, reaches the segment in the
// write of its group commit (GroupFile.WriteBlock) and is covered by
// that commit's one fsync. A record too large to be read back
// (checkRecordSize) refuses the whole batch before anything is written.
func (s *Store) AppendBatch(recs []Record) error {
	_, err := s.write(recs, true)
	return err
}

// Write is Append without the wait, for a record that completes no
// promise (Waits): it joins the segment's tail, in order, and the call
// returns with no syscall made. The record reaches the file, enters the
// index, is numbered and reaches the replication tap with the next sync
// that covers it — Wait on the returned ticket, a later Append's, a
// neighbour's, Flush, Close, or the segment's linger (GroupFile.SyncSoon)
// when nothing else commits — so until then it is only in this process,
// and no reader of this store can tell it from a record a crash lost. An
// error means the record was not written; a failed write or sync later
// poisons the store as it would under Append.
func (s *Store) Write(rec Record) (Ticket, error) {
	return s.write([]Record{rec}, false)
}

// Ticket names the record one Write wrote, for Wait and Sync. The zero
// Ticket names none.
type Ticket struct {
	gw  *GroupFile
	seq int64
	// quorum is set when the records the ticket covers include one whose
	// writer waits for the followers (Waits).
	quorum bool
}

// Sync returns once the record t names is on this disk's stable storage,
// with the records written before it on the same segment: all an
// acknowledgement that promises no replication needs. It neither folds
// the record into the index nor hands it to the replication tap — a
// Wait on the same ticket does, as do the store's other syncs — so it
// sits out no follower's ack. It allocates nothing. A failed sync
// poisons the store at that Wait.
func (t Ticket) Sync() error {
	if t.gw == nil {
		return nil
	}
	return t.gw.Sync(t.seq)
}

// Wait returns once the record t names is durable, indexed and handed to
// the replication tap, as though it had been appended: the records
// written before it on the same segment are carried by the same sync.
// When the write the ticket names holds a quorum commit point (Waits),
// Wait then awaits the followers' acknowledgement of everything its sync
// made durable (Tap.Await); any other record sits out no follower. It
// allocates nothing.
func (s *Store) Wait(t Ticket) error {
	if t.gw == nil {
		return nil
	}
	seq, err := s.synced(t.gw, t.gw.Sync(t.seq))
	if tap := s.flushTap(); tap != nil && t.quorum && err == nil {
		tap.Await(seq)
	}
	return err
}

func (s *Store) write(recs []Record, wait bool) (Ticket, error) {
	if len(recs) == 0 {
		return Ticket{}, nil
	}
	quorum := false
	enc := codec.GetEncoder()
	for i := range recs {
		before := enc.Len()
		codec.AppendRecordFrame(enc, &recs[i])
		if err := checkRecordSize(&recs[i], enc.Len()-before); err != nil {
			codec.PutEncoder(enc)
			return Ticket{}, err
		}
		_, q := Waits(recs[i].Type)
		quorum = quorum || q
	}
	t, err := s.appendBlock(enc, recs)
	if err != nil {
		return Ticket{}, err
	}
	t.quorum = quorum
	if !wait {
		t.gw.SyncSoon()
		return t, nil
	}
	return t, s.Wait(t)
}

// checkRecordSize refuses a record whose frame replay would reject as
// corruption (codec.MaxFrameBody): acknowledging it would leave a
// directory that no longer opens. n is the whole frame, header and
// length prefix included, so the test errs by those few bytes on the
// safe side. The refusal is the caller's error, not the disk's: it does
// not poison the store.
func checkRecordSize(rec *Record, n int) error {
	if n > codec.MaxFrameBody {
		return fmt.Errorf("store: %s record of %s encodes to %d bytes, over the %d-byte frame limit: %w",
			rec.Type, rec.ID, n, codec.MaxFrameBody, dgferr.ErrInvalid)
	}
	return nil
}

// appendBlock appends the serialized block enc holds, covering recs (in
// order), to the active segment's tail and returns its ticket, leaving
// its sync to the caller. enc goes back to the pool as soon as the
// block is in the tail, before any wait: appenders waiting on a sync
// hold no encoder, so the pool stays as small as the number of writes at
// once, and a collection that empties it costs that many encoders to
// make again, not one per waiter.
func (s *Store) appendBlock(enc *codec.Encoder, recs []Record) (Ticket, error) {
	s.mu.Lock()
	gw, ticket, rotated, err := s.writeLocked(enc.Bytes(), len(recs), false)
	codec.PutEncoder(enc) // the tail keeps a copy of the block
	if err == nil {
		for i := range recs {
			s.pending = append(s.pending, pendingRec{gw: gw, ticket: ticket, rec: recs[i]})
		}
		s.gaugePendingLocked()
	}
	s.mu.Unlock()
	if rotated {
		s.flushTap() // the old segment's final sync drained records the tap is owed
	}
	return Ticket{gw: gw, seq: ticket}, err
}

// writeLocked adds a block of n records to the active segment's tail —
// and, when through is set, hands the tail to the OS before it returns
// (GroupFile.writeThrough) — rotating first when the block would take
// the segment past SegmentMaxBytes: then rotated is set, because the old
// segment's final sync drained its pending records, which the tap is
// owed. A failed write poisons the store. Caller holds s.mu.
func (s *Store) writeLocked(block []byte, n int, through bool) (gw *GroupFile, ticket int64, rotated bool, err error) {
	if s.closed {
		return nil, 0, false, fmt.Errorf("store: %s: %w", s.dir, os.ErrClosed)
	}
	if s.failed != nil {
		return nil, 0, false, s.failed
	}
	if s.active.Size() > 0 && s.active.Size()+int64(len(block)) > s.opt.SegmentMaxBytes {
		if err := s.rotate(); err != nil {
			return nil, 0, false, err
		}
		rotated = true
	}
	gw = s.active
	if through {
		ticket, err = gw.writeThrough(block, int64(n))
	} else {
		ticket, err = gw.WriteBlock(block, int64(n))
	}
	if err != nil {
		s.poisonLocked(err)
	}
	return gw, ticket, rotated, err
}

// synced takes in the outcome of one sync of gw, whoever ran it: a
// failure poisons the store, a success folds in every pending record
// the file has proven durable — the caller's own and any written
// without waiting that the same fsync carried — and returns the
// replication sequence they reached, at or past the caller's records.
func (s *Store) synced(gw *GroupFile, err error) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.poisonLocked(err)
		return 0, err
	}
	s.drainLocked(gw, gw.syncedSeq())
	return s.replSeq, nil
}

// Flush is the explicit barrier for records written without waiting: it
// returns once everything written before the call is durable, indexed
// and handed to the replication tap. It waits for no follower: a quorum
// commit point's own writer does that.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.failed != nil || len(s.pending) == 0 {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	last := s.pending[len(s.pending)-1]
	s.mu.Unlock()
	return s.Wait(Ticket{gw: last.gw, seq: last.ticket})
}

// poisonLocked records the first write/fsync failure as the store's
// sticky error and discards pending records — they were never proven
// durable, so folding them into the index would report state a reopen
// could not rebuild. Caller holds s.mu.
func (s *Store) poisonLocked(err error) {
	if s.failed == nil {
		s.failed = err
	}
	s.discarded += len(s.pending)
	s.pending = nil
	if reg := s.opt.Obs; reg != nil {
		reg.Gauge("store_failed").Set(1)
	}
	s.gaugePendingLocked()
}

// Err returns the sticky write or fsync failure that poisoned the store,
// or nil. A poisoned store refuses every append from then on; its index
// stays readable, frozen at the last durable record.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

func (s *Store) gaugePendingLocked() {
	if reg := s.opt.Obs; reg != nil {
		if s.series.pending == nil {
			s.series.pending = reg.Gauge("store_pending_records")
		}
		s.series.pending.Set(int64(len(s.pending)))
	}
}

// drainLocked folds every pending record a completed sync has proven
// durable — written to gw with a ticket at or below the synced one —
// into the index, in write order. Pending entries always belong to the
// segment active at their write (rotation drains or poisons first), so
// a front entry on a different GroupFile means gw already rotated and
// drained. Caller holds s.mu.
func (s *Store) drainLocked(gw *GroupFile, ticket int64) {
	n := 0
	for i := range s.pending {
		p := &s.pending[i]
		if p.gw != gw || p.ticket > ticket {
			break
		}
		s.applyDurableLocked(&p.rec)
		n++
	}
	// The queue keeps its array between commits — step.done records come
	// and go through it all day — but not the drained records' strings,
	// and not the array a burst (a restart's recoveries) blew up.
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:])
	s.pending = s.pending[:rest]
	if rest == 0 && cap(s.pending) > pendingKeep {
		s.pending = nil
	}
	s.gaugePendingLocked()
}

// pendingKeep is the largest pending queue (in records, 176 bytes each)
// an idle store holds on to; tapKeep is the same bound for each of the
// tap queue's two arrays (168 bytes a record).
const (
	pendingKeep = 64
	tapKeep     = 64
)

// applyDurableLocked folds one fsync-proven record into the index and
// its counters, and queues it for the tap. Caller holds s.mu.
func (s *Store) applyDurableLocked(rec *Record) {
	s.fold((*recordFold)(rec))
	s.countLocked(rec.Type)
	if s.tap != nil {
		s.tapQueue = append(s.tapQueue, TapRecord{Seq: s.replSeq, Rec: *rec})
	}
}

// countLocked numbers one record of type typ that has entered the index
// and counts it. Caller holds s.mu.
func (s *Store) countLocked(typ string) {
	s.records++
	s.replSeq++
	if typ == TypeExecSnap {
		s.sinceSnap = 0
	} else {
		s.sinceSnap++
	}
	if reg := s.opt.Obs; reg != nil {
		s.recordsCounter(typ).Inc()
		if typ == TypeExecSnap {
			if s.series.snapshots == nil {
				s.series.snapshots = reg.Counter("store_snapshots_total")
			}
			s.series.snapshots.Inc()
		}
		if s.series.passivated == nil {
			s.series.passivated = reg.Gauge("store_passivated")
		}
		s.series.passivated.Set(int64(s.passive))
	}
}

// rotate opens the next segment as active. Caller holds s.mu.
func (s *Store) rotate() error {
	next := s.segs[len(s.segs)-1] + 1
	nw, err := s.openSegment(next)
	if err != nil {
		return err
	}
	old := s.active
	s.active = nw
	s.segs = append(s.segs, next)
	if s.opt.Obs != nil {
		s.opt.Obs.Gauge("store_segments").Set(int64(len(s.segs)))
	}
	if err := old.Close(); err != nil {
		s.poisonLocked(err)
		return err
	}
	// Close performed a final sync covering every line written, so all
	// records still pending on the old segment are durable — fold them
	// in before the new segment's appends start queueing.
	s.drainLocked(old, math.MaxInt64)
	return nil
}

// Compact rewrites the store as one fresh segment containing a merged
// snapshot per live execution — ended and pruned executions vanish,
// and every live execution's history (start + step tail + snapshots)
// collapses into a single exec.snap record. The new segment fully
// replaces the old ones: written as a temp file, fsynced, renamed into
// place, and only then are the old segments deleted. Recovery replay
// after a compaction is O(live executions).
func (s *Store) Compact() (CompactStats, error) {
	defer s.flushTap() // runs after the unlock below
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, fmt.Errorf("store: %s: %w", s.dir, os.ErrClosed)
	}
	if s.failed != nil {
		return CompactStats{}, s.failed
	}
	if len(s.pending) > 0 {
		// In-flight appends have not reached the index yet; compaction
		// snapshots the index and deletes the segments holding them, so
		// force their group commit and fold them in first.
		last := s.pending[len(s.pending)-1]
		if err := last.gw.Sync(last.ticket); err != nil {
			s.poisonLocked(err)
			return CompactStats{}, err
		}
		s.drainLocked(last.gw, last.ticket)
	}
	stats := CompactStats{SegmentsBefore: len(s.segs), RecordsBefore: s.records}
	next := s.segs[len(s.segs)-1] + 1
	final := filepath.Join(s.dir, segName(next))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	now := s.opt.Now()
	kept := 0
	var liveOrder []string
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	for _, id := range s.order {
		st := s.index[id]
		if st == nil || st.ended || st.pruned {
			continue
		}
		liveOrder = append(liveOrder, id)
		s.materialise(st)
		rec := Record{
			Type: TypeExecSnap, ID: id, Time: now,
			Request: st.req, Vars: st.vars, Done: sortedKeys(st.done),
			Paused: st.paused, Passivated: st.passivated,
		}
		enc.Reset()
		codec.AppendRecordFrame(enc, &rec)
		err := checkRecordSize(&rec, enc.Len())
		if err == nil {
			_, err = w.Write(enc.Bytes())
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return stats, fmt.Errorf("store: compact: %w", err)
		}
		kept++
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return stats, fmt.Errorf("store: compact: %w", err)
	}
	s.syncDir()
	// The rename is the commit point: the new segment now supersedes
	// everything before it. Swap writers, then delete history.
	nw, err := s.openSegment(next)
	if err != nil {
		return stats, err
	}
	oldActive, oldSegs := s.active, s.segs
	s.active = nw
	s.segs = []int{next}
	_ = oldActive.Close()
	for _, n := range oldSegs {
		_ = os.Remove(filepath.Join(s.dir, segName(n)))
	}
	s.syncDir()
	// Ended/pruned executions are gone from disk; drop them from the
	// index too so it mirrors what a reopen would rebuild.
	for _, id := range s.order {
		if st := s.index[id]; st != nil && (st.ended || st.pruned) {
			delete(s.index, id)
		}
	}
	s.order = liveOrder
	s.records = kept
	s.sinceSnap = 0
	stats.RecordsKept = kept
	stats.RecordsDropped = stats.RecordsBefore - kept
	if reg := s.opt.Obs; reg != nil {
		reg.Counter("store_compactions_total").Inc()
		reg.Gauge("store_segments").Set(int64(len(s.segs)))
	}
	return stats, nil
}

// syncDir fsyncs the store directory so segment renames and deletions
// survive a crash (best effort; some platforms reject directory sync).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the index holds id as a live execution — neither
// ended nor pruned: what a resurrection needs, learnt without building
// the Entry.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.index[id]
	return ok && !st.terminal()
}

// Entry returns the indexed state of one execution.
func (s *Store) Entry(id string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.index[id]
	if !ok {
		return Entry{}, false
	}
	return s.entryLocked(id, st, false), true
}

// entryLocked copies one entry out of the index. An entry without
// variables gets an empty map, or nil when sparse is set. Caller holds
// s.mu.
func (s *Store) entryLocked(id string, st *execState, sparse bool) Entry {
	s.materialise(st)
	var vars map[string]string
	if len(st.vars) > 0 || !sparse {
		vars = make(map[string]string, len(st.vars))
		for k, v := range st.vars {
			vars[k] = v
		}
	}
	return Entry{
		ID: id, Request: st.req, Vars: vars, Done: sortedKeys(st.done),
		Paused: st.paused, Passivated: st.passivated,
		Ended: st.ended, Pruned: st.pruned,
	}
}

// Live returns every execution that is neither ended nor pruned, in
// exec.start order — the set a replica promotion adopts.
func (s *Store) Live() []Entry {
	return s.entries(func(st *execState) bool { return !st.terminal() }, false)
}

// Running returns the live executions that are not passivated, in
// exec.start order: the ones resident in the engine when the records
// stop, which a restart resumes. Unlike filtering Live, it copies
// nothing of the parked ones — nor decodes their snapshots — and an
// entry without variables has nil Vars.
func (s *Store) Running() []Entry {
	return s.entries(func(st *execState) bool { return !st.terminal() && !st.passivated }, true)
}

func (s *Store) entries(want func(*execState) bool, sparse bool) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for _, id := range s.order {
		if st := s.index[id]; st != nil && want(st) {
			out = append(out, s.entryLocked(id, st, sparse))
		}
	}
	return out
}

// IDs returns every indexed execution id (live or not) — the engine
// advances its id counter past these after a restart so fresh
// executions never collide with recovered ones.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Stats snapshots the store's shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := 0
	for _, st := range s.index {
		if !st.ended && !st.pruned {
			live++
		}
	}
	st := Stats{
		Segments:      len(s.segs),
		Records:       s.records,
		ReplayRecords: s.replayed,
		Live:          live,
		Passivated:    s.passive,
		SnapshotLag:   s.sinceSnap,
		Pending:       len(s.pending),
	}
	if s.failed != nil {
		st.Failed = fmt.Sprintf("%v (%d pending record(s) discarded)", s.failed, s.discarded)
	}
	return st
}

// Close syncs and closes the active segment.
func (s *Store) Close() error {
	defer s.flushTap() // runs after the unlock below
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.active.Close()
	if err != nil {
		s.poisonLocked(err)
	} else {
		// The final sync made every pending record durable.
		s.drainLocked(s.active, math.MaxInt64)
	}
	return err
}
