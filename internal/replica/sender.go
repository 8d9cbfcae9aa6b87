package replica

import (
	"sync"
	"time"

	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

// SenderConfig configures a Sender.
type SenderConfig struct {
	// Source names this peer; every frame carries it so receivers keep
	// one replica store per source.
	Source string
	// Mode selects whether a quorum commit point waits for follower
	// acks (quorum) or not (async).
	Mode AckMode
	// AckTimeout bounds how long Await waits before giving up on the
	// followers for that commit point (repl_ack_timeouts_total).
	// Default 2s. A dead follower must slow the owner, not halt it —
	// the gap it accrues is healed by snapshot on reconnect.
	AckTimeout time.Duration
	// QueueDepth bounds each follower's outbox. A follower that falls
	// further behind has frames dropped (repl_frames_dropped_total) and
	// re-syncs by snapshot. Default 4096.
	QueueDepth int
	// Send delivers one frame to a named follower and returns its ack.
	Send func(peer string, f Frame) (Ack, error)
	// Snapshot builds a catch-up snapshot frame: its Seq, Count and
	// Block; the sender fills Op and Source.
	Snapshot func() (Frame, error)
	// Obs receives the repl_* metrics. Optional.
	Obs *obs.Registry
}

// FollowerStatus is one follower's replication position, for the
// `dgfctl repl` verb.
type FollowerStatus struct {
	Peer     string `json:"peer"`
	AckedSeq uint64 `json:"ackedSeq"`
}

// Sender fans the store's replication tap out to the follower set. One
// goroutine per follower drains an ordered outbox, so a slow follower
// never blocks the others, and Replicate never blocks on one. What a
// follower has done with the stream is two cumulative sequence marks,
// and Await is a check of them (docs/REPLICATION.md, "Ack modes").
type Sender struct {
	cfg SenderConfig

	mu      sync.Mutex
	order   []string // follower names in placement order
	outbox  map[string]*outbox
	lastSeq uint64 // highest seq handed to Replicate
	closed  bool
	// moved, once an Await made it, is closed and dropped the next time
	// a follower's mark moves or the follower set changes: the waiters
	// then check the marks again.
	moved chan struct{}

	// The series every batch or wait counts, resolved once.
	sent, coalesced, acks, failures, timeouts *obs.Counter

	timers sync.Pool // stopped *time.Timer, for the ack waits
}

// An outbox is one follower's queue of frames. Its array grows with
// the backlog, up to QueueDepth frames, and the worker takes the whole
// queue in one swap.
type outbox struct {
	peer string
	mu   sync.Mutex
	jobs []Frame
	// spare is the array the worker gave back after its last batch, for
	// the next swap; one that grew past outboxKeep frames is dropped.
	spare []Frame
	// wake holds one token while frames wait for the worker.
	wake chan struct{}
	quit chan struct{}
	done chan struct{}
	// acked is the highest sequence the follower has acknowledged;
	// settled the highest that needs nothing more from it — acked,
	// failed, dropped on a full outbox, or handed over before the
	// follower joined. Both only grow, under Sender.mu.
	acked, settled uint64
	// lag and ackedSeq are the follower's repl_follower_* gauges.
	lag, ackedSeq *obs.Gauge
	// synced is set once the follower took a snapshot from this sender
	// and cleared when it reports a gap; only the worker touches it.
	synced bool
}

// outboxKeep is the largest queue array an outbox keeps between
// batches: a burst's backlog is not held on to once it is sent.
const outboxKeep = 64

// push queues f unless depth frames already wait, and wakes the worker.
func (ob *outbox) push(f Frame, depth int) bool {
	ob.mu.Lock()
	if len(ob.jobs) >= depth {
		ob.mu.Unlock()
		return false
	}
	ob.jobs = append(ob.jobs, f)
	ob.mu.Unlock()
	select {
	case ob.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return true
}

// take swaps out everything queued; nil when nothing is.
func (ob *outbox) take() []Frame {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if len(ob.jobs) == 0 {
		return nil
	}
	jobs := ob.jobs
	ob.jobs, ob.spare = ob.spare, nil
	return jobs
}

// giveBack returns a taken array, emptied, for a later swap.
func (ob *outbox) giveBack(jobs []Frame) {
	clear(jobs)
	if cap(jobs) > outboxKeep {
		return
	}
	ob.mu.Lock()
	ob.spare = jobs[:0]
	ob.mu.Unlock()
}

// NewSender starts a sender with no followers; SetFollowers arms it.
func NewSender(cfg SenderConfig) *Sender {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeQuorum
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry() // counted, read by nobody
	}
	reg := cfg.Obs
	return &Sender{
		cfg: cfg, outbox: map[string]*outbox{},
		sent:      reg.Counter("repl_frames_sent_total"),
		coalesced: reg.Counter("repl_frames_coalesced_total"),
		acks:      reg.Counter("repl_acks_total"),
		failures:  reg.Counter("repl_ack_failures_total"),
		timeouts:  reg.Counter("repl_ack_timeouts_total"),
	}
}

// SetFollowers replaces the follower set (in placement order). New
// followers start cold: a snapshot is shipped ahead of their first
// frame, and they owe no ack for what was handed over before they
// joined. Removed followers' outboxes stop, and no wait counts
// them any more.
func (s *Sender) SetFollowers(names []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" || n == s.cfg.Source || keep[n] {
			continue
		}
		keep[n] = true
		if s.outbox[n] == nil {
			ob := &outbox{
				peer:     n,
				wake:     make(chan struct{}, 1),
				quit:     make(chan struct{}),
				done:     make(chan struct{}),
				settled:  s.lastSeq,
				lag:      s.cfg.Obs.Gauge("repl_follower_lag_records", "peer", n),
				ackedSeq: s.cfg.Obs.Gauge("repl_follower_acked_seq", "peer", n),
			}
			s.outbox[n] = ob
			go s.run(ob)
		}
	}
	for n, ob := range s.outbox {
		if !keep[n] {
			close(ob.quit)
			delete(s.outbox, n)
		}
	}
	s.order = s.order[:0]
	for _, n := range names {
		if keep[n] {
			s.order = append(s.order, n)
			keep[n] = false // dedupe: record each follower once
		}
	}
	s.wakeLocked()
}

// Status reports each follower's last acknowledged sequence.
func (s *Sender) Status() []FollowerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FollowerStatus, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, FollowerStatus{Peer: n, AckedSeq: s.outbox[n].acked})
	}
	return out
}

// Close stops every outbox worker and waits for them to exit.
func (s *Sender) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	workers := make([]*outbox, 0, len(s.outbox))
	for n, ob := range s.outbox {
		close(ob.quit)
		workers = append(workers, ob)
		delete(s.outbox, n)
	}
	s.order = nil
	s.wakeLocked()
	s.mu.Unlock()
	for _, ob := range workers {
		<-ob.done
	}
}

// Replicate is the store tap's hand-off (store.Tap): it turns one batch
// of durable records into an append frame and queues it for every
// follower. It never waits for one; a full outbox drops the frame.
// Called with batches in strict sequence order.
func (s *Sender) Replicate(batch []store.TapRecord) {
	if len(batch) == 0 {
		return
	}
	f := Frame{
		Op:     OpAppend,
		Source: s.cfg.Source,
		Seq:    batch[0].Seq,
		Count:  len(batch),
		Block:  encodeBlock(len(batch), func(i int) *store.Record { return &batch[i].Rec }),
	}
	end := batch[len(batch)-1].Seq
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeq = end
	if len(s.order) == 0 {
		return
	}
	for _, n := range s.order {
		if ob := s.outbox[n]; !ob.push(f, s.cfg.QueueDepth) {
			// Outbox full: the follower is too far behind for streaming.
			// Drop — the gap it sees next forces a snapshot re-sync.
			s.cfg.Obs.Counter("repl_frames_dropped_total", "peer", ob.peer).Inc()
			s.markLocked(ob, 0, end)
		}
	}
	s.sent.Inc()
}

// Await is the store tap's wait (store.Tap): in quorum mode it returns
// once a majority of the current follower set has acknowledged seq
// (repl_acks_total), or every follower has settled it without that
// majority (repl_ack_failures_total), or AckTimeout passes — degrading
// that commit point to async rather than stalling the owner on a dead
// follower (repl_ack_timeouts_total). Acks are cumulative by sequence,
// so one wait covers every record before seq. In async mode, or with no
// followers, it returns at once.
func (s *Sender) Await(seq uint64) {
	if s.cfg.Mode != ModeQuorum {
		return
	}
	var timer *time.Timer
	outcome, moved := s.check(seq)
	for moved != nil {
		if timer == nil {
			timer = s.ackTimer()
		}
		select {
		case <-moved:
			outcome, moved = s.check(seq)
		case <-timer.C:
			outcome, moved = s.timeouts, nil
		}
	}
	if timer != nil {
		s.putAckTimer(timer)
	}
	if outcome != nil {
		outcome.Inc()
	}
}

// check reports where a wait for seq stands: the counter of its outcome
// once it has one (nil when there are no followers to wait for), or else
// the channel the next move of a mark closes.
func (s *Sender) check(seq uint64) (*obs.Counter, chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	acked, settled := 0, 0
	for _, n := range s.order {
		ob := s.outbox[n]
		if ob.acked >= seq {
			acked++
		}
		if ob.settled >= seq {
			settled++
		}
	}
	switch {
	case len(s.order) == 0:
		return nil, nil
	case acked >= (len(s.order)+1)/2:
		return s.acks, nil
	case settled == len(s.order):
		return s.failures, nil
	}
	if s.moved == nil {
		s.moved = make(chan struct{})
	}
	return nil, s.moved
}

// markLocked moves ob's marks up to acked and settled (an ack settles
// too) and wakes the waiters. Caller holds s.mu.
func (s *Sender) markLocked(ob *outbox, acked, settled uint64) {
	ob.acked = max(ob.acked, acked)
	ob.settled = max(ob.settled, settled, ob.acked)
	s.wakeLocked()
}

// wakeLocked wakes every Await to check the marks again. Caller holds
// s.mu.
func (s *Sender) wakeLocked() {
	if s.moved != nil {
		close(s.moved)
		s.moved = nil
	}
}

// ackTimer takes a stopped timer from the pool (or makes one) and sets
// it to the ack timeout; putAckTimer stops it, empties its channel and
// gives it back. Waits of concurrent commit points overlap, so there is
// one timer per wait in flight, not one per sender.
func (s *Sender) ackTimer() *time.Timer {
	if t, ok := s.timers.Get().(*time.Timer); ok {
		t.Reset(s.cfg.AckTimeout)
		return t
	}
	return time.NewTimer(s.cfg.AckTimeout)
}

func (s *Sender) putAckTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default: // the wait already took the firing
		}
	}
	s.timers.Put(t)
}

// run drains one follower's outbox in order until the follower is
// removed; what is still queued then is abandoned with it.
func (s *Sender) run(ob *outbox) {
	defer close(ob.done)
	for {
		select {
		case <-ob.quit:
			return
		case <-ob.wake:
			s.drainBatch(ob)
		}
	}
}

// drainBatch delivers everything queued, taking the whole queue in one
// swap, and again whatever queued behind it while its round trips were
// in flight — coalescing contiguous append frames into one frame per
// round trip. This is group commit applied to the network: without it,
// delivery is one RTT per store group commit and the owner's append
// throughput caps at 1/RTT; with it, the RTT amortizes over however
// many batches accumulated, the same way the fsync it mirrors amortizes
// over concurrent appenders.
func (s *Sender) drainBatch(ob *outbox) {
	for jobs := ob.take(); len(jobs) > 0; jobs = ob.take() {
		for start := 0; start < len(jobs); {
			// A run ends at a non-append or non-contiguous frame: blocks
			// only concatenate when the records are consecutive in the
			// durable order.
			end := start + 1
			for ; end < len(jobs); end++ {
				last, f := &jobs[end-1], &jobs[end]
				if !(last.Op == OpAppend && f.Op == OpAppend && f.Seq == last.Seq+uint64(last.Count)) {
					break
				}
			}
			s.deliverRun(ob, jobs[start:end])
			start = end
		}
		ob.giveBack(jobs)
	}
}

// deliverRun sends a run of contiguous frames as one frame and moves
// the follower's marks: acked to what it acknowledged, settled to the
// run's last record whether the delivery worked or not.
func (s *Sender) deliverRun(ob *outbox, run []Frame) {
	f := run[0]
	if len(run) > 1 {
		merged := make([]byte, 0, len(f.Block)*len(run))
		merged = append(merged, f.Block...)
		for _, j := range run[1:] {
			merged = append(merged, j.Block...)
			f.Count += j.Count
		}
		f.Block = merged
		s.coalesced.Inc()
	}
	acked := s.deliver(ob, f)
	s.mu.Lock()
	s.markLocked(ob, acked, f.Seq+uint64(f.Count)-1)
	lag := int64(0)
	if s.lastSeq > ob.acked {
		lag = int64(s.lastSeq - ob.acked)
	}
	ob.lag.Set(lag)
	ob.ackedSeq.Set(int64(ob.acked))
	s.mu.Unlock()
}

// deliver sends one frame, shipping a snapshot first to a follower
// that has had none from this sender, or that reports a gap (dropped
// frames, or follower restart), and returns the highest sequence the
// follower acknowledged on the way — 0 when it acknowledged nothing.
// Sequence numbers restart at 1 with every owner process, so without
// the first snapshot a new follower would miss what the store held
// before this sender, and a follower holding an earlier incarnation's
// replica would take the new numbers for duplicates.
func (s *Sender) deliver(ob *outbox, f Frame) (acked uint64) {
	for retried := false; ; retried = true {
		if !ob.synced && s.cfg.Snapshot != nil {
			snap, err := s.cfg.Snapshot()
			if err != nil {
				s.cfg.Obs.Counter("repl_snapshot_errors_total").Inc()
				return 0
			}
			snap.Op = OpSnapshot
			snap.Source = s.cfg.Source
			sack, err := s.cfg.Send(ob.peer, snap)
			if err != nil || !sack.OK {
				s.countPeer("repl_send_errors_total", ob.peer)
				return 0
			}
			s.cfg.Obs.Counter("repl_snapshots_shipped_total").Inc()
			ob.synced = true
			if acked = sack.AckSeq; f.Seq+uint64(f.Count)-1 <= acked {
				return acked // the snapshot already covers this frame
			}
		}
		ack, err := s.cfg.Send(ob.peer, f)
		if err == nil && ack.NeedSnapshot && s.cfg.Snapshot != nil && !retried {
			ob.synced = false
			continue
		}
		if err != nil || (ack.NeedSnapshot && s.cfg.Snapshot != nil) {
			s.countPeer("repl_send_errors_total", ob.peer)
			return acked
		}
		if !ack.OK {
			s.countPeer("repl_apply_rejected_total", ob.peer)
			return acked
		}
		return ack.AckSeq
	}
}

func (s *Sender) countPeer(name, peer string) {
	s.cfg.Obs.Counter(name, "peer", peer).Inc()
}
