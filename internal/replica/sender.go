package replica

import (
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

// SenderConfig configures a Sender.
type SenderConfig struct {
	// Source names this peer; every frame carries it so receivers keep
	// one replica store per source.
	Source string
	// Mode selects how many follower acks an append waits for.
	Mode AckMode
	// AckTimeout bounds how long a quorum/chain append waits before
	// degrading to async for that batch (repl_ack_timeouts_total).
	// Default 2s. A dead follower must slow the owner, not halt it —
	// the gap it accrues is healed by snapshot on reconnect.
	AckTimeout time.Duration
	// QueueDepth bounds each follower's outbox. A follower that falls
	// further behind has frames dropped (repl_frames_dropped_total) and
	// re-syncs by snapshot. Default 4096.
	QueueDepth int
	// Send delivers one frame to a named follower and returns its ack.
	Send func(peer string, f Frame) (Ack, error)
	// Snapshot builds a catch-up snapshot frame (Op, Source, Seq and
	// Block unset — the sender fills Source and Chain).
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
// never blocks the others; the tap call itself blocks only for the acks
// the configured mode demands.
type Sender struct {
	cfg SenderConfig

	mu      sync.Mutex
	order   []string // follower names in placement order (chain order)
	outbox  map[string]*outbox
	lastSeq uint64 // highest seq handed to Replicate
	closed  bool

	timers sync.Pool // stopped *time.Timer, for the ack waits
}

// An outbox is one follower's queue of frames. Its array grows with
// the backlog, up to QueueDepth jobs, and the worker takes the whole
// queue in one swap.
type outbox struct {
	peer string
	mu   sync.Mutex
	jobs []senderJob
	// spare is the array the worker gave back after its last batch, for
	// the next swap; one that grew past outboxKeep jobs is dropped.
	spare []senderJob
	// wake holds one token while jobs wait for the worker.
	wake    chan struct{}
	quit    chan struct{}
	done    chan struct{}
	lastAck atomic.Uint64
}

// outboxKeep is the largest queue array an outbox keeps between
// batches: a burst's backlog is not held on to once it is sent.
const outboxKeep = 64

// push queues j unless depth jobs already wait, and wakes the worker.
func (ob *outbox) push(j senderJob, depth int) bool {
	ob.mu.Lock()
	if len(ob.jobs) >= depth {
		ob.mu.Unlock()
		return false
	}
	ob.jobs = append(ob.jobs, j)
	ob.mu.Unlock()
	select {
	case ob.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return true
}

// take swaps out everything queued; nil when nothing is.
func (ob *outbox) take() []senderJob {
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
func (ob *outbox) giveBack(jobs []senderJob) {
	clear(jobs)
	if cap(jobs) > outboxKeep {
		return
	}
	ob.mu.Lock()
	ob.spare = jobs[:0]
	ob.mu.Unlock()
}

type senderJob struct {
	frame Frame
	// ack, when non-nil, receives one true/false per delivery attempt
	// (buffered by the caller to the fan-out width).
	ack chan bool
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
	return &Sender{cfg: cfg, outbox: map[string]*outbox{}}
}

// SetFollowers replaces the follower set (placement order = chain
// order). New followers start cold: their first frame reports a gap and
// triggers a snapshot ship. Removed followers' outboxes stop.
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
				peer: n,
				wake: make(chan struct{}, 1),
				quit: make(chan struct{}),
				done: make(chan struct{}),
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
}

// Status reports each follower's last acknowledged sequence.
func (s *Sender) Status() []FollowerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FollowerStatus, 0, len(s.order))
	for _, n := range s.order {
		if ob := s.outbox[n]; ob != nil {
			out = append(out, FollowerStatus{Peer: n, AckedSeq: ob.lastAck.Load()})
		}
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
	s.mu.Unlock()
	for _, ob := range workers {
		<-ob.done
	}
}

// Replicate is the store tap (store.SetTap): it turns one batch of
// durable records into an append frame and enqueues it per the ack
// mode's fan-out. The returned wait function — nil when nothing needs
// waiting on — blocks until enough follower acks arrive (quorum: a
// majority of the follower set; chain: the head of the chain; async:
// none). The enqueue/wait split lets the store release its ordering
// lock before waiting, so concurrent appenders' round trips overlap.
// Called with batches in strict sequence order.
func (s *Sender) Replicate(batch []store.TapRecord) func() {
	if len(batch) == 0 {
		return nil
	}
	f := Frame{
		Op:     OpAppend,
		Source: s.cfg.Source,
		Seq:    batch[0].Seq,
		Count:  len(batch),
		Block:  encodeBlock(len(batch), func(i int) *store.Record { return &batch[i].Rec }),
	}

	s.mu.Lock()
	s.lastSeq = batch[len(batch)-1].Seq
	var targets []*outbox
	need := 0
	switch s.cfg.Mode {
	case ModeChain:
		if len(s.order) > 0 {
			if head := s.outbox[s.order[0]]; head != nil {
				f.Chain = append([]string(nil), s.order[1:]...)
				targets = append(targets, head)
				need = 1
			}
		}
	default: // quorum and async fan out to every follower
		for _, n := range s.order {
			if ob := s.outbox[n]; ob != nil {
				targets = append(targets, ob)
			}
		}
		if s.cfg.Mode == ModeQuorum {
			need = (len(targets) + 1) / 2 // majority of the follower set
		}
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		return nil
	}
	// Wait only at commit points. Acks are cumulative by sequence, so a
	// batch carrying no record that completes a promise to a caller
	// (terminal outcome, passivation) streams without blocking its
	// appender — the next commit-point wait covers the whole prefix.
	// This is log shipping's classic shape: the stream pipelines, the
	// sync points are where durability was promised.
	if need > 0 && !hasCommitPoint(batch) {
		need = 0
	}

	var ack chan bool
	if need > 0 {
		ack = make(chan bool, len(targets))
	}
	enqueued := 0
	for _, ob := range targets {
		if ob.push(senderJob{frame: f, ack: ack}, s.cfg.QueueDepth) {
			enqueued++
		} else {
			// Outbox full: the follower is too far behind for streaming.
			// Drop — the gap it sees next forces a snapshot re-sync.
			s.count("repl_frames_dropped_total", "peer", ob.peer)
		}
	}
	s.count("repl_frames_sent_total")
	if need == 0 || enqueued == 0 {
		return nil
	}
	if need > enqueued {
		need = enqueued
	}
	return func() {
		timer := s.ackTimer()
		defer s.putAckTimer(timer)
		got := 0
		for pending := enqueued; got < need && pending > 0; {
			select {
			case ok := <-ack:
				pending--
				if ok {
					got++
				}
			case <-timer.C:
				// Degrade to async for this batch rather than stalling the
				// owner's append path on a dead follower.
				s.count("repl_ack_timeouts_total")
				return
			}
		}
		if got >= need {
			s.count("repl_acks_total")
		} else {
			s.count("repl_ack_failures_total")
		}
	}
}

// ackTimer takes a stopped timer from the pool (or makes one) and sets
// it to the ack timeout; putAckTimer stops it, empties its channel and
// gives it back. Ack waits of successive batches overlap, so there is
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

// hasCommitPoint reports whether the batch carries a record whose
// writer waits for the quorum ack (store.Waits) — one that completes a
// promise to a caller. Start/step records are progress, not promises: a
// mid-flight flow has acknowledged nothing to anyone yet.
func hasCommitPoint(batch []store.TapRecord) bool {
	for i := range batch {
		if _, quorum := store.Waits(batch[i].Rec.Type); quorum {
			return true
		}
	}
	return false
}

// run drains one follower's outbox in order.
func (s *Sender) run(ob *outbox) {
	defer close(ob.done)
	for {
		select {
		case <-ob.quit:
			// Unblock any Replicate still waiting on queued jobs.
			for _, j := range ob.take() {
				if j.ack != nil {
					j.ack <- false
				}
			}
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
				last, j := jobs[end-1].frame, jobs[end].frame
				if !(last.Op == OpAppend && j.Op == OpAppend &&
					j.Seq == last.Seq+uint64(last.Count) &&
					sameChain(jobs[start].frame.Chain, j.Chain)) {
					break
				}
			}
			s.deliverRun(ob, jobs[start:end])
			start = end
		}
		ob.giveBack(jobs)
	}
}

// deliverRun sends a run of contiguous jobs as one frame and answers
// each job's ack.
func (s *Sender) deliverRun(ob *outbox, run []senderJob) {
	f := run[0].frame
	if len(run) > 1 {
		merged := make([]byte, 0, len(f.Block)*len(run))
		merged = append(merged, f.Block...)
		for _, j := range run[1:] {
			merged = append(merged, j.frame.Block...)
			f.Count += j.frame.Count
		}
		f.Block = merged
		s.count("repl_frames_coalesced_total")
	}
	ok := s.deliver(ob, f)
	for _, j := range run {
		if j.ack != nil {
			j.ack <- ok
		}
	}
}

func sameChain(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deliver sends one frame, shipping a snapshot first when the follower
// reports a gap (cold follower, dropped frames, or follower restart).
func (s *Sender) deliver(ob *outbox, f Frame) bool {
	ack, err := s.cfg.Send(ob.peer, f)
	if err != nil {
		s.count("repl_send_errors_total", "peer", ob.peer)
		return false
	}
	if ack.NeedSnapshot && s.cfg.Snapshot != nil {
		snap, serr := s.cfg.Snapshot()
		if serr != nil {
			s.count("repl_snapshot_errors_total")
			return false
		}
		snap.Op = OpSnapshot
		snap.Source = s.cfg.Source
		snap.Chain = f.Chain
		sack, serr := s.cfg.Send(ob.peer, snap)
		if serr != nil || !sack.OK {
			s.count("repl_send_errors_total", "peer", ob.peer)
			return false
		}
		s.count("repl_snapshots_shipped_total")
		ob.lastAck.Store(sack.AckSeq)
		if f.Seq+uint64(f.Count)-1 <= sack.AckSeq {
			// The snapshot already covers this frame.
			s.gaugeLag(ob)
			return true
		}
		ack, err = s.cfg.Send(ob.peer, f)
		if err != nil || ack.NeedSnapshot {
			s.count("repl_send_errors_total", "peer", ob.peer)
			return false
		}
	}
	if !ack.OK {
		s.count("repl_apply_rejected_total", "peer", ob.peer)
		return false
	}
	ob.lastAck.Store(ack.AckSeq)
	s.gaugeLag(ob)
	return true
}

func (s *Sender) gaugeLag(ob *outbox) {
	if s.cfg.Obs == nil {
		return
	}
	s.mu.Lock()
	last := s.lastSeq
	s.mu.Unlock()
	acked := ob.lastAck.Load()
	lag := int64(0)
	if last > acked {
		lag = int64(last - acked)
	}
	s.cfg.Obs.Gauge("repl_follower_lag_records", "peer", ob.peer).Set(lag)
	s.cfg.Obs.Gauge("repl_follower_acked_seq", "peer", ob.peer).Set(int64(acked))
}

func (s *Sender) count(name string, labels ...string) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Counter(name, labels...).Inc()
	}
}
