package store

// Replication cursor and tap (docs/REPLICATION.md).
//
// The store already emits an ordered, group-committed record stream;
// replication only needs a durable-order cursor over it. Every record
// that survives its fsync is assigned a monotonically increasing
// sequence number (replSeq) under s.mu, and — when a tap is attached —
// queued for delivery. Delivery happens outside s.mu, serialized by
// tapMu, so a blocking tap (quorum ack waiting on a follower) stalls
// the appender that owns the batch without deadlocking the store, and
// the tap always observes records in strict sequence order.

// TapRecord is one durable record paired with its replication sequence
// number.
type TapRecord struct {
	// Seq is the record's position in the durable order, starting at 1
	// for the first record made durable after Open. Sequence numbers
	// are per-process, not persisted: a reopened store restarts at 1,
	// and followers detect the discontinuity as a gap and re-sync by
	// snapshot.
	Seq uint64
	Rec Record
}

// SetTap attaches (or, with nil, detaches) the replication tap. The tap
// is invoked with batches of fsync-proven records in sequence order,
// outside the store's index lock, and returns a wait function (or nil):
// the two-phase shape lets the store hand off the batch under the
// ordering lock but wait for follower acknowledgements outside it, so
// concurrent appenders' ack round trips overlap instead of queueing.
// The Append/AppendBatch call whose records a batch carries does not
// return until the wait completes — that coupling is what makes a
// quorum-acked Append mean "durable here AND acknowledged by a
// follower". The tap must not keep the batch past its return: the store
// reuses its array for a later one.
func (s *Store) SetTap(fn func([]TapRecord) func()) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.mu.Lock()
	s.tap = fn
	if fn == nil {
		s.tapQueue, s.tapSpare = nil, nil
	}
	s.mu.Unlock()
}

// ReplSeq returns the sequence number of the last durable record — the
// position a fully caught-up follower would have acknowledged.
func (s *Store) ReplSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replSeq
}

// flushTap delivers every queued tap record. Callers must NOT hold
// s.mu. tapMu makes hand-off single-file: two appenders that both
// proved records durable race to this point, but whichever wins the
// lock hands the whole queue (its own records and the loser's) to the
// tap in sequence order, and the loser finds an empty queue — its
// records were piggybacked on the winner's delivery, mirroring how
// group commit shares fsyncs.
//
// The ack wait happens outside tapMu: each deliverer parks its wait
// handle in tapWaits, and every flusher — deliverer or piggybacked —
// waits out the handles outstanding at its hand-off point, which by
// construction cover its own records. Round trips for successive
// batches therefore overlap, and the sender coalesces what queues
// behind an in-flight one.
//
// The queue is two arrays taking turns: the one handed off becomes the
// spare once the tap returns — it keeps nothing of a batch — so commits
// do not regrow the queue.
func (s *Store) flushTap() {
	s.tapMu.Lock()
	s.mu.Lock()
	tap := s.tap
	batch := s.tapQueue
	s.tapQueue, s.tapSpare = s.tapSpare, nil
	s.mu.Unlock()
	var wait func()
	if tap != nil && len(batch) > 0 {
		wait = tap(batch) // ordered hand-off under tapMu
	}
	if cap(batch) <= tapKeep {
		clear(batch) // the records' strings are not the queue's to keep
		s.tapSpare = batch[:0]
	}
	var handle chan struct{}
	if wait != nil {
		handle = make(chan struct{})
		s.tapWaits = append(s.tapWaits, handle)
	}
	pending := append([]chan struct{}(nil), s.tapWaits...)
	s.tapMu.Unlock()

	if wait != nil {
		wait()
		close(handle)
		s.tapMu.Lock()
		for i, h := range s.tapWaits {
			if h == handle {
				s.tapWaits = append(s.tapWaits[:i], s.tapWaits[i+1:]...)
				break
			}
		}
		s.tapMu.Unlock()
	}
	for _, h := range pending {
		if h != handle {
			<-h
		}
	}
}

// SnapshotRecords builds the follower catch-up payload: one merged
// exec.snap per live execution (exactly what Compact would write as the
// replacement segment) plus the replication sequence number the
// snapshot is current through. Records still pending their group commit
// carry no sequence number yet and are excluded on both sides — they
// will reach the follower through the tap with seq > the returned one.
func (s *Store) SnapshotRecords() ([]Record, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opt.Now()
	var recs []Record
	for _, id := range s.order {
		st := s.index[id]
		if st == nil || st.ended || st.pruned {
			continue
		}
		s.materialise(st)
		vars := make(map[string]string, len(st.vars))
		for k, v := range st.vars {
			vars[k] = v
		}
		recs = append(recs, Record{
			Type: TypeExecSnap, ID: id, Time: now,
			Request: st.req, Vars: vars, Done: sortedKeys(st.done),
			Paused: st.paused, Passivated: st.passivated,
		})
	}
	return recs, s.replSeq
}
