package store

// Replication cursor and tap (docs/REPLICATION.md).
//
// The store already emits an ordered, group-committed record stream;
// replication only needs a durable-order cursor over it. Every record
// that survives its fsync is assigned a monotonically increasing
// sequence number (replSeq) under s.mu, and — when a tap is attached —
// queued for delivery. Delivery happens outside s.mu, serialized by
// tapMu, so the tap always observes records in strict sequence order.
// The store also decides who waits for followers: only a writer whose
// own records include a quorum commit point (Waits), and only for the
// sequence its sync left (Tap.Await).

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

// Tap is where a store's durable records go for replication
// (replica.Sender).
type Tap interface {
	// Replicate takes one batch of fsync-proven records, in sequence
	// order, outside the store's index lock. It must not block on a
	// follower, and must not keep the batch past its return: the store
	// reuses its array for a later one.
	Replicate(batch []TapRecord)
	// Await returns once the followers have acknowledged every record
	// through seq, or the tap has given up on them. The store calls it
	// after handing seq over, for a writer whose records include a
	// quorum commit point, so that such an Append means "durable here
	// AND acknowledged by a follower".
	Await(seq uint64)
}

// SetTap attaches (or, with nil, detaches) the replication tap.
func (s *Store) SetTap(t Tap) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.mu.Lock()
	s.tap = t
	if t == nil {
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

// flushTap delivers every queued tap record and returns the tap, nil
// when none is attached. Callers must NOT hold s.mu. tapMu makes
// hand-off single-file: two appenders that both proved records durable
// race to this point, but whichever wins the lock hands the whole queue
// (its own records and the loser's) to the tap in sequence order, and
// the loser finds an empty queue once the winner's hand-off is over —
// its records were piggybacked on the winner's delivery, mirroring how
// group commit shares fsyncs. So when flushTap returns, every record
// made durable before the call has reached the tap.
//
// The queue is two arrays taking turns: the one handed off becomes the
// spare once the tap returns — it keeps nothing of a batch — so commits
// do not regrow the queue.
func (s *Store) flushTap() Tap {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.mu.Lock()
	tap := s.tap
	batch := s.tapQueue
	s.tapQueue, s.tapSpare = s.tapSpare, nil
	s.mu.Unlock()
	if tap != nil && len(batch) > 0 {
		tap.Replicate(batch)
	}
	if cap(batch) <= tapKeep {
		clear(batch) // the records' strings are not the queue's to keep
		s.tapSpare = batch[:0]
	}
	return tap
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
