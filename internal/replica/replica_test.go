package replica

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

func snapRec(id string) store.Record {
	return store.Record{Type: store.TypeExecSnap, ID: id, Request: "<req/>"}
}

func endRec(id string) store.Record {
	return store.Record{Type: store.TypeExecEnd, ID: id}
}

// taps turns records into the TapRecord batch the store would hand the
// sender, numbering from first.
func taps(first uint64, recs ...store.Record) []store.TapRecord {
	out := make([]store.TapRecord, len(recs))
	for i, r := range recs {
		out[i] = store.TapRecord{Seq: first + uint64(i), Rec: r}
	}
	return out
}

func mustBlock(t *testing.T, binary bool, recs ...store.Record) []byte {
	t.Helper()
	block, err := EncodeBlock(recs, binary)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func newTestReceiver(t *testing.T, binary bool, reg *obs.Registry) *Receiver {
	t.Helper()
	recv, err := NewReceiver(ReceiverConfig{Dir: t.TempDir(), Binary: binary, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	return recv
}

// liveIDs promotes source on recv and returns the sorted live entry ids.
func liveIDs(t *testing.T, recv *Receiver, source string) []string {
	t.Helper()
	entries, err := recv.Promote(source)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

func TestEncodeDecodeBlock(t *testing.T) {
	recs := []store.Record{snapRec("a"), endRec("a"), snapRec("b")}
	for _, binary := range []bool{false, true} {
		block, err := EncodeBlock(recs, binary)
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		got, err := DecodeBlock(block)
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("binary=%v: %d records, want %d", binary, len(got), len(recs))
		}
		for i := range recs {
			if got[i].Type != recs[i].Type || got[i].ID != recs[i].ID {
				t.Fatalf("binary=%v record %d: %+v != %+v", binary, i, got[i], recs[i])
			}
		}
	}
	if recs, err := DecodeBlock(nil); err != nil || recs != nil {
		t.Fatalf("empty block: %v %v", recs, err)
	}
}

func TestDecodeBlockDamage(t *testing.T) {
	jsonBlock := mustBlock(t, false, snapRec("a"), snapRec("b"))
	if _, err := DecodeBlock(jsonBlock[:len(jsonBlock)-1]); err == nil {
		t.Fatal("unterminated JSON block decoded without error")
	}
	binBlock := mustBlock(t, true, snapRec("a"), snapRec("b"))
	if _, err := DecodeBlock(binBlock[:len(binBlock)-3]); err == nil {
		t.Fatal("truncated binary block decoded without error")
	}
}

func TestParseAckMode(t *testing.T) {
	for _, ok := range []string{"quorum", "chain", "async"} {
		if _, err := ParseAckMode(ok); err != nil {
			t.Fatalf("%s: %v", ok, err)
		}
	}
	if _, err := ParseAckMode("paxos"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestSelectFollowers(t *testing.T) {
	members := []string{"c", "a", "b", "d", "a", ""}
	got := SelectFollowers("b", members, 2)
	if !reflect.DeepEqual(got, []string{"c", "d"}) {
		t.Fatalf("successors of b: %v", got)
	}
	// Deterministic in the member set regardless of order.
	if again := SelectFollowers("b", []string{"d", "c", "b", "a"}, 2); !reflect.DeepEqual(again, got) {
		t.Fatalf("order-dependent placement: %v vs %v", again, got)
	}
	// Wraps, never self, clamps to the available peers.
	if got := SelectFollowers("d", members, 5); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("wrap: %v", got)
	}
	// A self not present in members still gets its insertion-point ring.
	if got := SelectFollowers("bb", members, 1); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("absent self: %v", got)
	}
	if got := SelectFollowers("a", nil, 1); got != nil {
		t.Fatalf("no members: %v", got)
	}
	if got := SelectFollowers("a", members, 0); got != nil {
		t.Fatalf("n=0: %v", got)
	}
}

func TestReceiverAppendAndPromote(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 2,
		Block: mustBlock(t, false, snapRec("f1"), snapRec("f2"))})
	if !ack.OK || ack.AckSeq != 2 {
		t.Fatalf("append ack: %+v", ack)
	}
	ack = recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 3, Count: 1,
		Block: mustBlock(t, false, endRec("f2"))})
	if !ack.OK || ack.AckSeq != 3 {
		t.Fatalf("append ack: %+v", ack)
	}
	srcs := recv.Sources()
	if len(srcs) != 1 || srcs[0].Source != "own" || srcs[0].LastSeq != 3 || srcs[0].Live != 1 || srcs[0].Promoted {
		t.Fatalf("sources: %+v", srcs)
	}
	if ids := liveIDs(t, recv, "own"); !reflect.DeepEqual(ids, []string{"f1"}) {
		t.Fatalf("live after promotion: %v", ids)
	}
	// Promotion is once per source.
	if again, err := recv.Promote("own"); err != nil || again != nil {
		t.Fatalf("second promotion: %v %v", again, err)
	}
	if !recv.Sources()[0].Promoted {
		t.Fatal("source not marked promoted")
	}
}

func TestReceiverRejectsBadFrames(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	if ack := recv.Apply(Frame{Op: OpAppend, Source: "../evil", Seq: 1, Count: 1}); ack.OK || ack.Error == "" {
		t.Fatalf("path-escaping source accepted: %+v", ack)
	}
	if ack := recv.Apply(Frame{Op: "compact", Source: "own", Seq: 1}); ack.OK || ack.Error == "" {
		t.Fatalf("unknown op accepted: %+v", ack)
	}
	if ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 0}); ack.OK || ack.Error == "" {
		t.Fatalf("empty append accepted: %+v", ack)
	}
	if ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 2,
		Block: mustBlock(t, false, snapRec("only-one"))}); ack.OK || ack.Error == "" {
		t.Fatalf("count/block mismatch accepted: %+v", ack)
	}
	if _, err := recv.Promote(".."); err == nil {
		t.Fatal("path-escaping promotion accepted")
	}
}

// TestReceiverDuplicateAfterReconnect covers the sender-retry shape: a
// reconnecting sender replays its last unacknowledged frame, and the
// receiver must acknowledge without double-applying.
func TestReceiverDuplicateAfterReconnect(t *testing.T) {
	reg := obs.NewRegistry()
	recv := newTestReceiver(t, false, reg)
	frame := Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 2,
		Block: mustBlock(t, false, snapRec("f1"), endRec("f1"))}
	if ack := recv.Apply(frame); !ack.OK || ack.AckSeq != 2 {
		t.Fatalf("first apply: %+v", ack)
	}
	// Same frame again, as after an ack lost to a dropped connection.
	if ack := recv.Apply(frame); !ack.OK || ack.AckSeq != 2 {
		t.Fatalf("duplicate apply: %+v", ack)
	}
	if got := reg.Counter("repl_duplicate_frames_total").Value(); got != 1 {
		t.Fatalf("repl_duplicate_frames_total = %d, want 1", got)
	}
	// The flow ended exactly once: nothing live, nothing resurrected.
	if ids := liveIDs(t, recv, "own"); len(ids) != 0 {
		t.Fatalf("live after duplicate: %v", ids)
	}
}

// TestReceiverOverlapAppliesSuffix covers a coalesced retry frame that
// straddles the cursor: only the unseen suffix may apply.
func TestReceiverOverlapAppliesSuffix(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	if ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 2,
		Block: mustBlock(t, false, snapRec("f1"), snapRec("f2"))}); !ack.OK {
		t.Fatalf("seed: %+v", ack)
	}
	// Seq 1-3 against cursor 2: f1/f2 are dupes, end(f1) is new.
	ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 3,
		Block: mustBlock(t, false, snapRec("f1"), snapRec("f2"), endRec("f1"))})
	if !ack.OK || ack.AckSeq != 3 {
		t.Fatalf("overlap apply: %+v", ack)
	}
	if ids := liveIDs(t, recv, "own"); !reflect.DeepEqual(ids, []string{"f2"}) {
		t.Fatalf("live after overlap: %v", ids)
	}
}

func TestReceiverGapThenSnapshotHeals(t *testing.T) {
	reg := obs.NewRegistry()
	recv := newTestReceiver(t, false, reg)
	ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 7, Count: 1,
		Block: mustBlock(t, false, snapRec("f7"))})
	if ack.OK || !ack.NeedSnapshot || ack.AckSeq != 0 {
		t.Fatalf("gap ack: %+v", ack)
	}
	if got := reg.Counter("repl_gap_snapshots_total").Value(); got != 1 {
		t.Fatalf("repl_gap_snapshots_total = %d", got)
	}
	// Snapshot current through 6 rebuilds the replica; the append retries.
	snap := Frame{Op: OpSnapshot, Source: "own", Seq: 6, Count: 2,
		Block: mustBlock(t, false, snapRec("f5"), snapRec("f6"))}
	if ack := recv.Apply(snap); !ack.OK || ack.AckSeq != 6 {
		t.Fatalf("snapshot ack: %+v", ack)
	}
	if ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 7, Count: 1,
		Block: mustBlock(t, false, snapRec("f7"))}); !ack.OK || ack.AckSeq != 7 {
		t.Fatalf("post-snapshot append: %+v", ack)
	}
	if ids := liveIDs(t, recv, "own"); !reflect.DeepEqual(ids, []string{"f5", "f6", "f7"}) {
		t.Fatalf("live after heal: %v", ids)
	}
	if got := reg.Counter("repl_snapshots_applied_total").Value(); got != 1 {
		t.Fatalf("repl_snapshots_applied_total = %d", got)
	}
}

// TestMixedCodecReplication crosses the encodings both ways: a JSON
// owner's blocks land in a binary replica store and vice versa — the
// receiver sniffs each block and re-appends through its own store.
func TestMixedCodecReplication(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		ownerBin, followerBin bool
	}{
		{"json-owner-binary-follower", false, true},
		{"binary-owner-json-follower", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv := newTestReceiver(t, tc.followerBin, nil)
			// f1 carries a binary request document: whichever side is JSONL
			// must hand it on byte-for-byte (codec.Record's requestBin key).
			f1 := snapRec("f1")
			f1.Request = string([]byte{codec.Magic, codec.Version, codec.MsgRequest, 0xff, 0x00, 0xfe})
			ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 3,
				Block: mustBlock(t, tc.ownerBin, f1, snapRec("f2"), endRec("f2"))})
			if !ack.OK || ack.AckSeq != 3 {
				t.Fatalf("apply: %+v", ack)
			}
			entries, err := recv.Promote("own")
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].ID != "f1" || entries[0].Request != f1.Request {
				t.Fatalf("live after promotion: %+v", entries)
			}
		})
	}
}

// senderTo builds a quorum-or-other sender wired straight into recv, as
// the wire layer would, with an optional snapshot source.
func senderTo(t *testing.T, recv *Receiver, mode AckMode, reg *obs.Registry, snap func() (Frame, error)) *Sender {
	t.Helper()
	s := NewSender(SenderConfig{
		Source: "own",
		Mode:   mode,
		Send: func(peer string, f Frame) (Ack, error) {
			return recv.Apply(f), nil
		},
		Snapshot: snap,
		Obs:      reg,
	})
	t.Cleanup(s.Close)
	return s
}

func waitAcked(t *testing.T, s *Sender, peer string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, f := range s.Status() {
			if f.Peer == peer && f.AckedSeq >= seq {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("follower %s never acked seq %d: %+v", peer, seq, s.Status())
}

func TestSenderQuorumRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	recv := newTestReceiver(t, false, reg)
	s := senderTo(t, recv, ModeQuorum, reg, nil)
	s.SetFollowers([]string{"f1"})
	if got := s.Followers(); !reflect.DeepEqual(got, []string{"f1"}) {
		t.Fatalf("followers: %v", got)
	}
	wait := s.Replicate(taps(1, snapRec("x"), endRec("x")))
	if wait == nil {
		t.Fatal("commit-point batch returned no wait")
	}
	wait()
	if got := reg.Counter("repl_acks_total").Value(); got != 1 {
		t.Fatalf("repl_acks_total = %d", got)
	}
	if s.LastSeq() != 2 {
		t.Fatalf("lastSeq = %d", s.LastSeq())
	}
	waitAcked(t, s, "f1", 2)
	if ids := liveIDs(t, recv, "own"); len(ids) != 0 {
		t.Fatalf("live: %v", ids)
	}
}

// TestSenderCommitPointGate: a batch with no terminal/passivation
// record streams without a wait — the next commit point's cumulative
// ack covers it.
func TestSenderCommitPointGate(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	s := senderTo(t, recv, ModeQuorum, nil, nil)
	s.SetFollowers([]string{"f1"})
	if wait := s.Replicate(taps(1, store.Record{Type: store.TypeExecStart, ID: "x"})); wait != nil {
		t.Fatal("mid-flight batch demanded a wait")
	}
	if wait := s.Replicate(taps(2, store.Record{Type: store.TypeExecPassivate, ID: "x"})); wait == nil {
		t.Fatal("passivation batch returned no wait")
	} else {
		wait()
	}
	waitAcked(t, s, "f1", 2)
}

func TestSenderAsyncNeverWaits(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	s := senderTo(t, recv, ModeAsync, nil, nil)
	s.SetFollowers([]string{"f1"})
	if wait := s.Replicate(taps(1, snapRec("x"), endRec("x"))); wait != nil {
		t.Fatal("async mode returned a wait")
	}
	waitAcked(t, s, "f1", 2)
}

func TestSenderNoFollowersNoWait(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	s := senderTo(t, recv, ModeQuorum, nil, nil)
	if wait := s.Replicate(taps(1, endRec("x"))); wait != nil {
		t.Fatal("followerless sender returned a wait")
	}
	if wait := s.Replicate(nil); wait != nil {
		t.Fatal("empty batch returned a wait")
	}
}

// TestSenderChainForwards: chain mode sends to the head only; the head
// relays down the chain before acking upstream.
func TestSenderChainForwards(t *testing.T) {
	regTail := obs.NewRegistry()
	tail := newTestReceiver(t, false, regTail)
	head, err := NewReceiver(ReceiverConfig{
		Dir: t.TempDir(),
		Forward: func(peer string, f Frame) (Ack, error) {
			if peer != "f2" {
				return Ack{}, fmt.Errorf("forwarded to %s, want f2", peer)
			}
			return tail.Apply(f), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(head.Close)
	s := NewSender(SenderConfig{
		Source: "own",
		Mode:   ModeChain,
		Send: func(peer string, f Frame) (Ack, error) {
			if peer != "f1" {
				return Ack{}, fmt.Errorf("chain mode sent to %s, want head f1", peer)
			}
			return head.Apply(f), nil
		},
	})
	t.Cleanup(s.Close)
	s.SetFollowers([]string{"f1", "f2"})
	wait := s.Replicate(taps(1, snapRec("x"), endRec("x")))
	if wait == nil {
		t.Fatal("chain commit point returned no wait")
	}
	wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srcs := tail.Sources()
		if len(srcs) == 1 && srcs[0].LastSeq == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail never caught up: %+v", srcs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSenderAckTimeoutDegradesToAsync: a follower slower than the ack
// budget must slow the owner by at most AckTimeout, not halt it.
func TestSenderAckTimeoutDegradesToAsync(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	s := NewSender(SenderConfig{
		Source:     "own",
		Mode:       ModeQuorum,
		AckTimeout: 20 * time.Millisecond,
		Send: func(peer string, f Frame) (Ack, error) {
			<-release
			return Ack{OK: true, AckSeq: f.Seq + uint64(f.Count) - 1}, nil
		},
		Obs: reg,
	})
	s.SetFollowers([]string{"slow"})
	wait := s.Replicate(taps(1, endRec("x")))
	if wait == nil {
		t.Fatal("no wait")
	}
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not time out")
	}
	if got := reg.Counter("repl_ack_timeouts_total").Value(); got != 1 {
		t.Fatalf("repl_ack_timeouts_total = %d", got)
	}
	close(release)
	s.Close()
}

// TestSenderFailedDeliveryCountsFailure: a dead follower fails the
// quorum wait promptly (no timeout needed — the error is definitive).
func TestSenderFailedDeliveryCountsFailure(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSender(SenderConfig{
		Source: "own",
		Mode:   ModeQuorum,
		Send: func(peer string, f Frame) (Ack, error) {
			return Ack{}, errors.New("connection refused")
		},
		Obs: reg,
	})
	t.Cleanup(s.Close)
	s.SetFollowers([]string{"dead"})
	wait := s.Replicate(taps(1, endRec("x")))
	if wait == nil {
		t.Fatal("no wait")
	}
	wait()
	if got := reg.Counter("repl_ack_failures_total").Value(); got != 1 {
		t.Fatalf("repl_ack_failures_total = %d", got)
	}
	if got := reg.Counter("repl_send_errors_total", "peer", "dead").Value(); got == 0 {
		t.Fatal("repl_send_errors_total not counted")
	}
}

// TestSenderOutboxOverflowDrops: a follower that can't drain its outbox
// has frames dropped (and will re-sync by snapshot), never blocking the
// owner's append path.
func TestSenderOutboxOverflowDrops(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s := NewSender(SenderConfig{
		Source:     "own",
		Mode:       ModeAsync,
		QueueDepth: 1,
		Send: func(peer string, f Frame) (Ack, error) {
			once.Do(func() { close(started) })
			<-gate
			return Ack{OK: true, AckSeq: f.Seq + uint64(f.Count) - 1}, nil
		},
		Obs: reg,
	})
	s.SetFollowers([]string{"stuck"})
	s.Replicate(taps(1, snapRec("a"))) // occupies the worker
	<-started
	s.Replicate(taps(2, snapRec("b"))) // fills the queue
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("repl_frames_dropped_total", "peer", "stuck").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overflow never dropped")
		}
		s.Replicate(taps(3, snapRec("c"))) // must be dropped or queued, never block
	}
	close(gate)
	s.Close()
}

// TestSenderShipsSnapshotOnGap: a cold follower's first ack reports a
// gap; the sender ships a snapshot, then the original frame.
func TestSenderShipsSnapshotOnGap(t *testing.T) {
	reg := obs.NewRegistry()
	recv := newTestReceiver(t, false, reg)
	snap := func() (Frame, error) {
		// State current through seq 4: two live flows.
		return Frame{Seq: 4, Count: 2, Block: mustBlock(t, false, snapRec("f1"), snapRec("f2"))}, nil
	}
	s := senderTo(t, recv, ModeQuorum, reg, snap)
	s.SetFollowers([]string{"f1"})
	wait := s.Replicate(taps(5, endRec("f2")))
	if wait == nil {
		t.Fatal("no wait")
	}
	wait()
	waitAcked(t, s, "f1", 5)
	if got := reg.Counter("repl_snapshots_shipped_total").Value(); got != 1 {
		t.Fatalf("repl_snapshots_shipped_total = %d", got)
	}
	if ids := liveIDs(t, recv, "own"); !reflect.DeepEqual(ids, []string{"f1"}) {
		t.Fatalf("live after snapshot+append: %v", ids)
	}
}

// TestSenderCoalescesContiguousFrames: batches that queue behind an
// in-flight round trip merge into one frame — group commit applied to
// the network.
func TestSenderCoalescesContiguousFrames(t *testing.T) {
	reg := obs.NewRegistry()
	recv := newTestReceiver(t, false, reg)
	gate := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	s := NewSender(SenderConfig{
		Source: "own",
		Mode:   ModeAsync,
		Send: func(peer string, f Frame) (Ack, error) {
			once.Do(func() { close(first) })
			<-gate
			return recv.Apply(f), nil
		},
		Obs: reg,
	})
	t.Cleanup(s.Close)
	s.SetFollowers([]string{"f1"})
	s.Replicate(taps(1, snapRec("a")))
	<-first // worker is mid-delivery; what follows queues
	s.Replicate(taps(2, snapRec("b")))
	s.Replicate(taps(3, snapRec("c")))
	close(gate)
	waitAcked(t, s, "f1", 3)
	if got := reg.Counter("repl_frames_coalesced_total").Value(); got == 0 {
		t.Fatal("queued contiguous frames never coalesced")
	}
	if srcs := recv.Sources(); srcs[0].LastSeq != 3 || srcs[0].Live != 3 {
		t.Fatalf("receiver after coalesced delivery: %+v", srcs)
	}
}

func TestSenderSetFollowersReplacesSet(t *testing.T) {
	recv := newTestReceiver(t, false, nil)
	s := senderTo(t, recv, ModeQuorum, nil, nil)
	s.SetFollowers([]string{"f1", "f2", "f1", "", "own"})
	if got := s.Followers(); !reflect.DeepEqual(got, []string{"f1", "f2"}) {
		t.Fatalf("followers (dedup, no self/empty): %v", got)
	}
	s.SetFollowers([]string{"f2"})
	if got := s.Followers(); !reflect.DeepEqual(got, []string{"f2"}) {
		t.Fatalf("followers after shrink: %v", got)
	}
	s.Close()
	s.SetFollowers([]string{"f3"})
	if got := s.Followers(); got != nil {
		t.Fatalf("followers after close: %v", got)
	}
}

// TestReceiverRestartHealsBySnapshot: a restarted receiver's cursors
// reset to 0, so the next streamed frame is a gap and the owner ships a
// snapshot — the documented re-sync path.
func TestReceiverRestartHealsBySnapshot(t *testing.T) {
	dir := t.TempDir()
	recv, err := NewReceiver(ReceiverConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: 1, Count: 1,
		Block: mustBlock(t, false, snapRec("f1"))}); !ack.OK {
		t.Fatalf("seed: %+v", ack)
	}
	recv.Close()

	again, err := NewReceiver(ReceiverConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	// The replica directory was rediscovered, promotable even cold.
	srcs := again.Sources()
	if len(srcs) != 1 || srcs[0].Source != "own" || srcs[0].LastSeq != 0 || srcs[0].Live != 1 {
		t.Fatalf("rediscovered sources: %+v", srcs)
	}
	ack := again.Apply(Frame{Op: OpAppend, Source: "own", Seq: 2, Count: 1,
		Block: mustBlock(t, false, endRec("f1"))})
	if ack.OK || !ack.NeedSnapshot {
		t.Fatalf("restarted cursor accepted a streamed frame: %+v", ack)
	}
}

// TestSenderAckTimerIsReusable: the ack waits share pooled timers, and a
// timer that fired for one batch must not fire early, or late, for the
// next — a stale firing left in its channel would time a healthy wait
// out at once.
func TestSenderAckTimerIsReusable(t *testing.T) {
	reg := obs.NewRegistry()
	var slow atomic.Bool
	release := make(chan struct{})
	s := NewSender(SenderConfig{
		Source:     "own",
		Mode:       ModeQuorum,
		AckTimeout: 20 * time.Millisecond,
		Send: func(peer string, f Frame) (Ack, error) {
			if slow.Load() {
				<-release
			}
			return Ack{OK: true, AckSeq: f.Seq + uint64(f.Count) - 1}, nil
		},
		Obs: reg,
	})
	defer s.Close()
	s.SetFollowers([]string{"f1"})
	seq := uint64(0)
	round := func(wantTimeouts, wantAcks int64) {
		t.Helper()
		seq++
		wait := s.Replicate(taps(seq, endRec("x")))
		if wait == nil {
			t.Fatal("no wait")
		}
		wait()
		if got := reg.Counter("repl_ack_timeouts_total").Value(); got != wantTimeouts {
			t.Fatalf("batch %d: repl_ack_timeouts_total = %d, want %d", seq, got, wantTimeouts)
		}
		if got := reg.Counter("repl_acks_total").Value(); got != wantAcks {
			t.Fatalf("batch %d: repl_acks_total = %d, want %d", seq, got, wantAcks)
		}
	}
	round(0, 1) // acked: the timer goes back stopped
	round(0, 2) // reused, never fired
	slow.Store(true)
	round(1, 2) // fired: the wait took the firing
	slow.Store(false)
	close(release)
	waitAcked(t, s, "f1", seq)
	round(1, 3) // reused after a firing: must wait for the ack, not time out at once
	round(1, 4)
}

// TestReplicateAllocs: the tap's hand-off encodes straight from the
// batch it was given and takes its ack timer from the pool — no record
// copy, no timer per waited batch.
func TestReplicateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	s := NewSender(SenderConfig{
		Source: "own", Mode: ModeQuorum, Binary: true,
		Send: func(peer string, f Frame) (Ack, error) {
			return Ack{OK: true, AckSeq: f.Seq + uint64(f.Count) - 1}, nil
		},
	})
	defer s.Close()
	s.SetFollowers([]string{"f1"})
	// A flow's second commit: four step.done and the exec.end.
	batch := make([]store.TapRecord, 5)
	for i := range batch {
		batch[i].Rec = store.Record{Type: store.TypeStepDone, ID: "own:dgf-000001", Node: "/job/s" + strconv.Itoa(i)}
	}
	batch[4].Rec = store.Record{Type: store.TypeExecEnd, ID: "own:dgf-000001"}
	seq := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		for i := range batch {
			seq++
			batch[i].Seq = seq
		}
		wait := s.Replicate(batch)
		if wait == nil {
			t.Fatal("no wait")
		}
		wait()
	})
	t.Logf("%.1f allocations per waited 5-record batch, outbox worker included", allocs)
	if allocs > 6 {
		t.Errorf("Replicate + wait allocates %.1f times per batch, budget 6", allocs)
	}
}
