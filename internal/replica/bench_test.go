package replica

import (
	"bytes"
	"strconv"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/store"
)

// flowFrames is what an owner ships for one four-step flow: the block
// its exec.start commits, then the block of four step.done records and
// the exec.end that the end's commit carries — six records in two
// frames. setID renumbers the flow in place, so one pair of blocks
// serves any number of flows.
type flowFrames struct {
	blocks [2][]byte
	digits [][]byte // where the id's six digits lie in the blocks
}

func newFlowFrames(t testing.TB) *flowFrames {
	const id = "own:dgf-000000"
	flow := dgl.NewFlow("job")
	for i := 0; i < 4; i++ {
		flow.Step("s"+strconv.Itoa(i), dgl.Op(dgl.OpNoop, nil))
	}
	start := store.Record{Type: store.TypeExecStart, ID: id,
		Request: codec.RequestDoc(dgl.NewRequest("user", "", flow.Flow()))}
	var rest []store.Record
	for i := 0; i < 4; i++ {
		rest = append(rest, store.Record{Type: store.TypeStepDone, ID: id, Node: "/job/s" + strconv.Itoa(i)})
	}
	rest = append(rest, store.Record{Type: store.TypeExecEnd, ID: id})
	ff := &flowFrames{}
	for i, recs := range [][]store.Record{{start}, rest} {
		block, err := EncodeBlock(recs, true)
		if err != nil {
			t.Fatal(err)
		}
		ff.blocks[i] = block
		for off := 0; ; {
			at := bytes.Index(block[off:], []byte(id))
			if at < 0 {
				break
			}
			end := off + at + len(id)
			ff.digits = append(ff.digits, block[end-6:end])
			off = end
		}
	}
	if len(ff.digits) != 6 {
		t.Fatalf("the blocks carry the id %d times, want 6", len(ff.digits))
	}
	return ff
}

// setID makes the blocks those of flow n.
func (ff *flowFrames) setID(n int) {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(n), 10)
	for _, d := range ff.digits {
		for i := range d {
			d[i] = '0'
		}
		copy(d[len(d)-len(digits):], digits)
	}
}

// apply delivers flow n's two frames, numbered from seq, to recv.
func (ff *flowFrames) apply(t testing.TB, recv *Receiver, n int, seq uint64) {
	ff.setID(n)
	for i, count := range [2]int{1, 5} {
		ack := recv.Apply(Frame{Op: OpAppend, Source: "own", Seq: seq, Count: count, Block: ff.blocks[i]})
		if !ack.OK {
			t.Fatalf("flow %d frame %d: %+v", n, i, ack)
		}
		seq += uint64(count)
	}
}

// BenchmarkApplyAppend times the receiver's ack path for one replicated
// four-step flow: two frames, written into the replica store as they
// came and folded into its index. This is the follower-side half of
// every quorum round trip.
func BenchmarkApplyAppend(b *testing.B) {
	recv, err := NewReceiver(ReceiverConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	ff := newFlowFrames(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff.apply(b, recv, i+1, uint64(6*i+1))
	}
}

// BenchmarkSenderLoopback times the sender machinery end to end with a
// zero-cost transport: outbox hand-off, coalescing, the ack watermark. The
// delta against the full wire round trip (BenchmarkReplicateRoundTrip
// in internal/wire) is the transport's share.
func BenchmarkSenderLoopback(b *testing.B) {
	s := NewSender(SenderConfig{
		Source: "src",
		Mode:   ModeQuorum,
		Send: func(peer string, f Frame) (Ack, error) {
			return Ack{OK: true, AckSeq: f.Seq + uint64(f.Count) - 1}, nil
		},
	})
	defer s.Close()
	s.SetFollowers([]string{"f1"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := store.TapRecord{Seq: uint64(i + 1), Rec: store.Record{Type: store.TypeExecSnap, ID: "x"}}
		s.Replicate([]store.TapRecord{rec})
		s.Await(rec.Seq)
	}
}
