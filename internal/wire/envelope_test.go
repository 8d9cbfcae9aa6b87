package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// TestGoldenHelloFrame pins the first frame of every connection — the
// hello Dial sends, as it reaches the server — and proves the control
// decoder reads the committed file back. Regenerate with
// `go test ./internal/wire -run Golden -update` after an intentional
// change of layout or version.
func TestGoldenHelloFrame(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	go func() { _, _ = DialContext(ctx, l.Addr().String()) }()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := make([]byte, headerLen)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	n := int(got[1])<<24 | int(got[2])<<16 | int(got[3])<<8 | int(got[4])
	got = append(got, make([]byte, n)...)
	if _, err := io.ReadFull(conn, got[headerLen:]); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "hello_v1.bin")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the hello Dial sends diverges from the pinned frame\n got: %x\nwant: %x", got, want)
	}
	kind, id, payload, err := ReadMuxFrame(bytes.NewReader(want))
	if err != nil || kind != KindControl || id != 1 {
		t.Fatalf("hello_v1.bin: kind %d id %d, %v", kind, id, err)
	}
	if c, err := decodeControl(payload); err != nil || c != (Control{Op: "hello", Proto: ProtoVersion}) {
		t.Errorf("hello_v1.bin decodes to %+v, %v", c, err)
	}
}

// FuzzEnvelopes is FuzzRouteEnvelopes' twin for every other envelope:
// control, batch, delegate and replicate frames and their replies,
// built from fuzzed fields, survive encode/decode exactly, and
// arbitrary bytes — the JSON an old build sent among them — never panic
// a decoder. The control decoder is the first parser any connection
// reaches, before any token is checked.
func FuzzEnvelopes(f *testing.F) {
	f.Add("hello", "dgf-000001", ProtoVersion, "dgt1.YWxpY2U.1790000000.c2ln", "alice", 20, true, uint64(7),
		[]byte("<dataGridRequest/>"), []byte{codec.Magic, codec.Version, codec.MsgControl})
	f.Add("", "", "", "", "", -1, false, uint64(0), []byte{}, []byte(`{"op":"hello","proto":"1.8"}`))
	f.Fuzz(func(t *testing.T, a, b, c, token, user string, n int, ok bool, seq uint64, blob, raw []byte) {
		e := codec.GetEncoder()
		defer codec.PutEncoder(e)
		var metrics json.RawMessage
		var block []byte
		if len(blob) > 0 {
			metrics, block = json.RawMessage(blob), blob
		}
		var chain []string // peer names: an empty one is no peer
		for _, peer := range []string{user, a} {
			if peer != "" {
				chain = append(chain, peer)
			}
		}

		ent := &vdata.Entry{Key: b, Tenant: user, Op: a, Inputs: []string{c}, Params: map[string]string{a: c},
			Outputs: []string{a, b}, Result: c, Peer: user, Unix: int64(n)}
		ctl := Control{Op: a, ID: b, Proto: c, Token: token, Limit: n, Sub: c, User: user, Key: b, Entry: ent}
		appendControl(e, &ctl)
		if got, err := decodeControl(e.Bytes()); err != nil || !reflect.DeepEqual(got, ctl) {
			t.Fatalf("control round trip: %+v, %v, want %+v", got, err, ctl)
		}

		res := ControlResult{OK: ok, ID: b, Error: c, Proto: a, Tenant: user,
			Executions: []ExecutionInfo{{ID: a, Name: b, State: c, User: user}},
			Metrics:    metrics,
			Store: &StoreInfo{Segments: n, Records: n + 1, ReplayRecords: n + 2, Live: n + 3, Passivated: n + 4,
				Resident: n + 5, SnapshotLag: n + 6, Pending: n + 7, Failed: c,
				Compaction: &CompactionInfo{SegmentsBefore: n, RecordsBefore: n + 1, RecordsKept: n + 2, RecordsDropped: n + 3}},
			Owner: &OwnerInfo{ID: a, Peer: b, Addr: c, Shard: n, Source: user},
			Repl: &ReplInfo{Mode: a, Seq: seq,
				Followers: []ReplFollowerInfo{{Peer: b, AckedSeq: seq + 1}},
				Sources:   []ReplSourceInfo{{Source: c, LastSeq: seq + 2, Live: n, Promoted: ok}}},
			Tenants: &TenantsInfo{Enabled: ok, Auth: !ok, Require: ok, Registered: n,
				Tenants: []tenant.Info{{Name: user, Weight: float64(n) / 4, Flows: n, StoreBytes: int64(n), Delegations: n + 1}}},
			Vdata: &VdataInfo{Enabled: ok, Entries: n, Tenants: n + 1, Publishes: seq, Invalidations: seq + 1,
				Durable: !ok, Found: ok, Removed: n + 2},
		}
		e.Reset()
		appendControlResult(e, &res)
		if got, err := decodeControlResult(e.Bytes()); err != nil || !reflect.DeepEqual(got, res) {
			t.Fatalf("control result round trip: %+v, %v, want %+v", got, err, res)
		}
		// A lookup's reply, with the entry found and without one.
		for _, v := range []*VdataInfo{{Enabled: true, Found: true, Entry: ent}, {Enabled: true, Found: true}} {
			vr := ControlResult{OK: true, Tenant: user, Vdata: v}
			e.Reset()
			appendControlResult(e, &vr)
			if got, err := decodeControlResult(e.Bytes()); err != nil || !reflect.DeepEqual(got, vr) {
				t.Fatalf("vdata reply round trip: %+v, %v, want %+v", got.Vdata, err, v)
			}
		}

		// A batch carries non-empty documents: the client renders every
		// item, the server answers every one.
		items := [][]byte{append([]byte{'<'}, blob...), append([]byte{codec.Magic}, raw...)}
		e.Reset()
		appendBatchStart(e, user, token)
		for _, it := range items {
			appendBatchItem(e, it)
		}
		if gu, gt, gi, err := decodeBatch(e.Bytes()); err != nil || gu != user || gt != token || !reflect.DeepEqual(gi, items) {
			t.Fatalf("batch round trip: %q %q %q, %v", gu, gt, gi, err)
		}
		e.Reset()
		appendBatchResult(e, ok, c)
		for _, it := range items {
			appendBatchResponse(e, it)
		}
		if gok, gerr, gi, err := decodeBatchResult(e.Bytes()); err != nil || gok != ok || gerr != c || !reflect.DeepEqual(gi, items) {
			t.Fatalf("batch result round trip: %v %q %q, %v", gok, gerr, gi, err)
		}

		dl := Delegate{User: user, Token: token, Request: string(blob), Origin: a, ParentExec: b, ParentNode: c}
		e.Reset()
		appendDelegate(e, &dl)
		if got, err := decodeDelegate(e.Bytes()); err != nil || got != dl {
			t.Fatalf("delegate round trip: %+v, %v, want %+v", got, err, dl)
		}
		dr := DelegateResult{OK: ok, Error: c, ID: b, Status: string(raw)}
		e.Reset()
		appendDelegateResult(e, &dr)
		if got, err := decodeDelegateResult(e.Bytes()); err != nil || got != dr {
			t.Fatalf("delegate result round trip: %+v, %v, want %+v", got, err, dr)
		}

		rf := Replicate{Op: a, Source: b, Seq: seq, Count: n, Block: block, Chain: chain}
		e.Reset()
		appendReplicate(e, &rf)
		if got, err := decodeReplicate(e.Bytes()); err != nil || !reflect.DeepEqual(got, rf) {
			t.Fatalf("replicate round trip: %+v, %v, want %+v", got, err, rf)
		}
		ra := ReplicateResult{OK: ok, AckSeq: seq, NeedSnapshot: !ok, Error: c}
		e.Reset()
		appendReplicateResult(e, &ra)
		if got, err := decodeReplicateResult(e.Bytes()); err != nil || got != ra {
			t.Fatalf("replicate result round trip: %+v, %v, want %+v", got, err, ra)
		}

		_, _ = decodeControl(raw)
		_, _ = decodeControlResult(raw)
		_, _, _, _ = decodeBatch(raw)
		_, _, _, _ = decodeBatchResult(raw)
		_, _ = decodeDelegate(raw)
		_, _ = decodeDelegateResult(raw)
		_, _ = decodeReplicate(raw)
		_, _ = decodeReplicateResult(raw)
	})
}
