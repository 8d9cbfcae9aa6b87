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
	"datagridflow/internal/obs"
	"datagridflow/internal/scheduler"
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
	if c, err := decodeControl(payload); err != nil || !reflect.DeepEqual(c, Control{Op: "hello", Proto: ProtoVersion}) {
		t.Errorf("hello_v1.bin decodes to %+v, %v", c, err)
	}
}

// FuzzEnvelopes is FuzzRouteEnvelopes' twin for every other envelope:
// control, batch and replicate frames and their replies, and a route
// frame with a delegation's parent fields, built from fuzzed fields,
// survive encode/decode exactly, and
// arbitrary bytes — the JSON an old build sent among them — never panic
// a decoder. The control decoder is the first parser any connection
// reaches, before any token is checked.
func FuzzEnvelopes(f *testing.F) {
	f.Add("hello", "dgf-000001", ProtoVersion, "dgt1.YWxpY2U.1790000000.c2ln", "alice", 20, true, uint64(7),
		[]byte("<dataGridRequest/>"), []byte{codec.Magic, codec.Version, codec.MsgControl})
	f.Add("", "", "", "", "", -1, false, uint64(0), []byte{}, []byte(`{"op":"hello","proto":"1.8"}`))
	// A registry heartbeat: shard 0 and an empty load must survive too.
	f.Add("heartbeat", "9f2c", "127.0.0.1:7401", "dgt1.cGVlckE.1790000000.c2ln", "peerA", 0, true, uint64(0),
		[]byte{}, []byte{codec.Magic, codec.Version, codec.MsgControlResult, 0x35})
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
		load := scheduler.PeerLoad{Inflight: int64(n), Queued: int64(seq), Running: int64(n) - 1, Capacity: int64(seq) + 1,
			Resources: chain}
		ctl := Control{Op: a, ID: b, Proto: c, Token: token, Limit: n, Sub: c, User: user, Key: b,
			Name: user, Addr: c, Load: &load, Shards: []int{n, 0, n + 1}, Keys: chain}
		appendControl(e, &ctl)
		if got, err := decodeControl(e.Bytes()); err != nil || !reflect.DeepEqual(got, ctl) {
			t.Fatalf("control round trip: %+v, %v, want %+v", got, err, ctl)
		}

		res := ControlResult{OK: ok, ID: b, Error: c, Proto: a,
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
			Peers:  []PeerInfo{{Name: user, Addr: c, AgeSeconds: float64(n) / 4, Load: load}},
			Owners: map[int]string{n: user, n + 1: a},
		}
		e.Reset()
		appendControlResult(e, &res)
		if got, err := decodeControlResult(e.Bytes()); err != nil || !reflect.DeepEqual(got, res) {
			t.Fatalf("control result round trip: %+v, %v, want %+v", got, err, res)
		}
		// A registry heartbeat's reply: the gossip rows, a load-less one
		// among them, and the owner map, shard 0 included.
		hb := ControlResult{OK: true, Peers: []PeerInfo{{Name: user, Addr: c, Load: load}, {Name: a, AgeSeconds: float64(seq)}},
			Owners: map[int]string{0: user, n: b}}
		e.Reset()
		appendControlResult(e, &hb)
		if got, err := decodeControlResult(e.Bytes()); err != nil || !reflect.DeepEqual(got, hb) {
			t.Fatalf("heartbeat reply round trip: %+v, %v, want %+v", got, err, hb)
		}
		// A lookup's reply, with the entry found and without one.
		for _, v := range []*VdataInfo{{Enabled: true, Found: true, Entry: ent}, {Enabled: true, Found: true}} {
			vr := ControlResult{OK: true, Vdata: v}
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

		// A delegation: a route frame that names its parent node.
		rt := Route{User: user, Token: token, Request: string(blob), Shard: n, Origin: a, ParentExec: b, ParentNode: c}
		e.Reset()
		appendRoute(e, &rt)
		if got, err := decodeRoute(e.Bytes()); err != nil || got != rt {
			t.Fatalf("delegation round trip: %+v, %v, want %+v", got, err, rt)
		}

		rf := Replicate{Op: a, Source: b, Seq: seq, Count: n, Block: block}
		e.Reset()
		appendReplicate(e, &rf)
		if got, err := decodeReplicate(e.Bytes()); err != nil || !reflect.DeepEqual(got, rf) {
			t.Fatalf("replicate round trip: %+v, %v, want %+v", got, err, rf)
		}
		for _, peer := range chain { // the retired field 6, as older builds wrote it
			e.Sym(6, peer)
		}
		if got, err := decodeReplicate(e.Bytes()); err != nil || !reflect.DeepEqual(got, rf) {
			t.Fatalf("replicate with retired field 6: %+v, %v, want %+v", got, err, rf)
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
		_, _ = decodeRoute(raw)
		_, _ = decodeReplicate(raw)
		_, _ = decodeReplicateResult(raw)
	})
}

// FuzzRegistryHandler feeds arbitrary control payloads to the lookup
// registry's handler, open and token-gated, sharded, with a peer and a
// derivation already registered: every payload gets an answer or a typed
// refusal, never a panic. Frames of any other kind never reach the
// handler — serve severs the connection on them.
func FuzzRegistryHandler(f *testing.F) {
	auth, err := tenant.NewAuthority([]byte("registry-fuzz-secret"))
	if err != nil {
		f.Fatal(err)
	}
	tok, err := auth.Mint("peerA", time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	open, gated := NewLookupServer(), NewLookupServer()
	gated.SetAuth(auth)
	for _, ls := range []*LookupServer{open, gated} {
		ls.SetObs(obs.NewRegistry())
		ls.SetShards(4)
		ls.handle(encodedControl(Control{Op: "register", Name: "peerA", Addr: "127.0.0.1:1", Token: tok}))
		ls.handle(encodedControl(Control{Op: "vput", Name: "peerA", Keys: []string{"k1"}, Token: tok}))
	}
	load := &scheduler.PeerLoad{Inflight: 2, Capacity: 8, Resources: []string{"disk"}}
	for _, c := range []Control{
		{Op: "hello", Proto: ProtoVersion, Token: tok},
		{Op: "register", Name: "peerB", Addr: "127.0.0.1:2", Token: tok},
		{Op: "resolve", Name: "peerA"},
		{Op: "list"},
		{Op: "heartbeat", Name: "peerA", Addr: "127.0.0.1:1", Load: load, Token: tok},
		{Op: "claim", Name: "peerA", Shards: []int{0, 3, 9, -1}, Token: tok},
		{Op: "release", Name: "peerA", Shards: []int{0}, Token: tok},
		{Op: "vput", Name: "peerA", Keys: []string{"k2", ""}, Token: tok},
		{Op: "vget", Key: "k1"},
		{Op: "unregister", Name: "peerA", Token: tok},
		{Op: "defenestrate"},
	} {
		f.Add(encodedControl(c))
	}
	f.Add([]byte(`{"op":"register","name":"peerA","addr":"127.0.0.1:1"}`))
	f.Add([]byte{codec.Magic, codec.Version, codec.MsgControl, 0x35, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, ls := range []*LookupServer{open, gated} {
			if res := ls.handle(payload); res.OK == (res.Error != "") {
				t.Fatalf("reply is neither an answer nor a refusal: %+v", res)
			}
		}
	})
}

// encodedControl renders a control envelope as a frame payload.
func encodedControl(c Control) []byte {
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	appendControl(e, &c)
	return append([]byte(nil), e.Bytes()...)
}
