package wire

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
)

// TestBinaryNegotiation pins the hello matrix for 1.4: a current client
// against a current server negotiates binary; against a 1.3 server it
// stays on the text encodings — and both sessions serve requests.
func TestBinaryNegotiation(t *testing.T) {
	cases := []struct {
		name       string
		serverCfg  ServerConfig
		disable    bool
		wantBinary bool
	}{
		{"1.4 both", ServerConfig{}, false, true},
		{"1.3 server", ServerConfig{ProtoMinor: 3}, false, false},
		{"client opt-out", ServerConfig{}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, "")
			s := NewServerConfig(e, tc.serverCfg)
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tc.disable {
				c.DisableBinary()
			}
			// The default test grid shares the process-wide obs registry:
			// assert on deltas, not absolutes.
			enc0 := e.Obs().Counter("codec_encode_bytes_total").Value()
			fb0 := e.Obs().Counter("codec_fallback_total", "kind", "dgl").Value()
			if _, err := c.Hello(); err != nil {
				t.Fatal(err)
			}
			if got := c.Binary(); got != tc.wantBinary {
				t.Fatalf("Binary() = %v, want %v", got, tc.wantBinary)
			}
			// The session must work either way: sync submit, async +
			// status, and a control verb.
			resp, err := c.SubmitFlow("user", noopFlow("neg"))
			if err != nil || resp.Status == nil || resp.Status.State != "succeeded" {
				t.Fatalf("submit over negotiated session: %+v, %v", resp, err)
			}
			id, err := c.SubmitAsync("user", noopFlow("neg2"))
			if err != nil || id == "" {
				t.Fatalf("async submit: %q, %v", id, err)
			}
			if _, err := c.List(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Status("user", id, true); err != nil {
				t.Fatal(err)
			}
			// Binary sessions are accounted; legacy dgl payloads against a
			// binary-capable server count as fallbacks.
			encoded := e.Obs().Counter("codec_encode_bytes_total").Value() - enc0
			fellBack := e.Obs().Counter("codec_fallback_total", "kind", "dgl").Value() - fb0
			if tc.wantBinary && (encoded == 0 || fellBack != 0) {
				t.Fatalf("binary session: encode_bytes=%v fallback=%v", encoded, fellBack)
			}
			if !tc.wantBinary && encoded != 0 {
				t.Fatalf("text session produced binary responses: encode_bytes=%v", encoded)
			}
			if tc.name == "client opt-out" && fellBack == 0 {
				t.Fatal("opted-out client not counted as codec fallback")
			}
		})
	}
}

// TestBinaryBatchRoundTrip drives SubmitBatch over a binary session:
// the envelope and every item ride the codec, the reply is positional,
// and per-item failures stay independent.
func TestBinaryBatchRoundTrip(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	reqs := []*dgl.Request{
		dgl.NewRequest("user", "", noopFlow("b0")),
		dgl.NewStatusRequest("user", "dgf-missing", false), // fails per-item
		dgl.NewRequest("user", "", noopFlow("b2")),
	}
	resps, err := c.SubmitBatch(context.Background(), "user", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	if resps[0].Status == nil || resps[0].Status.State != "succeeded" {
		t.Fatalf("item 0: %+v", resps[0])
	}
	if resps[1].Error == "" || !errors.Is(dgferr.Decode(resps[1].Error), dgferr.ErrNotFound) {
		t.Fatalf("item 1 error = %q", resps[1].Error)
	}
	if resps[2].Status == nil || resps[2].Status.State != "succeeded" {
		t.Fatalf("item 2: %+v", resps[2])
	}
}

// TestBinaryControlVerbs runs the store/metrics control surface over a
// binary session — the nested StoreInfo/metrics-blob encodings.
func TestBinaryControlVerbs(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	snap, err := c.Metrics()
	if err != nil || len(snap.Counters) == 0 {
		t.Fatalf("metrics over binary: %+v, %v", snap, err)
	}
	// Typed errors survive the binary encoding.
	if _, err := c.StoreStats(); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("store verb without a store = %v, want ErrInvalid", err)
	}
	if err := c.Pause("dgf-none"); !errors.Is(err, dgferr.ErrNotFound) {
		t.Fatalf("pause unknown = %v, want ErrNotFound", err)
	}
}

// TestBinaryStoreInfoRoundTrip: every StoreInfo field, the pending count
// and a poisoning's text included, survives the binary control encoding.
func TestBinaryStoreInfoRoundTrip(t *testing.T) {
	want := ControlResult{OK: true, Store: &StoreInfo{
		Segments: 2, Records: 40, ReplayRecords: 7, Live: 3, Passivated: 1, Resident: 2,
		SnapshotLag: 5, Pending: 4, Failed: "sync seg: input/output error (4 pending record(s) discarded)",
		Compaction: &CompactionInfo{SegmentsBefore: 3, RecordsBefore: 90, RecordsKept: 40, RecordsDropped: 50},
	}}
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendControlResult(enc, &want)
	got, err := decodeControlResult(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v (store %+v)\nwant    %+v (store %+v)", got, got.Store, want, want.Store)
	}
}

// TestBinaryPayloadRefusedByOldServer sends a raw binary DGL frame to a
// server pinned below 1.4: the server must answer with a protocol-class
// error in the legacy encoding, not sever or misparse.
func TestBinaryPayloadRefusedByOldServer(t *testing.T) {
	e := newEngine(t, "")
	s := NewServerConfig(e, ServerConfig{ProtoMinor: 3})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	// A well-behaved 1.4 client never does this after the 1.3 hello; a
	// buggy one must still get a typed answer.
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	codec.AppendRequest(enc, dgl.NewRequest("user", "", noopFlow("rogue")))
	fr, err := c.roundTrip(context.Background(), KindDGL, enc.Bytes())
	if err != nil || fr.kind != KindDGL {
		t.Fatalf("round trip = %d, %v", fr.kind, err)
	}
	defer fr.release()
	resp, err := parseResponsePayload(fr.payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || !errors.Is(dgferr.Decode(resp.Error), dgferr.ErrProtocol) {
		t.Fatalf("response error = %q, want protocol class", resp.Error)
	}
	// The connection survived: a legacy request still works.
	if _, err := c.SubmitFlow("user", noopFlow("after")); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryDelegateEnvelope drives a delegation over a binary session
// directly at the client level (federation peers get this for free once
// both ends negotiate 1.4).
func TestBinaryDelegateEnvelope(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	reqXML, err := dgl.Marshal(dgl.NewRequest("user", "", noopFlow("dlg")))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Delegate(context.Background(), Delegate{
		User: "user", Request: string(reqXML), Origin: "origin-node",
	})
	if err != nil || !res.OK || res.ID == "" {
		t.Fatalf("delegate = %+v, %v", res, err)
	}
	st, err := dgl.ParseFlowStatus([]byte(res.Status))
	if err != nil || st.State != "succeeded" {
		t.Fatalf("delegate status = %+v, %v", st, err)
	}
}
