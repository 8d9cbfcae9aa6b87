package wire

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
)

// TestBinaryNegotiation pins what DisableBinary changes: the DGL
// documents a client sends — kind-1 requests and batch items — go out as
// XML and are answered in XML, counted in codec_fallback_total, while
// every envelope, the control verbs' included, stays binary. Both
// sessions serve every request.
func TestBinaryNegotiation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"binary", false},
		{"client opt-out", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, reg := newObservedEngine(t, "")
			_, addr := startServer(t, e)
			c := dial(t, addr)
			if tc.disable {
				c.DisableBinary()
			}
			if got := c.Binary(); got == tc.disable {
				t.Fatalf("Binary() = %v after DisableBinary=%v", got, tc.disable)
			}
			// The session must work either way: sync submit, async +
			// status, a batch and a control verb.
			resp, err := c.SubmitFlow("user", noopFlow("neg"))
			if err != nil || resp.Status == nil || resp.Status.State != "succeeded" {
				t.Fatalf("submit: %+v, %v", resp, err)
			}
			id, err := submitAsync(c, "user", noopFlow("neg2"))
			if err != nil || id == "" {
				t.Fatalf("async submit: %q, %v", id, err)
			}
			if _, err := c.Status("user", id, true); err != nil {
				t.Fatal(err)
			}
			res, err := c.Submit(context.Background(), nil, WithBatch(
				dgl.NewRequest("user", "", noopFlow("b0")), dgl.NewRequest("user", "", noopFlow("b1"))))
			if err != nil || len(res.Responses) != 2 || res.Responses[1].Status == nil {
				t.Fatalf("batch: %+v, %v", res, err)
			}
			controls := reg.Counter("codec_encode_bytes_total").Value()
			if _, err := c.List(); err != nil {
				t.Fatal(err)
			}
			if reg.Counter("codec_encode_bytes_total").Value() == controls {
				t.Error("the list reply was not a binary envelope")
			}
			var want int64
			if tc.disable {
				want = 1
			}
			if got := reg.Counter("codec_fallback_total", "kind", "dgl").Value(); got != 3*want {
				t.Errorf("codec_fallback_total{kind=dgl} = %d, want %d", got, 3*want)
			}
			if got := reg.Counter("codec_fallback_total", "kind", "batch").Value(); got != 2*want {
				t.Errorf("codec_fallback_total{kind=batch} = %d, want %d", got, 2*want)
			}
		})
	}
}

// TestTextEnvelopeRefused: a payload that is not a binary envelope —
// the JSON an old build sent, here on every kind from 2 to 6 but the
// retired 4 — fails to
// decode and is answered with a typed error in that kind's reply, and
// the session goes on serving.
func TestTextEnvelopeRefused(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	replyError := map[byte]func([]byte) (string, error){
		KindControl: func(p []byte) (string, error) { r, err := decodeControlResult(p); return r.Error, err },
		KindBatch: func(p []byte) (string, error) {
			_, errText, _, err := decodeBatchResult(p)
			return errText, err
		},
		KindRoute:     func(p []byte) (string, error) { r, err := decodeRouteResult(p); return r.Error, err },
		KindReplicate: func(p []byte) (string, error) { r, err := decodeReplicateResult(p); return r.Error, err },
	}
	for kind, decode := range replyError {
		fr, err := c.call(context.Background(), kind, []byte(`{"op":"hello","proto":"1.8"}`))
		if err != nil {
			t.Fatalf("%s: %v", kindName(kind), err)
		}
		errText, err := decode(fr.payload)
		fr.release()
		if err != nil || !errors.Is(dgferr.Decode(errText), dgferr.ErrInvalid) {
			t.Errorf("%s: reply error %q (%v), want a typed ErrInvalid", kindName(kind), errText, err)
		}
	}
	if _, err := c.List(); err != nil {
		t.Fatalf("session after refused envelopes: %v", err)
	}
}

// TestBinaryBatchRoundTrip drives a batch over a binary session: the
// envelope and every item ride the codec, the reply is positional, and
// per-item failures stay independent.
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
	resps, err := c.submitBatch(context.Background(), reqs)
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
	text, err := c.Metrics()
	if err != nil || !bytes.Contains(text, []byte(" counter\n")) {
		t.Fatalf("metrics over binary: %q, %v", text, err)
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

// TestBinaryDelegateEnvelope drives a delegation directly at the client
// level, with an XML request document inside the binary route envelope:
// the hop decodes a document in either encoding.
func TestBinaryDelegateEnvelope(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	reqXML, err := dgl.Marshal(dgl.NewRequest("user", "", noopFlow("dlg")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Run(context.Background(), &Route{
		User: "user", Request: string(reqXML), Origin: "origin-node", ParentNode: "origin-node:dgf-000001/dlg",
	})
	if err != nil || resp.Error != "" || resp.Status == nil || resp.Status.ID == "" || resp.Status.State != "succeeded" {
		t.Fatalf("delegate = %+v, %v", resp, err)
	}
}
