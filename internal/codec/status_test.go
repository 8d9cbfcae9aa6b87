package codec

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"datagridflow/internal/dgl"
)

// statusFixture is a response whose tree has every shape the writers
// branch on: times present and absent, an error, a delegated subtree,
// repeated strings (symbol references), children at several depths.
func statusFixture() *dgl.Response {
	return &dgl.Response{
		Status: &dgl.FlowStatus{
			ID: "peerA:dgf-000007/pipeline", Name: "pipeline", Kind: "flow", State: "failed",
			Started: "2026-10-03T09:00:00.000000001Z", Finished: "2026-10-03T09:00:02Z",
			Children: []dgl.FlowStatus{
				{ID: "peerA:dgf-000007/pipeline/stage", Name: "stage", Kind: "step", State: "succeeded",
					Started: "2026-10-03T09:00:00.000000001Z", Finished: "2026-10-03T09:00:01Z"},
				{ID: "peerA:dgf-000007/pipeline/fan", Name: "fan", Kind: "flow", State: "failed",
					Delegated: "peerB:dgf-000042", Error: "dgferr:timeout: <slow> & \"late\"",
					Children: []dgl.FlowStatus{
						{ID: "peerB:dgf-000042/fan/a", Name: "a", Kind: "step", State: "pending"},
						{ID: "peerB:dgf-000042/fan/b", Name: "b", Kind: "step", State: "failed", Error: "boom"},
					}},
			},
		},
		Error: "dgferr:retry-exhausted: step b after 3 attempts",
	}
}

func encodeResponse(resp *dgl.Response) []byte {
	e := GetEncoder()
	defer PutEncoder(e)
	AppendResponse(e, resp)
	return append([]byte(nil), e.Bytes()...)
}

// referenceXML is what a forwarding peer sent before it transcoded:
// decode the owner's reply, marshal it again.
func referenceXML(payload []byte) ([]byte, error) {
	resp, err := DecodeResponse(payload)
	if err != nil {
		return nil, err
	}
	return dgl.Marshal(resp)
}

// TestResponseWriterMatchesAppendResponse: streaming a response through
// the binary ResponseWriter — the way a reply is encoded from the node
// tree — writes the bytes AppendResponse writes for the same Response,
// with times handed over as text or as time.Time.
func TestResponseWriterMatchesAppendResponse(t *testing.T) {
	for _, resp := range []*dgl.Response{
		statusFixture(),
		{Ack: &dgl.Ack{ID: "dgf-000001", Status: "pending", Valid: true, Message: "queued"}},
		{Error: "dgferr:not-found: matrix: id not found: x"},
		{Status: &dgl.FlowStatus{}},
	} {
		want := encodeResponse(resp)
		for _, asTime := range []bool{false, true} {
			e := GetEncoder()
			var w ResponseWriter
			w.Begin(e)
			if resp.Ack != nil {
				w.Ack(resp.Ack)
			}
			if resp.Status != nil {
				var sink dgl.StatusSink = &w
				if asTime {
					sink = timesParsed{&w}
				}
				dgl.WalkStatus(resp.Status, sink)
			}
			w.End(resp.Error)
			if !bytes.Equal(e.Bytes(), want) {
				t.Errorf("times as time.Time=%v: streamed payload differs from AppendResponse's\n got %x\nwant %x", asTime, e.Bytes(), want)
			}
			PutEncoder(e)
		}
	}
}

// timesParsed hands a sink the node's times as time.Time, the way the
// engine's tree walk does, instead of as the text a FlowStatus holds.
type timesParsed struct{ dgl.StatusSink }

func (p timesParsed) Open(n dgl.StatusNode) {
	for _, st := range []*dgl.StatusTime{&n.Started, &n.Finished} {
		if tm, err := time.Parse(time.RFC3339Nano, st.Text); err == nil {
			*st = dgl.StatusTime{Time: tm}
		}
	}
	p.StatusSink.Open(n)
}

// TestResponseXMLStreamsAndFallsBack: the transcoder equals decode +
// marshal on payloads in the encoder's field order (streamed) and on
// payloads in any other order the format allows (through the decoder).
func TestResponseXMLStreamsAndFallsBack(t *testing.T) {
	canonical := encodeResponse(statusFixture())

	// The same response with the error ahead of the status, a status
	// field twice (last wins), and a node whose name follows its child.
	e := GetEncoder()
	e.Begin(MsgResponse)
	e.Str(respErr, "first")
	e.Msg(respStatus, func(e *Encoder) { e.Sym(fsID, "dropped") })
	e.Msg(respStatus, func(e *Encoder) {
		e.Sym(fsID, "x/root")
		e.Sym(fsID, "x/root2") // a scalar twice, before any child: last wins, still streamed
		e.Msg(fsChild, func(e *Encoder) { e.Sym(fsID, "x/root2/kid") })
		e.Sym(fsName, "late-name")
	})
	e.Uint(99, 7) // an unknown field: skipped either way
	shuffled := append([]byte(nil), e.Bytes()...)
	PutEncoder(e)

	var w dgl.ResponseWriter
	for name, payload := range map[string][]byte{"canonical": canonical, "shuffled": shuffled} {
		want, err := referenceXML(payload)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("kept:")
		got, err := ResponseXML(&w, prefix, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: transcoded document differs from decode + marshal\n got %s\nwant %s", name, got, want)
		}
	}
	if _, err := ResponseXML(&w, nil, canonical[:len(canonical)-4]); err == nil {
		t.Error("a truncated payload transcoded without error")
	}
}

// TestWalkStatusFeedsBuilder: the binary walk into the FlowStatus
// builder gives what the decoder gives.
func TestWalkStatusFeedsBuilder(t *testing.T) {
	resp := statusFixture()
	e := GetEncoder()
	defer PutEncoder(e)
	e.Begin(MsgResponse)
	statusFields(e, resp.Status) // the status message's body alone, at top level
	payload := e.Bytes()
	d, err := NewDecoder(payload, MsgResponse)
	if err != nil {
		t.Fatal(err)
	}
	var b dgl.StatusBuilder
	if !walkStatus(&d, &b) || d.Err() != nil {
		t.Fatalf("walk broke off: %v", d.Err())
	}
	if got := b.Status(); !reflect.DeepEqual(&got, resp.Status) {
		t.Errorf("walk + builder:\n got %+v\nwant %+v", got, *resp.Status)
	}
}

// TestResponseXMLAllocs: transcoding allocates for the decoder's string
// copy and its symbol table (here grown once past its first 16), not
// per node.
func TestResponseXMLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	payload := encodeResponse(statusFixture())
	var w dgl.ResponseWriter
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ResponseXML(&w, buf, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("transcoding a 5-node reply allocates %.1f, budget 3", allocs)
	}
}

// FuzzStatusTranscode holds the binary-to-XML transcoder to decode +
// marshal on arbitrary payloads: the same document byte for byte, or an
// error from both.
func FuzzStatusTranscode(f *testing.F) {
	f.Add(encodeResponse(statusFixture()))
	f.Add(encodeResponse(&dgl.Response{Ack: &dgl.Ack{ID: "dgf-000001", Status: "pending", Valid: true}}))
	f.Add(encodeResponse(&dgl.Response{Error: "dgferr:not-found: nope"}))
	f.Add([]byte{Magic, Version, MsgResponse, respErr<<2 | 1, 1, 'e', respStatus<<2 | 2, 2, fsID<<2 | 3, 0})
	f.Add([]byte{Magic, Version, MsgResponse, respStatus<<2 | 2, 0, respStatus<<2 | 2, 0})
	f.Add([]byte("<dataGridResponse/>"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, refErr := referenceXML(payload)
		var w dgl.ResponseWriter
		got, err := ResponseXML(&w, nil, payload)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("transcode error %v, decode error %v", err, refErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("transcoded document differs from decode + marshal\n got %q\nwant %q", got, want)
		}
	})
}
