package codec

import (
	"testing"

	"datagridflow/internal/dgl"
)

// xmlOf renders a request as XML — the equality the other round-trip
// tests in this package use (dgl_test.go).
func xmlOf(t *testing.T, req *dgl.Request) string {
	t.Helper()
	data, err := dgl.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRequestDocEncodings: one request, as XML (a text client's frame)
// and as binary, decodes equal through the one sniffing helper.
func TestRequestDocEncodings(t *testing.T) {
	req := testRequest()
	want := xmlOf(t, req)
	bin := RequestDoc(req)
	if !IsBinary(bin) {
		t.Fatalf("RequestDoc is not binary: %q", bin[:8])
	}
	for name, doc := range map[string]string{"xml": want, "binary": bin} {
		got, err := DecodeRequestDoc([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if xmlOf(t, got) != want {
			t.Errorf("%s document decodes to a different request:\n%s", name, xmlOf(t, got))
		}
	}
}

// TestRecordDecoderResetsPerRecord: a loop-owned RecordDecoder decodes
// each record exactly as the one-shot DecodeRecord does — the symbol
// table of one record never leaks into the next — without allocating a
// table per record.
func TestRecordDecoderResetsPerRecord(t *testing.T) {
	recs := goldenRecords()
	recs = append(recs, testRecord(), Record{Type: TypeExecEnd, ID: "dgf-000042"})
	var payloads [][]byte
	for i := range recs {
		e := GetEncoder()
		AppendRecord(e, &recs[i])
		payloads = append(payloads, append([]byte(nil), e.Bytes()...))
		PutEncoder(e)
	}
	var rd RecordDecoder
	for round := 0; round < 2; round++ {
		for i, p := range payloads {
			got, err := rd.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			if !recordsEqual(got, recs[i]) {
				t.Fatalf("round %d record %d = %+v, want %+v", round, i, got, recs[i])
			}
		}
	}
	// A reference into the previous record's table must not resolve.
	e := GetEncoder()
	defer PutEncoder(e)
	e.Begin(MsgRecord)
	e.tag(recType, wtSym)
	e.uvarint(1)
	if _, err := rd.Decode(e.Bytes()); err == nil {
		t.Fatal("a dangling symbol reference resolved against the previous record's table")
	}
	end := payloads[len(payloads)-1]
	loop := testing.AllocsPerRun(100, func() { _, _ = rd.Decode(end) })
	oneShot := testing.AllocsPerRun(100, func() { _, _ = DecodeRecord(end) })
	if loop > oneShot || loop > 1 {
		t.Errorf("allocs per record: loop-owned decoder %.0f, one-shot %.0f; want the payload string copy only", loop, oneShot)
	}
}

// FuzzRequestDoc fuzzes the stored-request sniffing helper, the decoder
// every request read from a peer envelope or a disk record goes through:
// arbitrary bytes never panic it, and the XML and binary documents of
// one request decode equal.
func FuzzRequestDoc(f *testing.F) {
	f.Add("alice", "pipeline", "stage-in", "/grid/data/in", true, []byte("<dataGridRequest/>"))
	f.Add("", "f", "s", "a<b&\"c\"\r\n", false, []byte(RequestDoc(testRequest())))
	f.Add("u", "", "", "", false, []byte{Magic, Version, MsgRequest, 0x12})
	f.Fuzz(func(t *testing.T, user, flow, step, value string, async bool, raw []byte) {
		_, _ = DecodeRequestDoc(raw)

		req := dgl.NewRequest(user, "", dgl.NewFlow(flow).Var("v", value).
			Step(step, dgl.Op(dgl.OpNoop, map[string]string{"p": value})).Flow())
		req.Async = async
		xmlDoc, err := dgl.Marshal(req)
		if err != nil {
			t.Skip()
		}
		// XML cannot carry every string (control bytes, invalid UTF-8):
		// what it can carry is what its own round trip yields, and that
		// request is the one both documents must agree on.
		fromXML, err := DecodeRequestDoc(xmlDoc)
		if err != nil {
			t.Skip()
		}
		fromBinary, err := DecodeRequestDoc([]byte(RequestDoc(fromXML)))
		if err != nil {
			t.Fatalf("binary document of a decodable request: %v", err)
		}
		if a, b := xmlOf(t, fromXML), xmlOf(t, fromBinary); a != b {
			t.Fatalf("XML and binary documents decode apart:\n xml: %s\n bin: %s", a, b)
		}
	})
}
