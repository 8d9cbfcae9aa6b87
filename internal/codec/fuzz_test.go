package codec

import (
	"testing"
	"time"
)

// FuzzCodecRoundTrip drives the record codec from two directions: a
// record built from fuzzed fields must survive encode/decode exactly,
// and arbitrary bytes fed to the decoder must error or decode — never
// panic, never over-read.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("exec.start", "dgf-000001", int64(1700000000123456789),
		"<dataGridRequest/>", "/f/s1", "peerB", "boom", "k", "v", "/f/s1", true, false,
		[]byte{Magic, Version, MsgRecord})
	f.Add(TypeExecSnap, "dgf-000042", int64(-1), "", "", "", "", "", "", "", false, true,
		[]byte("{\"type\":\"exec.start\"}"))
	f.Add("", "", int64(0), "", "", "", "", "", "", "", false, false, []byte{})

	f.Fuzz(func(t *testing.T, typ, id string, unixNano int64,
		request, node, peer, errText, varKey, varVal, done string,
		paused, passivated bool, raw []byte) {
		rec := Record{
			Type: typ, ID: id,
			Time:    time.Unix(0, unixNano),
			Request: request, Node: node, Peer: peer, Err: errText,
			Paused: paused, Passivated: passivated,
		}
		// Empty strings are encoded as absent fields, so only non-empty
		// map entries and Done elements round-trip; mirror that here.
		if varKey != "" || varVal != "" {
			rec.Vars = map[string]string{varKey: varVal}
		}
		if done != "" {
			rec.Done = []string{done}
		}
		e := GetEncoder()
		AppendRecord(e, &rec)
		got, err := DecodeRecord(e.Bytes())
		// The same record kept as its fields string and viewed there.
		var v, sv RecordView
		if err := v.Decode(e.Bytes()); err != nil {
			t.Fatal(err)
		}
		fields, _ := v.Fields()
		PutEncoder(e)
		if err != nil {
			t.Fatalf("decode of freshly encoded record: %v", err)
		}
		if !recordsEqual(got, rec) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
		}
		if err := sv.DecodeFieldsString(fields); err != nil {
			t.Fatalf("fields string of a decodable record: %v", err)
		}
		if got := sv.Record(); !recordsEqual(got, rec) {
			t.Fatalf("string view mismatch:\n got %+v\nwant %+v", got, rec)
		}

		// Arbitrary input must never panic the decoder, in either form.
		_, _ = DecodeRecord(raw)
		_, _ = DecodeRequest(raw)
		_, _ = DecodeResponse(raw)
		_ = sv.DecodeFieldsString(string(raw))
		_, _ = DecodeRequestDoc(string(raw))
	})
}
