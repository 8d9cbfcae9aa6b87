package codec

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"datagridflow/internal/dgl"
)

// frameStream encodes recs as one in-memory frame stream.
func frameStream(recs ...Record) []byte {
	e := GetEncoder()
	defer PutEncoder(e)
	for i := range recs {
		AppendRecordFrame(e, &recs[i])
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestNextFrameMatchesScanner: walking a stream in memory and scanning
// it through a reader see the same frames, the same torn-tail offset at
// every truncation point, and the same verdict on corruption.
func TestNextFrameMatchesScanner(t *testing.T) {
	recs := []Record{
		{Type: TypeExecStart, ID: "dgf-1", Request: "<dataGridRequest/>"},
		{Type: TypeStepDone, ID: "dgf-1", Node: "/f/s1"},
		testRecord(),
	}
	stream := frameStream(recs...)
	var v RecordView
	for cut := 0; cut <= len(stream); cut++ {
		data := stream[:cut]
		sc := NewFrameScanner(bytes.NewReader(data))
		off := 0
		for n := 0; ; n++ {
			_, payload, serr := sc.Next()
			f, ferr := NextFrame(data, off)
			if serr != nil || ferr != nil {
				if !(serr == ferr || errors.Is(serr, ErrTorn) && errors.Is(ferr, ErrTorn)) {
					t.Fatalf("cut %d frame %d: scanner %v, NextFrame %v", cut, n, serr, ferr)
				}
				if int64(off) != sc.Offset() {
					t.Fatalf("cut %d: NextFrame stops at %d, scanner at %d", cut, off, sc.Offset())
				}
				break
			}
			if f.Type != MsgRecord || !bytes.Equal(data[f.Body:f.End], payload[headerLen:]) {
				t.Fatalf("cut %d frame %d: body differs from the scanner's payload", cut, n)
			}
			if err := v.DecodeFields(data, f.Body, f.End); err != nil {
				t.Fatalf("cut %d frame %d: %v", cut, n, err)
			}
			if got := v.Record(); !recordsEqual(got, recs[n]) {
				t.Fatalf("cut %d frame %d: view materialises %+v", cut, n, got)
			}
			off = f.End
		}
	}
	for _, corrupt := range []func([]byte){
		func(b []byte) { b[0] = '{' },                          // magic
		func(b []byte) { b[1] = Version + 1 },                  // version
		func(b []byte) { copy(b[3:], "\xff\xff\xff\xff\x7f") }, // length beyond the limit
	} {
		bad := append([]byte(nil), stream...)
		corrupt(bad)
		_, _, serr := NewFrameScanner(bytes.NewReader(bad)).Next()
		_, ferr := NextFrame(bad, 0)
		for _, err := range []error{serr, ferr} {
			if err == nil || err == io.EOF || errors.Is(err, ErrTorn) {
				t.Fatalf("corrupt stream: scanner %v, NextFrame %v; want hard errors", serr, ferr)
			}
		}
		if serr.Error() != ferr.Error() {
			t.Fatalf("corrupt stream: scanner says %q, NextFrame %q", serr, ferr)
		}
	}
}

// TestFrameScannerAllocs: scanning allocates nothing per frame once the
// payload buffer has grown to the largest frame.
func TestFrameScannerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	stream := frameStream(testRecord(), Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/s1"})
	r := bytes.NewReader(stream)
	sc := NewFrameScanner(r)
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(stream)
		for {
			if _, _, err := sc.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("FrameScanner.Next allocates %.1f times per two-frame stream, want 0", allocs)
	}
}

// TestRecordViewAllocs: walking a record into a reused view — every
// field, variable, done entry and symbol of it — allocates nothing, in
// either layout.
func TestRecordViewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	rec := testRecord()
	stream := frameStream(rec)
	f, err := NextFrame(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := GetEncoder()
	defer PutEncoder(e)
	AppendRecord(e, &rec)
	var v RecordView
	allocs := testing.AllocsPerRun(200, func() {
		if err := v.DecodeFields(stream, f.Body, f.End); err != nil {
			t.Fatal(err)
		}
		if string(v.ID()) != rec.ID || string(v.Type()) != rec.Type || string(v.Node()) != rec.Node {
			t.Fatalf("view reads %q %q %q", v.ID(), v.Type(), v.Node())
		}
		if err := v.Decode(e.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RecordView allocates %.1f times per record, want 0", allocs)
	}
	if got := v.Record(); !recordsEqual(got, rec) {
		t.Errorf("view materialises %+v, want %+v", got, rec)
	}
}

// TestRecordViewDoesNotRetainItsBytes: a materialised record survives
// the buffer it was viewed in being overwritten.
func TestRecordViewDoesNotRetainItsBytes(t *testing.T) {
	rec := testRecord()
	stream := frameStream(rec)
	f, _ := NextFrame(stream, 0)
	var v RecordView
	if err := v.DecodeFields(stream, f.Body, f.End); err != nil {
		t.Fatal(err)
	}
	got := v.Record()
	for i := range stream {
		stream[i] = 0xAA
	}
	if !recordsEqual(got, rec) {
		t.Fatalf("record changed with the buffer: %+v", got)
	}
}

// fleetRequest is the shape of the contract benchmark's fleet_submit
// request: four steps, one of them pure, three or four parameters each.
func fleetRequest() *dgl.Request {
	flow := dgl.NewFlow("job-7").
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/w/7.dat", "size": "4096", "resource": "disk1"})).
		Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{"path": "/grid/w/7.dat", "attr": "run", "value": "payload"})).
		PureStep("derive", dgl.Op(dgl.OpExec, map[string]string{
			"command": "transform fresh-7", "cpuSeconds": "0", "resultVar": "derived",
		}), "/grid/derived/fresh-7.dat").
		Step("drop", dgl.Op(dgl.OpDelete, map[string]string{"path": "/grid/w/7.dat"})).
		Flow()
	req := dgl.NewRequest("user3", "", flow)
	req.Token = "v1.dXNlcjM.c2lnbmF0dXJl"
	return req
}

// TestDecodeRequestAllocs: nested messages decode on the parent's
// decoder, so a request costs its strings' backing copy, its slices and
// the document — not one more decoder per flow, step, operation and
// parameter (41 for this request before Msg was rebuilt on MsgEnter).
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	req := fleetRequest()
	e := GetEncoder()
	defer PutEncoder(e)
	AppendRequest(e, req)
	payload := append([]byte(nil), e.Bytes()...)
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got.Flow, req.Flow)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeRequest(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeRequest: %.0f allocations", allocs)
	if allocs > 24 {
		t.Errorf("DecodeRequest allocates %.0f times, budget 24", allocs)
	}
}

// TestMsgSharesTheParentDecoder pins what Msg promises now that it
// narrows the parent instead of spawning a child: fields sees exactly
// the nested body, unread nested fields are skipped on return, a symbol
// defined inside is visible after, and an error inside is the parent's.
func TestMsgSharesTheParentDecoder(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	e.Begin(MsgControl)
	e.Msg(1, func(e *Encoder) {
		e.Sym(1, "shared")
		e.Uint(2, 7)
		e.Str(3, "unread")
	})
	e.Sym(2, "shared") // a reference to the nested definition
	e.Uint(3, 9)
	payload := append([]byte(nil), e.Bytes()...)

	d, err := NewDecoder(payload, MsgControl)
	if err != nil {
		t.Fatal(err)
	}
	var inner []int
	var sym string
	var tail uint64
	for d.Next() {
		switch d.Field() {
		case 1:
			d.Msg(func(d *Decoder) {
				for d.Next() && d.Field() != 3 { // stop before the last nested field
					inner = append(inner, d.Field())
					d.Skip()
				}
			})
		case 2:
			sym = d.Sym()
		case 3:
			tail = d.Uint()
		}
	}
	if d.Err() != nil || !reflect.DeepEqual(inner, []int{1, 2}) || sym != "shared" || tail != 9 {
		t.Fatalf("inner %v sym %q tail %d err %v", inner, sym, tail, d.Err())
	}

	// Truncate inside the nested message's last field: the error surfaces
	// from the parent and iteration stops.
	cut := bytes.Index(payload, []byte("unread"))
	bad := append([]byte(nil), payload[:cut+2]...)
	bad[headerLen+1] = byte(len(payload)) // nested length now runs past the payload
	d, _ = NewDecoder(bad, MsgControl)
	called := false
	for d.Next() {
		d.Msg(func(*Decoder) { called = true })
	}
	if d.Err() == nil || called {
		t.Fatalf("oversize nested length: err %v, fields called %v", d.Err(), called)
	}
}
