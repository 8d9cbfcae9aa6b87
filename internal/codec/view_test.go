package codec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

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

// scanFrames reads data through a reader that hands over one byte per
// call, split into frames by NextFrame: a torn frame asks for more bytes
// until the reader is done. It returns the frames, the offset the scan
// stopped at and its error, nil at a clean end.
func scanFrames(data []byte) (frames [][]byte, stop int, err error) {
	sc := bufio.NewScanner(iotest.OneByteReader(bytes.NewReader(data)))
	sc.Split(func(buf []byte, atEOF bool) (int, []byte, error) {
		f, err := NextFrame(buf, 0)
		switch {
		case err == nil:
			return f.End, buf[:f.End], nil
		case err == io.EOF, errors.Is(err, ErrTorn) && !atEOF:
			return 0, nil, nil
		}
		return 0, nil, err
	})
	for sc.Scan() {
		frames = append(frames, append([]byte(nil), sc.Bytes()...))
		stop += len(sc.Bytes())
	}
	return frames, stop, sc.Err()
}

// TestNextFrameMatchesScanner: walking a stream in memory and scanning
// it through a reader a byte at a time see the same frames, the same
// torn-tail offset at every truncation point, and the same verdict on
// corruption — so a prefix of a frame is never mistaken for a bad one.
func TestNextFrameMatchesScanner(t *testing.T) {
	recs := []Record{
		{Type: TypeExecStart, ID: "dgf-1", Request: "<dataGridRequest/>"},
		{Type: TypeStepDone, ID: "dgf-1", Node: "/f/s1"},
		testRecord(),
	}
	stream := frameStream(recs...)
	for cut := 0; cut <= len(stream); cut++ {
		data := stream[:cut]
		frames, stop, serr := scanFrames(data)
		off := 0
		for n := 0; ; n++ {
			f, ferr := NextFrame(data, off)
			if ferr != nil {
				if !(ferr == io.EOF && serr == nil || errors.Is(ferr, ErrTorn) && errors.Is(serr, ErrTorn)) {
					t.Fatalf("cut %d frame %d: scanner %v, NextFrame %v", cut, n, serr, ferr)
				}
				if n != len(frames) || off != stop {
					t.Fatalf("cut %d: NextFrame stops at %d after %d frames, scanner at %d after %d", cut, off, n, stop, len(frames))
				}
				break
			}
			if n >= len(frames) || !bytes.Equal(data[off:f.End], frames[n]) {
				t.Fatalf("cut %d frame %d: NextFrame's frame differs from the scanner's", cut, n)
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
		frames, stop, serr := scanFrames(bad)
		_, ferr := NextFrame(bad, 0)
		for _, err := range []error{serr, ferr} {
			if err == nil || err == io.EOF || errors.Is(err, ErrTorn) {
				t.Fatalf("corrupt stream: scanner %v, NextFrame %v; want hard errors", serr, ferr)
			}
		}
		if len(frames) != 0 || stop != 0 || serr.Error() != ferr.Error() {
			t.Fatalf("corrupt stream: scanner says %q after %d frames, NextFrame %q", serr, len(frames), ferr)
		}
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

// allocsPerRun is testing.AllocsPerRun without its rounding down: the
// mean number of allocations f makes over runs, after one warm-up call.
// A decode that kept its pooled symbol table would cost a little under
// one allocation a run, the pool's spare tables making up the rest,
// which AllocsPerRun's whole-number mean would round away; so budgets
// measured with it allow half an allocation of noise, no more.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// TestDecodeRequestAllocs: nested messages decode on the parent's
// decoder, so a request costs its strings' backing copy, its slices and
// the document — not one more decoder per flow, step, operation and
// parameter (41 for this request before nested messages were read with
// MsgEnter) —
// and each slice is sized once (19 while they grew by appending). Its
// symbol table is borrowed and given back, and its decoder stays on the
// stack (11 while each message made a table and closures moved the
// decoder to the heap). A document already held in a string, as a
// stored or routed request is, is read where it lies: not even the
// backing copy.
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	req := fleetRequest()
	e := GetEncoder()
	defer PutEncoder(e)
	AppendRequest(e, req)
	payload := append([]byte(nil), e.Bytes()...)
	doc := string(payload)
	for _, decode := range []func() (*dgl.Request, error){
		func() (*dgl.Request, error) { return DecodeRequest(payload) },
		func() (*dgl.Request, error) { return DecodeRequestDoc(doc) },
	} {
		got, err := decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got.Flow, req.Flow)
		}
	}
	fromBytes := allocsPerRun(1000, func() { _, _ = DecodeRequest(payload) })
	fromString := allocsPerRun(1000, func() { _, _ = DecodeRequestDoc(doc) })
	t.Logf("DecodeRequest: %.2f allocations; DecodeRequestDoc of a string: %.2f", fromBytes, fromString)
	if fromBytes > 8.5 || math.Abs(fromString-(fromBytes-1)) > 0.5 {
		t.Errorf("DecodeRequest allocates %.2f times (budget 8, parent commit 11), and %.2f from a string (want one fewer: no copy)", fromBytes, fromString)
	}
}

// TestRecordViewOfAString: a record kept as its fields string (Fields)
// and viewed there again (DecodeFieldsString) materialises equal to the
// record — its strings slices of that string, so what Record allocates
// is the variables map and the done list, nothing of the bytes.
func TestRecordViewOfAString(t *testing.T) {
	rec := testRecord()
	stream := frameStream(rec)
	f, _ := NextFrame(stream, 0)
	var v RecordView
	if err := v.DecodeFields(stream, f.Body, f.End); err != nil {
		t.Fatal(err)
	}
	fields, request := v.Fields()
	if request != rec.Request {
		t.Fatalf("Fields' request = %q, want %q", request, rec.Request)
	}
	for i := range stream {
		stream[i] = 0xAA
	}
	var sv RecordView
	if err := sv.DecodeFieldsString(fields); err != nil {
		t.Fatal(err)
	}
	if got := sv.Record(); !recordsEqual(got, rec) {
		t.Fatalf("string view materialises %+v, want %+v", got, rec)
	}
	if err := sv.DecodeFieldsString(fields[:len(fields)-1]); err == nil {
		t.Fatal("a truncated fields string decoded")
	}
	if raceEnabled {
		return
	}
	want := 3.0 // the Vars map (header and table) and the Done slice
	if allocs := testing.AllocsPerRun(100, func() {
		_ = sv.DecodeFieldsString(fields)
		_ = sv.Record()
	}); allocs > want {
		t.Errorf("viewing and materialising a fields string allocates %.0f times, want %.0f", allocs, want)
	}
}

// TestMsgSharesTheParentDecoder pins what MsgEnter/MsgExit promise, the
// one way to read a nested message: the loop inside sees exactly the
// nested body, unread nested fields are skipped on MsgExit, a symbol
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
			end := d.MsgEnter()
			for d.Next() && d.Field() != 3 { // stop before the last nested field
				inner = append(inner, d.Field())
				d.Skip()
			}
			d.MsgExit(end)
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
	entered := false
	for d.Next() {
		end := d.MsgEnter()
		for d.Next() {
			entered = true
		}
		d.MsgExit(end)
	}
	if d.Err() == nil || entered {
		t.Fatalf("oversize nested length: err %v, nested fields read %v", d.Err(), entered)
	}
}

// TestFieldCountsCopyBorrowsItsOwnTable: fieldCounts counts on a copy of
// the decoder. A copy that defines the payload's first symbol borrows a
// table of its own and gives that one back, leaving the original without
// a table and the pool without a leak. A copy of a decoder that holds a
// table shares it and gives nothing back: the pool never hands the
// original's table to another decoder while the original reads it.
func TestFieldCountsCopyBorrowsItsOwnTable(t *testing.T) {
	doc := RequestDoc(&dgl.Request{Flow: &dgl.Flow{Name: "first", Steps: []dgl.Step{
		{Name: "a", Operation: dgl.Operation{Type: dgl.OpNoop}},
		{Name: "b", Operation: dgl.Operation{Type: dgl.OpNoop}},
	}}})
	enterFlow := func() Decoder {
		d, err := newStringDecoder(doc, MsgRequest)
		if err != nil || !d.Next() || d.Field() != reqFlow {
			t.Fatalf("no flow field: %v", err)
		}
		d.MsgEnter()
		return d
	}

	d := enterFlow()
	if n := fieldCounts(&d); n[flowName] != 1 || n[flowStep] != 2 {
		t.Fatalf("flow field counts %v, want one name and two steps", n)
	}
	if d.table != nil || d.syms != nil {
		t.Fatal("the copy that defined the first symbol left its table with the original")
	}

	if !d.Next() || d.Field() != flowName || d.Sym() != "first" || d.table == nil {
		t.Fatalf("the original did not define the flow's name in a table of its own: %v", d.Err())
	}
	own := d.table
	for d.Next() && d.Field() != flowStep {
		d.Skip()
	}
	end := d.MsgEnter()
	if n := fieldCounts(&d); n[stepName] != 1 || n[stepOp] != 1 {
		t.Fatalf("step field counts %v, want one name and one operation", n)
	}
	if d.table != own || len(d.syms) != 1 {
		t.Fatalf("counting changed the original's table: %d symbols", len(d.syms))
	}
	var borrowed []*symTable
	for range 4 {
		tb := symPool.Get().(*symTable)
		if tb == own {
			t.Fatal("the copy gave back the original's table while the original holds it")
		}
		borrowed = append(borrowed, tb)
	}
	for _, tb := range borrowed {
		symPool.Put(tb)
	}
	var st dgl.Step
	decodeStep(&d, &st)
	d.MsgExit(end)
	d.Release()
	if d.Err() != nil || st.Name != "a" || st.Operation.Type != dgl.OpNoop {
		t.Fatalf("the step decoded after counting: %+v, %v", st, d.Err())
	}

	if raceEnabled {
		return
	}
	if allocs := allocsPerRun(1000, func() {
		d := enterFlow()
		_ = fieldCounts(&d)
	}); allocs > 0.5 {
		t.Errorf("counting on a copy that borrows allocates %.2f times, want 0: is its table given back?", allocs)
	}
}
