package codec

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testRecord() Record {
	return Record{
		Type:    TypeExecSnap,
		ID:      "dgf-000042",
		Time:    time.Unix(0, 1700000000123456789),
		Request: "<dataGridRequest async=\"true\"></dataGridRequest>",
		Node:    "/pipeline/stage-in",
		Peer:    "peerB",
		Err:     "",
		Vars: map[string]string{
			"chunk":  "/grid/data/chunk-07",
			"target": "/grid/out",
		},
		Done:       []string{"/pipeline/stage-in", "/pipeline/transfer", "/pipeline/stage-in"},
		Paused:     true,
		Passivated: true,
	}
}

// TestRecordRoundTrip pushes a fully-populated record and a minimal one
// through encode/decode and wants structural equality.
func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range []Record{
		testRecord(),
		{Type: TypeExecStart, ID: "dgf-000001", Time: time.Unix(12, 34)},
	} {
		e := GetEncoder()
		AppendRecord(e, &rec)
		got, err := DecodeRecord(e.Bytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !recordsEqual(got, rec) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
		}
		PutEncoder(e)
	}
}

func recordsEqual(a, b Record) bool {
	if !a.Time.Equal(b.Time) {
		return false
	}
	a.Time, b.Time = time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

// TestSymbolTableDeduplicates checks that a repeated string costs a
// short reference the second time, not a second copy.
func TestSymbolTableDeduplicates(t *testing.T) {
	long := strings.Repeat("step-with-a-long-name", 3)
	rec := Record{Type: TypeStepDone, ID: long, Node: long, Done: []string{long, long}}
	e := GetEncoder()
	defer PutEncoder(e)
	AppendRecord(e, &rec)
	if n, want := len(e.Bytes()), 2*len(long); n >= want {
		t.Fatalf("payload %d bytes, want < %d (symbol table did not deduplicate)", n, want)
	}
	got, err := DecodeRecord(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != long || got.Node != long || len(got.Done) != 2 || got.Done[1] != long {
		t.Fatalf("decode after dedup = %+v", got)
	}
}

// TestNestedMessageLengthPatch exercises the slow patch path: a nested
// message over 127 bytes forces the placeholder to grow in place.
func TestNestedMessageLengthPatch(t *testing.T) {
	big := strings.Repeat("x", 4000)
	rec := Record{Type: TypeExecSnap, ID: "dgf-1", Vars: map[string]string{"k": big}}
	e := GetEncoder()
	defer PutEncoder(e)
	AppendRecord(e, &rec)
	got, err := DecodeRecord(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Vars["k"] != big {
		t.Fatalf("large nested value corrupted: got %d bytes", len(got.Vars["k"]))
	}
}

// TestUnknownFieldSkip appends fields a MsgRecord decoder has never
// heard of — every wire type, including an inline symbol definition
// that a later known field references — and wants the known fields
// back untouched.
func TestUnknownFieldSkip(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	e.Begin(MsgRecord)
	e.Sym(1, TypeExecEnd)
	e.Uint(90, 12345)                                 // unknown varint
	e.Str(91, "future bytes")                         // unknown bytes
	e.Msg(92, func(e *Encoder) { e.Str(1, "inner") }) // unknown message
	e.Sym(93, "shared-symbol")                        // unknown symbol: defines table entry
	e.Sym(2, "shared-symbol")                         // known field referencing it
	e.Bool(10, true)

	got, err := DecodeRecord(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeExecEnd || got.ID != "shared-symbol" || !got.Paused {
		t.Fatalf("decode with unknown fields = %+v", got)
	}
}

// TestDecoderRejectsGarbage feeds truncations and corruptions; all must
// error, none may panic.
func TestDecoderRejectsGarbage(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	rec := testRecord()
	AppendRecord(e, &rec)
	good := e.Bytes()
	for i := range good {
		if _, err := DecodeRecord(good[:i]); err == nil && i < 3 {
			t.Fatalf("truncation at %d decoded without error", i)
		}
		// Truncations past the header may decode cleanly if they fall on
		// a field boundary — that is fine; we only require no panic.
		_, _ = DecodeRecord(good[:i])
	}
	if _, err := DecodeRecord([]byte("{json}")); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("JSON payload error = %v, want ErrNotBinary", err)
	}
	bad := append([]byte(nil), good...)
	bad[1] = 99
	if _, err := DecodeRecord(bad); err == nil {
		t.Fatal("future format version decoded without error")
	}
	bad = append([]byte(nil), good...)
	bad[2] = MsgControl
	if _, err := DecodeRecord(bad); err == nil {
		t.Fatal("wrong message type decoded without error")
	}
}

// TestFrameScanner writes three frames and scans the stream back in
// memory with NextFrame, cut at every byte: the scan sees each whole
// frame before the cut — its fields decode to its record — and stops at
// the start of the frame the cut falls in, with io.EOF on a frame
// boundary and ErrTorn inside a frame, where truncating repairs the
// stream. A bad magic, version or body length, at the first frame or
// mid-stream, is corruption: a hard error naming the offset.
func TestFrameScanner(t *testing.T) {
	recs := []Record{
		{Type: TypeExecStart, ID: "dgf-1", Request: "<dataGridRequest/>"},
		{Type: TypeStepDone, ID: "dgf-1", Node: "/f/s1"},
		testRecord(),
	}
	stream := frameStream(recs...)
	starts := []int{0} // each frame's start, then the stream's end
	for off := 0; off < len(stream); {
		f, err := NextFrame(stream, off)
		if err != nil || f.Type != MsgRecord {
			t.Fatalf("frame at %d: type %d, %v", off, f.Type, err)
		}
		off = f.End
		starts = append(starts, off)
	}
	if len(starts) != len(recs)+1 || starts[len(recs)] != len(stream) {
		t.Fatalf("frames end at %v in a stream of %d bytes", starts, len(stream))
	}
	var v RecordView
	for cut := 0; cut <= len(stream); cut++ {
		data := stream[:cut]
		off, n := 0, 0
		var err error
		for ; ; n++ {
			var f Frame
			if f, err = NextFrame(data, off); err != nil {
				break
			}
			if err := v.DecodeFields(data, f.Body, f.End); err != nil {
				t.Fatalf("cut %d frame %d: %v", cut, n, err)
			}
			if got := v.Record(); !recordsEqual(got, recs[n]) {
				t.Fatalf("cut %d frame %d: view materialises %+v", cut, n, got)
			}
			off = f.End
		}
		k := 0 // the frames whole before the cut
		for k < len(recs) && starts[k+1] <= cut {
			k++
		}
		wantErr := ErrTorn
		if starts[k] == cut {
			wantErr = io.EOF
		}
		if n != k || off != starts[k] || err != wantErr {
			t.Fatalf("cut %d: walk stops at %d after %d frames with %v, want %d after %d with %v", cut, off, n, err, starts[k], k, wantErr)
		}
	}
	for _, at := range []int{0, starts[len(recs)-1]} {
		for name, corrupt := range map[string]func([]byte){
			"magic":   func(b []byte) { b[0] = '{' },
			"version": func(b []byte) { b[1] = Version + 1 },
			"length":  func(b []byte) { copy(b[3:], "\xff\xff\xff\xff\x7f") },
		} {
			bad := append([]byte(nil), stream...)
			corrupt(bad[at:])
			off := 0
			var err error
			for {
				var f Frame
				if f, err = NextFrame(bad, off); err != nil {
					break
				}
				off = f.End
			}
			if off != at || err == io.EOF || errors.Is(err, ErrTorn) || !strings.HasSuffix(err.Error(), fmt.Sprintf("at offset %d", at)) {
				t.Fatalf("bad %s at %d: walk stops at %d with %v, want a hard error naming the offset", name, at, off, err)
			}
		}
	}
}

// TestNextFrameAllocs: walking a stream in memory allocates nothing per
// frame.
func TestNextFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	stream := frameStream(testRecord(), Record{Type: TypeStepDone, ID: "dgf-1", Node: "/f/s1"})
	allocs := testing.AllocsPerRun(200, func() {
		for off := 0; ; {
			f, err := NextFrame(stream, off)
			if err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
			off = f.End
		}
	})
	if allocs != 0 {
		t.Errorf("NextFrame allocates %.1f times per two-frame stream, want 0", allocs)
	}
}

// TestEncoderAccumulatesFrames checks that one encoder can hold many
// frames back to back (the vectored-write path) with independent
// string tables.
func TestEncoderAccumulatesFrames(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	a := Record{Type: TypeExecStart, ID: "dgf-1"}
	b := Record{Type: TypeExecEnd, ID: "dgf-2"}
	AppendRecordFrame(e, &a)
	n := e.Len()
	AppendRecordFrame(e, &b)
	var v RecordView
	off := 0
	for _, want := range []Record{a, b} {
		f, err := NextFrame(e.Bytes(), off)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.DecodeFields(e.Bytes(), f.Body, f.End); err != nil {
			t.Fatal(err)
		}
		if got := v.Record(); got.ID != want.ID || got.Type != want.Type {
			t.Fatalf("got %+v want %+v", got, want)
		}
		off = f.End
	}
	if e.Len() <= n {
		t.Fatal("second frame did not append")
	}
}
