package codec

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRecords is the fixture stream pinned in testdata/segment_v1.bin.
// Do not edit: changing it (or the encoder's byte layout) invalidates
// every binary segment already on disk. The fixture times are fixed
// UTC instants so the files are byte-stable across machines.
func goldenRecords() []Record {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return []Record{
		{
			Type: TypeExecStart, ID: "dgf-000042", Time: t0,
			Request: "<dataGridRequest async=\"true\"></dataGridRequest>",
		},
		{
			Type: TypeStepDone, ID: "dgf-000042", Time: t0.Add(time.Second),
			Node: "/pipeline/stage-in",
		},
		{
			Type: TypeExecSnap, ID: "dgf-000042", Time: t0.Add(2 * time.Second),
			Request: "<dataGridRequest async=\"true\"></dataGridRequest>",
			Vars:    map[string]string{"chunk": "/grid/data/chunk-07"},
			Done:    []string{"/pipeline/stage-in"},
			Paused:  false, Passivated: true,
		},
	}
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

func writeOrCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(t, name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/codec -run Golden -update` after an intentional format change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded bytes diverge from the pinned on-disk layout.\n got: %x\nwant: %x\n"+
			"This breaks replay of existing binary segments; if the change is intentional, "+
			"bump codec.Version and regenerate with -update.", name, got, want)
	}
}

// TestGoldenRecordLayout pins the exact bytes of a single encoded
// record payload (testdata/record_v1.bin) and of a three-frame segment
// stream (testdata/segment_v1.bin). The worked hex dump in
// docs/CODEC.md is record_v1.bin.
func TestGoldenRecordLayout(t *testing.T) {
	recs := goldenRecords()

	e := GetEncoder()
	defer PutEncoder(e)
	AppendRecord(e, &recs[2])
	writeOrCompare(t, "record_v1.bin", e.Bytes())

	e2 := GetEncoder()
	defer PutEncoder(e2)
	for i := range recs {
		AppendRecordFrame(e2, &recs[i])
	}
	writeOrCompare(t, "segment_v1.bin", e2.Bytes())
}

// TestGoldenDecode reads the committed files back — proving today's
// decoder still understands yesterday's bytes, independent of the
// encoder.
func TestGoldenDecode(t *testing.T) {
	if *update {
		t.Skip("updating")
	}
	payload, err := os.ReadFile(goldenPath(t, "record_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenRecords()
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, want[2]) {
		t.Fatalf("record_v1.bin decodes to %+v, want %+v", got, want[2])
	}

	segment, err := os.ReadFile(goldenPath(t, "segment_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var v RecordView
	off := 0
	for i := range want {
		f, err := NextFrame(segment, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := v.DecodeFields(segment, f.Body, f.End); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := v.Record(); !recordsEqual(got, want[i]) {
			t.Fatalf("frame %d decodes to %+v, want %+v", i, got, want[i])
		}
		off = f.End
	}
	if _, err := NextFrame(segment, off); err != io.EOF {
		t.Fatalf("trailing data after pinned frames: %v", err)
	}
}
