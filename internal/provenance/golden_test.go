package provenance

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRecord is one record of the golden files and the detail it is
// appended with, in the order its producer sets the pairs.
type goldenRecord struct {
	r      Record
	detail []Attr
}

// goldenRecords are the records pinned in testdata/records_v1.bin, and in
// testdata/records_v1.jsonl, which the build that wrote provenance as
// JSON lines left: details of 0, 1, 2, 4 and 5 pairs — replicate's
// "from", set after its "to" once the operation has picked a source; an
// ILM cycle's four counts; a value that needed JSON's escapes; keys that
// sort by byte, an empty value. Do not edit: both files hold these
// records.
func goldenRecords() []goldenRecord {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return []goldenRecord{
		{Record{Time: t0, Actor: "admin", Action: "collection.create", Target: "/grid/home"}, nil},
		{Record{Time: t0.Add(time.Second), Actor: "alice@sdsc", Action: "get", Target: "/grid/home/x.dat",
			Outcome: OutcomeError, Err: "dgms: no usable replica: /grid/home/x.dat"}, nil},
		{Record{Time: t0.Add(2 * time.Second), Actor: "alice@sdsc", Action: "trim", Target: "/grid/home/a.dat"},
			[]Attr{{"resource", "tape"}}},
		{Record{Time: t0.Add(3*time.Second + 250*time.Millisecond), Actor: "alice@sdsc", Action: "ingest", Target: "/grid/home/a.dat"},
			[]Attr{{"resource", "disk1"}, {"size", "1024"}}},
		{Record{Time: t0.Add(4 * time.Second), Actor: "alice@sdsc", Action: "replicate", Target: "/grid/home/a.dat"},
			[]Attr{{"to", "tape"}, {"from", "disk1"}}},
		{Record{Time: t0.Add(5 * time.Second), Actor: "bob", Action: "meta.set", Target: "/grid/home/a.dat"},
			[]Attr{{"attr", "note"}, {"value", "<a & \"b\"> \u2028 é \\ \t"}}},
		{Record{Time: t0.Add(6*time.Second + 7), Actor: "bob", Action: "step.start", Target: "tag",
			FlowID: "dgf-000042", StepID: "dgf-000042/job/tag", Outcome: OutcomeSkipped}, nil},
		{Record{Time: t0.Add(7 * time.Second), Actor: "ilm", Action: "ilm.cycle", Target: "/grid/home", FlowID: "dgf-000043"},
			[]Attr{{"policy", "age-out"}, {"examined", "120"}, {"migrates", "7"}, {"deletes", "0"}}},
		{Record{Time: t0.Add(8 * time.Second), Actor: "sched", Action: "exec", Target: "/grid/home/b.dat"},
			[]Attr{{"zeta", "1"}, {"alpha", "2"}, {"Mixed", "3"}, {"é", "4"}, {"_", ""}}},
	}
}

// jsonRecord is a line of testdata/records_v1.jsonl: the reference the
// binary golden is held to.
type jsonRecord struct {
	Seq     int64             `json:"seq"`
	Time    time.Time         `json:"time"`
	Actor   string            `json:"actor"`
	Action  string            `json:"action"`
	Target  string            `json:"target"`
	FlowID  string            `json:"flow_id"`
	StepID  string            `json:"step_id"`
	Outcome string            `json:"outcome"`
	Err     string            `json:"err"`
	Detail  map[string]string `json:"detail"`
}

// jsonlRecords decodes testdata/records_v1.jsonl.
func jsonlRecords(t *testing.T) []Record {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "records_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Record
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var j jsonRecord
		if err := dec.Decode(&j); err != nil {
			t.Fatal(err)
		}
		r := Record{Seq: j.Seq, Time: j.Time, Actor: j.Actor, Action: j.Action, Target: j.Target,
			FlowID: j.FlowID, StepID: j.StepID, Outcome: j.Outcome, Err: j.Err}
		for k, v := range j.Detail {
			r.Detail = append(r.Detail, Attr{k, v})
		}
		sortAttrs(r.Detail)
		out = append(out, r)
	}
	return out
}

// TestGoldenRecordsFile writes the golden records through Open and
// Append and holds the log to testdata/records_v1.bin, then reopens the
// pinned file — a log of an earlier build, read by this one — and
// queries every record back as it was appended, its detail sorted by
// key: the records the JSON-lines reference holds. Regenerate with
// `go test ./internal/provenance -run Golden -update` after an
// intentional change of layout.
func TestGoldenRecordsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenRecords()
	for _, g := range golden {
		if _, err := s.Append(g.r, g.detail...); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned := filepath.Join("testdata", "records_v1.bin")
	if *update {
		if err := os.WriteFile(pinned, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the log diverges from testdata/records_v1.bin: logs on disk would no longer replay as written\n got: %x\nwant: %x", got, want)
	}

	path = filepath.Join(t.TempDir(), "pinned.log")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	back := reopened.Query(Filter{})
	if len(back) != len(golden) {
		t.Fatalf("reopened file holds %d records, want %d", len(back), len(golden))
	}
	if ref := jsonlRecords(t); !reflect.DeepEqual(back, ref) {
		t.Errorf("the binary golden and the JSON-lines reference disagree:\n bin: %+v\njson: %+v", back, ref)
	}
	for i, g := range golden {
		r := g.r
		r.Seq = int64(i + 1)
		if r.Outcome == "" {
			r.Outcome = OutcomeOK
		}
		if len(g.detail) > 0 {
			r.Detail = slices.Clone(g.detail)
			sortAttrs(r.Detail)
		}
		if !reflect.DeepEqual(back[i], r) {
			t.Errorf("record %d reads back as %+v, want %+v", i+1, back[i], r)
		}
		if written := s.Query(Filter{})[i]; !reflect.DeepEqual(written, back[i]) {
			t.Errorf("record %d is %+v in the store that wrote it and %+v in the file", i+1, written, back[i])
		}
		for _, a := range g.detail {
			if !slices.Contains(back[i].Detail, a) {
				t.Errorf("record %d: detail %+v lacks %q = %q", i+1, back[i].Detail, a.Key, a.Value)
			}
		}
	}
}

// frame encodes r as one frame of the log.
func frame(r *Record) []byte {
	var enc codec.Encoder
	mark := enc.BeginFrame(codec.MsgProv)
	AppendRecord(&enc, r)
	enc.EndFrame(mark)
	return enc.Bytes()
}

// FuzzOpen: Open over arbitrary bytes never panics. It refuses the log
// with an ErrInvalid, or replays a prefix of it — what is left on disk is
// a prefix of what was there — after which an appended record is read
// back by the next reopen.
func FuzzOpen(f *testing.F) {
	if pinned, err := os.ReadFile(filepath.Join("testdata", "records_v1.bin")); err == nil {
		f.Add(pinned)
	}
	whole := frame(&Record{Seq: 1, Time: sim.Epoch, Actor: "admin", Action: "ingest", Target: "/grid/a",
		Outcome: OutcomeOK, Detail: Attrs{{"size", "1024"}}})
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add([]byte{})
	f.Add([]byte(`{"seq":1,"time":"2026-08-08T12:00:00Z","action":"get","outcome":"ok"}` + "\n"))
	f.Add([]byte{codec.Magic, codec.Version, codec.MsgVdata, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "prov.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			if !errors.Is(err, dgferr.ErrInvalid) {
				t.Fatalf("Open refused the log with %v, want an ErrInvalid", err)
			}
			return
		}
		if left, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(data, left) {
			t.Fatalf("Open left %x on disk, not a prefix of %x (%v)", left, data, err)
		}
		n := s.Count(Filter{})
		seq, err := s.Append(Record{Time: sim.Epoch, Action: "appended"}, Attr{"k", "v"})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path)
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		defer s.Close()
		all := s.Query(Filter{})
		if len(all) != n+1 {
			t.Fatalf("reopened with %d records, want %d", len(all), n+1)
		}
		if r := all[n]; r.Seq != seq || r.Action != "appended" || !slices.Contains(r.Detail, Attr{"k", "v"}) {
			t.Fatalf("the appended record replays as %+v, want seq %d", r, seq)
		}
	})
}

// FuzzRecordRoundTrip: a record survives AppendRecord and a store's read in a
// log frame, and always encodes to the same bytes. A zero time stays
// zero, and an empty Detail decodes as nil, as it was absent.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(0), "admin", "collection.create", "/grid/home", "", "", "ok", "", "resource", "tape", byte(1))
	f.Add(int64(7), int64(1786190406000000007), "bob", "step.start", "tag", "dgf-000042", "dgf-000042/job/tag",
		"skipped", "", "", "", byte(2))
	f.Add(int64(-3), int64(-1), "é", "meta.set", "<a & \"b\">", "\u2028", "", "error", "boom", "value", "", byte(2))
	f.Fuzz(func(t *testing.T, seq, nanos int64, actor, action, target, flow, step, outcome, errText, k, v string, shape byte) {
		r := Record{Seq: seq, Actor: actor, Action: action, Target: target, FlowID: flow, StepID: step,
			Outcome: outcome, Err: errText}
		if nanos != 0 {
			r.Time = time.Unix(0, nanos).UTC()
		}
		switch shape % 3 {
		case 1:
			r.Detail = Attrs{}
		case 2:
			r.Detail = Attrs{{"", ""}, {k, v}, {v, strings.ToUpper(k)}}
		}
		want := r
		if len(want.Detail) == 0 {
			want.Detail = nil
		}
		b := frame(&r)
		if again := frame(&r); !bytes.Equal(b, again) {
			t.Fatalf("one record, two encodings:\n%x\n%x", b, again)
		}
		fr, err := codec.NextFrame(b, 0)
		if err != nil || fr.Type != codec.MsgProv || fr.End != len(b) {
			t.Fatalf("the frame does not parse: %+v, %v", fr, err)
		}
		var w walker
		defer w.release()
		err = w.read(b, fr.Body, fr.End)
		if got := w.record(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
	})
}

// TestAppendDetailAllocs: a retaining store encodes each record with an
// encoder of its own and copies the frame into its chunks, so what an
// append allocates is a chunk now and then — far below one allocation a record
// — and the caller's pairs stay where the caller built them. A closed
// store allocates nothing at all. A file-backed store also writes the
// frame as it is; the build that wrote JSON lines spent 11.0 allocations
// on this record, in json.Marshal and the map its detail marshalled
// through.
func TestAppendDetailAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const records = 10000
	appendAll := func(s *Store) {
		for i := 0; i < records; i++ {
			_, _ = s.Append(Record{Actor: "user", Action: "ingest", Target: "/grid/o.dat"},
				Attr{Key: "resource", Value: "disk1"}, Attr{Key: "size", Value: "1024"})
		}
	}
	retaining := NewMemory()
	perRecord := testing.AllocsPerRun(1, func() { appendAll(retaining) }) / records
	closed := NewMemory()
	closed.Close()
	perClosed := testing.AllocsPerRun(1, func() { appendAll(closed) }) / records
	file, err := Open(filepath.Join(t.TempDir(), "prov.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	perFile := testing.AllocsPerRun(1, func() { appendAll(file) }) / records
	const fileBudget = 1
	t.Logf("appending a record with two detail pairs: %.4f allocations retained, %.4f closed, %.4f file-backed (budget %d; 11.0 when the log was JSON lines)",
		perRecord, perClosed, perFile, fileBudget)
	if perRecord >= 0.1 || perClosed != 0 || perFile > fileBudget {
		t.Errorf("an append allocates %.4f times retained (budget < 0.1), %.4f closed (want 0) and %.4f file-backed (budget %d)",
			perRecord, perClosed, perFile, fileBudget)
	}
	if got := retaining.Query(Filter{Limit: 1})[0].Detail; !reflect.DeepEqual(got, Attrs{{"resource", "disk1"}, {"size", "1024"}}) {
		t.Errorf("retained detail = %v", got)
	}
}
