package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// goldenRecord is one record of testdata/records_v1.jsonl and the detail
// it is appended with, in the order its producer sets the pairs.
type goldenRecord struct {
	r      Record
	detail []Attr
}

// goldenRecords are the records pinned in testdata/records_v1.jsonl,
// which the build that kept a record's detail in a map wrote: details of
// 0, 1, 2, 4 and 5 pairs — replicate's "from", set after its "to" once
// the operation has picked a source; an ILM cycle's four counts; a value
// that needs JSON's escapes; keys that sort by byte, an empty value.
// Do not edit: provenance files already on disk hold these bytes.
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

// TestGoldenRecordsFile writes the golden records through Open and
// Append and holds the file to the pinned bytes, then reopens it — the
// file of an earlier build, read by this one — and queries every record
// back as it was appended, its detail sorted by key.
func TestGoldenRecordsFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "records_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prov.jsonl")
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
	if !bytes.Equal(got, want) {
		t.Fatalf("provenance file differs from testdata/records_v1.jsonl:\n got %s\nwant %s", got, want)
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
			if v := back[i].Detail.Get(a.Key); v != a.Value {
				t.Errorf("record %d: Get(%q) = %q, want %q", i+1, a.Key, v, a.Value)
			}
		}
	}
}

// TestAppendDetailAllocs: a retaining store copies each record's detail
// into its slab, so what an append allocates is the records slice's
// growth and a slab chunk now and then — far below one allocation a
// record — and the caller's pairs stay where the caller built them. A
// closed store allocates nothing at all.
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
	t.Logf("appending a record with two detail pairs: %.4f allocations retained, %.4f closed", perRecord, perClosed)
	if perRecord >= 0.1 || perClosed != 0 {
		t.Errorf("an append allocates %.4f times retained (budget < 0.1) and %.4f closed (want 0)", perRecord, perClosed)
	}
	if got := retaining.Query(Filter{Limit: 1})[0].Detail; !reflect.DeepEqual(got, Attrs{{"resource", "disk1"}, {"size", "1024"}}) {
		t.Errorf("retained detail = %v", got)
	}
}
