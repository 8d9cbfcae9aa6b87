package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/sim"
)

func rec(action, flow string, at time.Time) Record {
	return Record{Time: at, Actor: "user", Action: action, FlowID: flow, Target: "/grid/x"}
}

func TestAppendAndSeq(t *testing.T) {
	s := NewMemory()
	for i := 1; i <= 5; i++ {
		seq, err := s.Append(rec("op", "f1", sim.Epoch))
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
	}
	if s.Count(Filter{}) != 5 {
		t.Errorf("Count = %d", s.Count(Filter{}))
	}
	// Default outcome is ok.
	rs := s.Query(Filter{Outcome: OutcomeOK})
	if len(rs) != 5 {
		t.Errorf("default outcome records = %d", len(rs))
	}
}

func TestQueryFilters(t *testing.T) {
	s := NewMemory()
	t0 := sim.Epoch
	appendOK := func(r Record) {
		t.Helper()
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	appendOK(Record{Time: t0, Actor: "alice", Action: "ingest", Target: "/grid/a/1", FlowID: "f1"})
	appendOK(Record{Time: t0.Add(time.Minute), Actor: "bob", Action: "replicate", Target: "/grid/a/1", FlowID: "f1", StepID: "s2"})
	appendOK(Record{Time: t0.Add(2 * time.Minute), Actor: "alice", Action: "step.start", Target: "/grid/b/2", FlowID: "f2", Outcome: OutcomeOK})
	appendOK(Record{Time: t0.Add(3 * time.Minute), Actor: "alice", Action: "step.finish", Target: "/grid/b/2", FlowID: "f2", Outcome: OutcomeError, Err: "boom"})

	if got := s.Query(Filter{FlowID: "f1"}); len(got) != 2 {
		t.Errorf("FlowID filter: %d", len(got))
	}
	if got := s.Query(Filter{Actor: "bob"}); len(got) != 1 || got[0].Action != "replicate" {
		t.Errorf("Actor filter: %v", got)
	}
	if got := s.Query(Filter{Action: "ingest"}); len(got) != 1 {
		t.Errorf("Action filter: %d", len(got))
	}
	if got := s.Query(Filter{ActionPrefix: "step."}); len(got) != 2 {
		t.Errorf("ActionPrefix filter: %d", len(got))
	}
	if got := s.Query(Filter{TargetPrefix: "/grid/a"}); len(got) != 2 {
		t.Errorf("TargetPrefix filter: %d", len(got))
	}
	if got := s.Query(Filter{Outcome: OutcomeError}); len(got) != 1 || got[0].Err != "boom" {
		t.Errorf("Outcome filter: %v", got)
	}
	if got := s.Query(Filter{Since: t0.Add(time.Minute), Until: t0.Add(3 * time.Minute)}); len(got) != 2 {
		t.Errorf("time window: %d", len(got))
	}
	if got := s.Query(Filter{Limit: 2}); len(got) != 2 {
		t.Errorf("limit: %d", len(got))
	}
	if got := s.Query(Filter{StepID: "s2"}); len(got) != 1 {
		t.Errorf("StepID filter: %d", len(got))
	}
	if n := s.Count(Filter{FlowID: "f2"}); n != 2 {
		t.Errorf("Count = %d", n)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append(Record{
			Time: sim.Epoch.Add(time.Duration(i) * time.Hour), Action: "archive",
			FlowID: "ilm-2005", Target: fmt.Sprintf("/grid/obj%d", i),
		}, Attr{Key: "bytes", Value: "1024"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Action: "late"}); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Errorf("flush after close: %v", err)
	}
	// "Years later": a new process opens the same log and audits the flow.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count(Filter{}) != 10 {
		t.Fatalf("reloaded %d records, want 10", s2.Count(Filter{}))
	}
	got := s2.Query(Filter{FlowID: "ilm-2005", TargetPrefix: "/grid/obj"})
	if len(got) != 10 || !slices.Contains(got[0].Detail, Attr{"bytes", "1024"}) {
		t.Errorf("reloaded query: %d records", len(got))
	}
	// Sequence numbering continues after reload.
	seq, err := s2.Append(Record{Action: "post-reload"})
	if err != nil || seq != 11 {
		t.Errorf("post-reload seq = %d, %v", seq, err)
	}
	// Double close is fine.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestOpenCorruptLog: a log of whole frames that do not hold provenance
// records — fields that do not decode, a frame of another message type —
// is corruption, not a torn tail. Open refuses it with an ErrInvalid and
// leaves it as it was.
func TestOpenCorruptLog(t *testing.T) {
	for name, content := range map[string][]byte{
		"bad fields":   {codec.Magic, codec.Version, codec.MsgProv, 1, 0xff},
		"another type": {codec.Magic, codec.Version, codec.MsgVdata, 0},
	} {
		path := filepath.Join(t.TempDir(), "bad.log")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path); !errors.Is(err, dgferr.ErrInvalid) {
			if s != nil {
				s.Close()
			}
			t.Errorf("%s: Open = %v, want an ErrInvalid", name, err)
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, content) {
			t.Errorf("%s: the refused log changed to %x (%v)", name, data, err)
		}
	}
	if _, err := Open(filepath.Join(t.TempDir(), "nodir", "x.log")); err == nil {
		t.Errorf("unopenable path accepted")
	}
}

// TestOpenRefusesNonBinaryLog: a log that does not start with a frame —
// the JSON-lines log an earlier build wrote, a stray byte — fails Open
// with an ErrInvalid naming the file, which is left byte for byte as it
// was. An empty log is one nothing was written to yet, and opens.
func TestOpenRefusesNonBinaryLog(t *testing.T) {
	for name, content := range map[string]string{
		"JSONL":    `{"seq":1,"time":"2026-08-08T12:00:00Z","actor":"admin","action":"collection.create","target":"/grid/home","outcome":"ok"}` + "\n",
		"one byte": "{",
	} {
		path := filepath.Join(t.TempDir(), "prov.log")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Errorf("%s: Open took the log", name)
			continue
		}
		if !errors.Is(err, dgferr.ErrInvalid) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: Open = %v, want an ErrInvalid naming %s", name, err, path)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != content {
			t.Errorf("%s: the refused log changed to %q (%v)", name, data, err)
		}
	}

	path := filepath.Join(t.TempDir(), "prov.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("an empty log: %v", err)
	}
	if _, err := s.Append(rec("op", "f1", sim.Epoch)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Count(Filter{}) != 1 {
		t.Fatalf("an empty log appended to replays %d records, want 1", s.Count(Filter{}))
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRepairsTornTail: a process killed mid-append leaves a torn last
// frame behind. Cut at every offset, Open keeps the complete records
// before it and truncates the log to them, and a record appended
// afterwards survives one more reopen.
func TestOpenRepairsTornTail(t *testing.T) {
	torn := frame(&Record{Seq: 4, Time: sim.Epoch, Actor: "user", Action: "op", Target: "/grid/x", FlowID: "f1",
		Outcome: OutcomeOK, Detail: Attrs{{"size", "1024"}}})
	for cut := 1; cut < len(torn); cut++ {
		path := filepath.Join(t.TempDir(), "prov.log")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Append(rec("op", "f1", sim.Epoch)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		appendFile(t, path, torn[:cut])

		s2, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: a torn last record stopped Open: %v", cut, err)
		}
		if s2.Count(Filter{}) != 3 {
			t.Fatalf("cut at %d: reopened with %d records, want the 3 complete ones", cut, s2.Count(Filter{}))
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("cut at %d: the log is %d bytes after Open, want it truncated to its %d whole bytes (%v)",
				cut, len(got), len(whole), err)
		}
		if seq, err := s2.Append(rec("after", "f1", sim.Epoch)); err != nil || seq != 4 {
			t.Fatalf("cut at %d: append after the repair = %d, %v", cut, seq, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: reopen after an append: %v", cut, err)
		}
		if recs := s3.Query(Filter{}); len(recs) != 4 || recs[3].Action != "after" {
			t.Fatalf("cut at %d: the record appended after the repair was lost: %+v", cut, recs)
		}
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendRefusesOversizeRecord: a record over the frame limit would
// leave a log that no longer replays, so a file-backed store refuses it.
// The refused record is not kept and takes no sequence number, and the
// log stays open.
func TestAppendRefusesOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	huge := Attr{Key: "value", Value: strings.Repeat("x", codec.MaxFrameBody)}
	if _, err := s.Append(rec("meta.set", "f1", sim.Epoch), huge); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("oversize append: %v, want ErrInvalid", err)
	}
	if s.Count(Filter{}) != 0 {
		t.Fatal("the refused record was kept")
	}
	if seq, err := s.Append(rec("small", "f1", sim.Epoch), Attr{Key: "k", Value: "v"}); err != nil || seq != 1 {
		t.Fatalf("append after a refusal = %d, %v; want seq 1", seq, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Query(Filter{}); len(got) != 1 || got[0].Seq != 1 || !reflect.DeepEqual(got[0].Detail, Attrs{{"k", "v"}}) {
		t.Fatalf("reopened with %+v, want the one small record", got)
	}
}

func TestFlushMemoryStore(t *testing.T) {
	s := NewMemory()
	if err := s.Flush(); err != nil {
		t.Errorf("Flush on memory store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on memory store: %v", err)
	}
	// Reads still work after close.
	if s.Count(Filter{}) != 0 {
		t.Errorf("Count after close")
	}
}

// TestConcurrentAppend: appenders on several goroutines get unique,
// dense sequence numbers; on a file-backed store, with flushes among
// them, the log replays the same records in seq order.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.log")
	file, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"memory": NewMemory(), "file": file} {
		var wg sync.WaitGroup
		const n, per = 8, 200
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					if _, err := s.Append(rec("op", "f", sim.Epoch)); err != nil {
						t.Error(err)
						return
					}
					if j%50 == 0 {
						if err := s.Flush(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if name == "file" {
			if s, err = Open(path); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
		}
		all := s.Query(Filter{})
		if len(all) != n*per {
			t.Fatalf("%s: Len = %d, want %d", name, len(all), n*per)
		}
		for i, r := range all {
			if r.Seq != int64(i+1) {
				t.Fatalf("%s: record %d has seq %d: the seqs are not dense and in order", name, i+1, r.Seq)
			}
		}
	}
}

// Property: Query(Filter{}) returns records in strictly increasing seq
// order regardless of append interleavings, and Count agrees with Query.
func TestQuickOrdering(t *testing.T) {
	f := func(actions []uint8) bool {
		s := NewMemory()
		for _, a := range actions {
			if _, err := s.Append(Record{Action: fmt.Sprintf("a%d", a%4), Time: sim.Epoch}); err != nil {
				return false
			}
		}
		all := s.Query(Filter{})
		for i := 1; i < len(all); i++ {
			if all[i].Seq <= all[i-1].Seq {
				return false
			}
		}
		return s.Count(Filter{Action: "a1"}) == len(s.Query(Filter{Action: "a1"}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkProvenanceAppend(b *testing.B) {
	s := NewMemory()
	r := rec("op", "f", sim.Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvenanceQuery queries a log of 100 000 records for one
// flow's thousand, and for a time window no record falls in, which no
// frame can be passed over for unread.
func BenchmarkProvenanceQuery(b *testing.B) {
	s := NewMemory()
	for i := 0; i < 100000; i++ {
		if _, err := s.Append(Record{Action: "op", FlowID: fmt.Sprintf("f%d", i%100), Time: sim.Epoch}); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		f    Filter
		want int
	}{
		{"flow", Filter{FlowID: "f42"}, 1000},
		{"window", Filter{Since: sim.Epoch.Add(time.Hour)}, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.Query(bc.f); len(got) != bc.want {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}
