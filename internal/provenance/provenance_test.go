package provenance

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

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
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
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
	last, ok := s.Last(Filter{FlowID: "f2"})
	if !ok || last.Action != "step.finish" {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	if _, ok := s.Last(Filter{FlowID: "zzz"}); ok {
		t.Errorf("Last on empty match should report false")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
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
	if s2.Len() != 10 {
		t.Fatalf("reloaded %d records, want 10", s2.Len())
	}
	got := s2.Query(Filter{FlowID: "ilm-2005", TargetPrefix: "/grid/obj"})
	if len(got) != 10 || got[0].Detail.Get("bytes") != "1024" {
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

func TestOpenCorruptLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Errorf("corrupt log accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "nodir", "x.jsonl")); err == nil {
		t.Errorf("unopenable path accepted")
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
	if s.Len() != 0 {
		t.Errorf("Len after close")
	}
}

func TestConcurrentAppend(t *testing.T) {
	s := NewMemory()
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
			}
		}()
	}
	wg.Wait()
	if s.Len() != n*per {
		t.Fatalf("Len = %d, want %d", s.Len(), n*per)
	}
	// All sequence numbers unique and dense.
	seen := make(map[int64]bool)
	for _, r := range s.Query(Filter{}) {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	for i := int64(1); i <= n*per; i++ {
		if !seen[i] {
			t.Fatalf("missing seq %d", i)
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

func BenchmarkAppendMemory(b *testing.B) {
	s := NewMemory()
	r := rec("op", "f", sim.Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryLargeLog(b *testing.B) {
	s := NewMemory()
	for i := 0; i < 100000; i++ {
		if _, err := s.Append(Record{Action: "op", FlowID: fmt.Sprintf("f%d", i%100), Time: sim.Epoch}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := s.Query(Filter{FlowID: "f42"}); len(got) != 1000 {
			b.Fatalf("got %d", len(got))
		}
	}
}
