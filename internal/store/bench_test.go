package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"datagridflow/internal/obs"
)

// BenchmarkGroupFileAppendSerial is the pre-group-commit baseline: one
// goroutine, one fsync per record. Compare with
// BenchmarkGroupFileAppendParallel to see what commit sharing buys.
func BenchmarkGroupFileAppendSerial(b *testing.B) {
	g, err := OpenGroupFile(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	frame := testFrame("dgf-000001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeSync(g, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupFileAppendParallel drives concurrent appenders through
// the group commit: every write is still durable on return, but
// contemporaneous records share fsyncs. Reports fsyncs/op (1.0 would
// mean no batching).
func BenchmarkGroupFileAppendParallel(b *testing.B) {
	g, err := OpenGroupFile(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	reg := obs.NewRegistry()
	g.SetObs(reg)
	frame := testFrame("dgf-000001")
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := writeSync(g, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	commits := reg.Counter("journal_group_commits_total").Value()
	if b.N > 0 {
		b.ReportMetric(float64(commits)/float64(b.N), "fsyncs/op")
	}
}

// BenchmarkStoreAppendParallel measures the full store append path —
// marshal, rotation check, index fold, group-committed write — under
// concurrency, the shape of a busy engine checkpointing many flows.
func BenchmarkStoreAppendParallel(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			rec := Record{Type: TypeStepDone, ID: fmt.Sprintf("dgf-%06d", i%64), Node: "/f/s"}
			if err := s.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreOpenCompacted measures restart replay of a compacted
// store — the recovery cost E14 bounds to O(live executions).
func BenchmarkStoreOpenCompacted(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Now: func() time.Time { return time.Unix(0, 0) }})
	if err != nil {
		b.Fatal(err)
	}
	req, _ := json.Marshal(map[string]string{"flow": "bench"})
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("dgf-%06d", i)
		if err := s.Append(Record{Type: TypeExecStart, ID: id, Request: string(req)}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if err := s.Append(Record{Type: TypeStepDone, ID: id, Node: fmt.Sprintf("/f/s%d", j)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got := s2.Stats().ReplayRecords; got != 1000 {
			b.Fatalf("replayed %d", got)
		}
		s2.Close()
	}
}
