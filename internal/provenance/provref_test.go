package provenance

import (
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"datagridflow/internal/sim"
)

// refStore is the memory store Store replaced, kept as the reference its
// frames are held to: a slice of records, their details copied into a
// slab, read by comparing fields.
type refStore struct {
	records []Record
	slab    []Attr
	nextSeq int64
}

func newRefStore() *refStore { return &refStore{nextSeq: 1} }

func (s *refStore) Append(r Record, detail ...Attr) int64 {
	if r.Outcome == "" {
		r.Outcome = OutcomeOK
	}
	r.Seq = s.nextSeq
	r.Detail = nil
	if len(detail) > 0 {
		if cap(s.slab)-len(s.slab) < len(detail) {
			s.slab = make([]Attr, 0, max(1024, len(detail)))
		}
		at := len(s.slab)
		s.slab = append(s.slab, detail...)
		r.Detail = s.slab[at:len(s.slab):len(s.slab)]
		sortAttrs(r.Detail)
	}
	s.nextSeq++
	s.records = append(s.records, r)
	return r.Seq
}

func (f Filter) refMatches(r Record) bool {
	switch {
	case f.FlowID != "" && r.FlowID != f.FlowID,
		f.StepID != "" && r.StepID != f.StepID,
		f.Actor != "" && r.Actor != f.Actor,
		f.Action != "" && r.Action != f.Action,
		f.ActionPrefix != "" && !strings.HasPrefix(r.Action, f.ActionPrefix),
		f.TargetPrefix != "" && !strings.HasPrefix(r.Target, f.TargetPrefix),
		f.Outcome != "" && r.Outcome != f.Outcome,
		!f.Since.IsZero() && r.Time.Before(f.Since),
		!f.Until.IsZero() && !r.Time.Before(f.Until):
		return false
	}
	return true
}

func (s *refStore) Query(f Filter) []Record {
	var out []Record
	for _, r := range s.records {
		if !f.refMatches(r) {
			continue
		}
		out = append(out, r)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

func (s *refStore) Count(f Filter) int {
	n := 0
	for _, r := range s.records {
		if f.refMatches(r) {
			n++
		}
	}
	return n
}

// inUTC is r as a store reads it back: its time the UTC instant.
func inUTC(r Record) Record {
	if !r.Time.IsZero() {
		r.Time = r.Time.UTC()
	}
	return r
}

// FuzzProvenanceMatchesReference: a memory store and a file-backed one,
// closed and reopened along the way, answer Query and Count
// as the reference does, for a script of appends and reads over a small
// vocabulary — so that filters hit — with a value now and then long
// enough to take a chunk of its own.
func FuzzProvenanceMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x10\x21\x32\x43\x80\x91\xa2\xb3\xff\x04\x05"), int64(1123456789000000000))
	f.Add([]byte(strings.Repeat("\x07\x1b\x8c\xf0\x45\x66", 30)), int64(-4e17))
	f.Fuzz(func(t *testing.T, script []byte, nanos int64) {
		words := []string{"", "a", "ab", "step.start", "step.finish", "/grid/a", "/grid/a/b", "f1", "f2", "ok", "error", "é\x00\xff"}
		word := func(b byte) string { return words[int(b)%len(words)] }
		long := strings.Repeat("L", provChunkMax+17)
		zone := time.FixedZone("z", -7*3600)
		path := filepath.Join(t.TempDir(), "prov.log")
		file, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { file.Close() }()
		mem, ref := NewMemory(), newRefStore()
		at := func(b byte) time.Time { return time.Unix(0, nanos+int64(b)*int64(time.Minute)).In(zone) }
		for i := 0; i+3 < len(script); i += 4 {
			op, a, b, c := script[i], script[i+1], script[i+2], script[i+3]
			switch op % 8 {
			case 0, 1, 2, 3: // append
				r := Record{Time: at(a), Actor: word(a), Action: word(b), Target: word(c),
					FlowID: word(a ^ b), StepID: word(b ^ c), Outcome: word(c >> 4), Err: word(a >> 4)}
				if op&0x40 != 0 {
					r.Time = time.Time{}
				}
				var detail []Attr
				for k := 0; k < int(op>>3)%4; k++ {
					detail = append(detail, Attr{word(b + byte(k)), word(c + byte(k))})
				}
				if op&0x80 != 0 && a%4 == 0 {
					r.Target = long
				}
				want := ref.Append(r, detail...)
				for name, s := range map[string]*Store{"memory": mem, "file": file} {
					if seq, err := s.Append(r, detail...); err != nil || seq != want {
						t.Fatalf("%s: Append = %d, %v; the reference numbered it %d", name, seq, err, want)
					}
				}
			case 4: // reopen the file-backed store
				if err := file.Close(); err != nil {
					t.Fatal(err)
				}
				if file, err = Open(path); err != nil {
					t.Fatal(err)
				}
			default: // read
				flt := Filter{Limit: int(c % 4)}
				switch op % 8 {
				case 5:
					flt.FlowID, flt.Action = word(a), word(b)
				case 6:
					flt.ActionPrefix, flt.TargetPrefix, flt.Outcome = word(a)[:len(word(a))/2], word(b), word(c)
				case 7:
					flt.Actor, flt.StepID, flt.Since, flt.Until = word(b), word(c), at(a), at(b)
					if a&1 == 0 {
						flt.Until = time.Time{}
					}
				}
				wantQ := ref.Query(flt)
				for k := range wantQ {
					wantQ[k] = inUTC(wantQ[k])
				}
				for name, s := range map[string]*Store{"memory": mem, "file": file} {
					if got := s.Query(flt); !reflect.DeepEqual(got, wantQ) {
						t.Fatalf("%s: Query(%+v) =\n%+v\nthe reference answers\n%+v", name, flt, got, wantQ)
					}
					if got, want := s.Count(flt), ref.Count(flt); got != want {
						t.Fatalf("%s: Count(%+v) = %d, the reference counts %d", name, flt, got, want)
					}
				}
			}
		}
	})
}

// TestStoreKeepsNoCallerString: a store encodes what it keeps, so a
// string a caller cut from a large buffer does not keep that buffer
// alive once the caller drops it.
func TestStoreKeepsNoCallerString(t *testing.T) {
	for name, s := range map[string]*Store{"memory": NewMemory(), "file": mustOpen(t, filepath.Join(t.TempDir(), "prov.log"))} {
		collected := make(chan struct{})
		func() {
			buf := strings.Repeat("b", 1<<20)
			runtime.SetFinalizer(unsafe.StringData(buf), func(*byte) { close(collected) })
			if _, err := s.Append(Record{Actor: buf[:4], Action: buf[4:8], Target: buf[8:20], FlowID: buf[20:24]},
				Attr{buf[24:26], buf[26:30]}); err != nil {
				t.Fatal(err)
			}
		}()
		if !collectedAfterGC(collected) {
			t.Fatalf("%s: a 1 MB string the caller dropped is still reachable after GC", name)
		}
		if recs := s.Query(Filter{}); len(recs) != 1 || recs[0].Target != strings.Repeat("b", 12) || !slices.Contains(recs[0].Detail, Attr{"bb", "bbbb"}) {
			t.Fatalf("%s: the store holds %+v", name, recs)
		}
		s.Close()
	}
}

func mustOpen(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// collectedAfterGC runs the collector until done is closed, or gives up.
func collectedAfterGC(done <-chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestReadsBesideAppends: reads walk the frames without the store's lock
// while appenders add to them, and every read sees a prefix of the log:
// dense sequence numbers from 1, counts that never shrink.
func TestReadsBesideAppends(t *testing.T) {
	s := NewMemory()
	const writers, per = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := s.Append(rec("op", "f", sim.Epoch), Attr{"k", strings.Repeat("v", j%300)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := 0
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		all := s.Query(Filter{FlowID: "f"})
		for i, r := range all {
			if r.Seq != int64(i+1) {
				t.Fatalf("a read saw seq %d at %d: not a prefix of the log", r.Seq, i+1)
			}
		}
		if n := s.Count(Filter{Action: "op"}); n < len(all) || len(all) < last {
			t.Fatalf("Count %d after a Query of %d, which followed one of %d", n, len(all), last)
		}
		last = len(all)
	}
	if n := s.Count(Filter{}); n != writers*per {
		t.Fatalf("Count %d, want %d", n, writers*per)
	}
}
