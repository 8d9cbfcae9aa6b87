package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
)

// indexImage is everything the store lets a caller observe of its index.
type indexImage struct {
	IDs     []string
	Entries []Entry
	Live    []Entry
	NLive   int
	Passive int
}

func imageOf(s *Store) indexImage {
	img := indexImage{IDs: s.IDs(), Live: s.Live()}
	for _, id := range img.IDs {
		ent, ok := s.Entry(id)
		if !ok {
			ent = Entry{ID: id + " (listed by IDs, no Entry)"}
		}
		img.Entries = append(img.Entries, ent)
	}
	st := s.Stats()
	img.NLive, img.Passive = st.Live, st.Passivated
	return img
}

// replayProgram drives one store through a record stream and, at every
// reopen, holds the index Open folds newest-first from the bytes on disk
// to the index apply built oldest-first while they were appended.
//
// Each step is two bytes, an action and an argument. Executions are
// modelled so that most of a stream has the shape the engine writes
// (docs/STORE.md, "Replay") — a start, steps, snapshots, an end, stale
// records after it — but every state also offers the records that do not
// belong there, because the two folds must agree on those as well: an id
// that ended before a compaction has no root left, so what follows is
// rootless until a stale exec.snap or, once a restarted engine hands the
// id out again, a new exec.start roots it behind those stragglers.
type replayProgram struct {
	t      *testing.T
	dir    string
	binary bool
	s      *Store
	state  [8]idState
}

type idState int

const (
	idFresh idState = iota
	idLive
	idTerminal
	idGone // ended or pruned, then dropped by a compaction
)

var (
	replayNodes = []string{"/f/a", "/f/b", "/f/par", "/f/par/x"}
	// One request in each encoding a stored request comes in: the JSONL
	// form carries the binary one as base64.
	replayRequests = []string{"<dataGridRequest/>", string([]byte{codec.Magic, codec.Version, codec.MsgRequest, 0x08, 0x01})}
)

func (p *replayProgram) open() {
	p.t.Helper()
	s, err := Open(p.dir, Options{
		Binary:          p.binary,
		SegmentMaxBytes: 256, // a handful of records: rotate often
		Now:             func() time.Time { return time.Unix(1, 0) },
	})
	if err != nil {
		p.t.Fatalf("open: %v", err)
	}
	p.s = s
}

// reopen closes the store and checks that Open rebuilds the same index.
func (p *replayProgram) reopen(flip bool, tear []byte) {
	p.t.Helper()
	// The index is what has been synced: bring in what was written
	// without waiting before taking its picture.
	if err := p.s.Flush(); err != nil {
		p.t.Fatalf("flush: %v", err)
	}
	want, records := imageOf(p.s), p.s.Stats().Records
	if err := p.s.Close(); err != nil {
		p.t.Fatalf("close: %v", err)
	}
	if len(tear) > 0 {
		segs, _ := filepath.Glob(filepath.Join(p.dir, "seg-*.log"))
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			p.t.Fatal(err)
		}
		f.Write(tear)
		f.Close()
	}
	if flip {
		p.binary = !p.binary // the next segment is in the other encoding: a mixed directory
	}
	p.open()
	if got := imageOf(p.s); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("reopened index differs from the appended one\nappended: %+v\nreopened: %+v", want, got)
	}
	if st := p.s.Stats(); st.ReplayRecords != records {
		p.t.Fatalf("replayed %d records, %d were live on disk", st.ReplayRecords, records)
	}
}

// record turns one program step into a record for the id in its current
// state.
func (p *replayProgram) record(action, arg byte) Record {
	i := int(arg) % len(p.state)
	rec := Record{ID: fmt.Sprintf("dgf-%06d", i), Time: time.Unix(int64(arg), 0)}
	start := func() {
		rec.Type, rec.Request = TypeExecStart, replayRequests[int(arg>>3)%len(replayRequests)]
	}
	snap := func() {
		rec.Type = TypeExecSnap
		rec.Request = replayRequests[int(arg>>3)%len(replayRequests)]
		rec.Paused = arg&0x40 != 0
		rec.Passivated = arg&0x80 != 0
		for k, n := range replayNodes {
			if arg>>3&(1<<k) != 0 {
				rec.Done = append(rec.Done, n)
			}
		}
		if arg&0x20 != 0 {
			rec.Vars = map[string]string{"v": fmt.Sprint(arg), "w": ""}
		}
	}
	node := func(typ string) {
		rec.Type, rec.Node = typ, replayNodes[int(arg>>3)%len(replayNodes)]
	}
	passivate := func() { rec.Type, rec.Paused = TypeExecPassivate, arg&0x40 != 0 }
	switch p.state[i] {
	case idFresh:
		start()
		p.state[i] = idLive
	case idLive:
		switch action % 10 {
		case 0:
			node(TypeStepDone)
		case 1:
			node(TypeDelegDone)
		case 2:
			node(TypeDelegStart)
		case 3:
			snap()
		case 4:
			passivate()
		case 5:
			rec.Type = TypeExecResurrect
		case 6:
			rec.Type = TypeExecEnd
			p.state[i] = idTerminal
		case 7: // a prune with no end before it: the end was torn off
			rec.Type = TypeExecPrune
			p.state[i] = idTerminal
		case 8: // a second root in mid-stream
			start()
		case 9:
			rec.Type, rec.Node = TypeStepDone, ""
		}
	case idTerminal:
		switch action % 6 {
		case 0: // a passivation that raced the end: stale snapshot, stale marker
			snap()
		case 1:
			passivate()
		case 2:
			rec.Type = TypeExecPrune
		case 3:
			node(TypeStepDone)
		case 4:
			start()
		case 5:
			rec.Type = TypeExecEnd
		}
	case idGone:
		switch action % 8 {
		case 0: // a stale snapshot roots the id again
			snap()
			p.state[i] = idLive
		case 1:
			passivate()
		case 2: // Engine.Prune tombstones an id compaction already dropped
			rec.Type = TypeExecPrune
		case 3:
			node(TypeStepDone)
		case 4: // the engine restarted, lost count and reuses the id
			start()
			p.state[i] = idLive
		case 5:
			rec.Type = TypeExecResurrect
		case 6:
			rec.Type = TypeExecEnd
		case 7:
			node(TypeDelegDone)
		}
	}
	return rec
}

func (p *replayProgram) compact() {
	p.t.Helper()
	if _, err := p.s.Compact(); err != nil {
		p.t.Fatalf("compact: %v", err)
	}
	for i, st := range p.state {
		if st == idTerminal {
			p.state[i] = idGone
		}
	}
}

func (p *replayProgram) run(prog []byte) {
	p.t.Helper()
	p.open()
	defer func() { p.s.Close() }()
	for len(prog) >= 2 {
		action, arg := prog[0], prog[1]
		prog = prog[2:]
		switch {
		case action >= 0xF8:
			p.compact()
		case action >= 0xF0:
			p.reopen(action&1 != 0, nil)
		case action >= 0xE0 && len(prog) >= 4:
			// One block, one fsync: the index takes the batch in order.
			batch := []Record{p.record(prog[0], arg), p.record(prog[1], prog[2]), p.record(prog[3], arg+1)}
			prog = prog[4:]
			if err := p.s.AppendBatch(batch); err != nil {
				p.t.Fatalf("append batch: %v", err)
			}
		default:
			// Waited and non-waited writes mixed, whatever the type: the
			// index must come out as if every record had been synced alone.
			rec, write := p.record(action, arg), p.s.Append
			if (action^arg)&1 != 0 {
				write = p.s.Write
			}
			if err := write(rec); err != nil {
				p.t.Fatalf("append %s %s: %v", rec.Type, rec.ID, err)
			}
		}
	}
	// The crash: whatever was appended last is followed by the front half
	// of one more record, in whichever encoding the tail segment has.
	tear := []byte(`{"type":"exec.end","id":"dgf-0000`)
	if p.binary {
		e := codec.GetEncoder()
		codec.AppendRecordFrame(e, &Record{Type: TypeExecEnd, ID: "dgf-000000", Err: "lost"})
		tear = append([]byte(nil), e.Bytes()[:e.Len()-3]...)
		codec.PutEncoder(e)
	}
	p.reopen(false, tear)
	if p.s.torn != 1 {
		p.t.Fatalf("torn tails counted: %d, want 1", p.s.torn)
	}
	p.reopen(false, nil) // the tear was truncated away: nothing torn now
	if p.s.torn != 0 {
		p.t.Fatalf("torn tail survived its repair: %d", p.s.torn)
	}
}

// FuzzReplayMatchesAppend: for any record stream — ids interleaved,
// waited appends beside writes that ride a later sync, rotation every few
// records, compactions and reopens at arbitrary points, either encoding
// or a directory that mixes them, a torn tail at the end — the index
// after reopening equals the index after appending. The seeds are replayed by every `go test`.
func FuzzReplayMatchesAppend(f *testing.F) {
	seeds := []string{
		// start, steps, end; a second flow abandoned mid-way
		"\x00\x00\x00\x00\x01\x08\x06\x00\x00\x01\x00\x09",
		// snapshot + passivate + resurrect, paused variants
		"\x00\x02\x00\x02\x03\x7a\x04\x42\x05\x02\x00\x1a\x03\xaa\x04\x02",
		// stale snapshot and marker after the end, then end→prune
		"\x00\x03\x00\x0b\x06\x03\x00\x2b\x01\x43\x02\x03",
		// prune without an end; straggling step after it
		"\x00\x04\x07\x04\x03\x0c",
		// compaction of live and passivated flows, more records on top, reopen
		"\x00\x00\x00\x01\x00\x08\x03\x39\x04\x01\xf8\x00\x00\x10\x05\x01\xf0\x00\x00\x18",
		// ended flow compacted away, rootless stragglers, second compaction
		"\x00\x05\x06\x05\xf8\x00\x01\x05\x02\x05\x03\x0d\xf1\x00\xf8\x00\x00\x05",
		// compacted-away flow whose stale snapshot becomes a root again
		"\x00\x06\x06\x06\xf8\x00\x00\x3e\x00\x0e\xf0\x00",
		// batches, encoding flips → mixed directory
		"\xe0\x00\x00\x00\x01\x00\xf1\x00\xe1\x01\x03\x03\x49\x06\xf1\x00\x00\x02\x00\x0a\xf9\x00\x00\x12",
		// an older snapshot carries the passivation marker, a newer one does not
		"\x00\x07\x03\xbf\x03\x07\x00\x0f\xf0\x00\x03\x47\x04\x07\x06\x07",
		// id reuse: ended, compacted away, a rootless prune, then a new start of the same id
		"\x00\x01\x00\x09\x06\x01\xf8\x00\x02\x01\x04\x01\x00\x11\xf0\x00\x00\x19",
		// the same behind a rootless passivate, step.done, end and resurrect
		"\x00\x02\x06\x02\xf8\x00\x01\x42\x03\x0a\x06\x02\x05\x02\x04\x02\x00\x12\xf1\x00",
		// rootless stragglers in an older segment than the start that reuses the id
		"\x00\x03\x06\x03\xf8\x00\x02\x03\x01\x43\x03\x0b\x07\x13\x02\x03\x01\x03\x04\x03\x03\x3b\x00\x03",
		// a stale start and a second end behind the end; a second start in mid-stream
		"\x00\x04\x08\x0c\x00\x04\x06\x04\x04\x04\x05\x04\x03\x7c\x02\x04",
	}
	for _, s := range seeds {
		f.Add([]byte(s), true)
		f.Add([]byte(s), false)
	}
	f.Fuzz(func(t *testing.T, prog []byte, binary bool) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		p := &replayProgram{t: t, dir: t.TempDir(), binary: binary}
		p.run(prog)
	})
}

// TestReplaySupersededRecordIsStillChecked: a complete frame that does
// not decode fails Open even when the execution it belongs to ended
// later, so the fold skips its content.
func TestReplaySupersededRecordIsStillChecked(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Binary: true})
	appendAll(t, s, lifecycle("dgf-000001")...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Point the first step.done's node at a symbol that was never defined.
	f0, _ := codec.NextFrame(data, 0)
	f1, err := codec.NextFrame(data, f0.End)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(data[f1.Body:f1.End]), "/f/a")
	if at < 2 {
		t.Fatalf("no inline node in frame 2: %q", data[f1.Body:f1.End])
	}
	bad := append([]byte(nil), data...)
	bad[f1.Body+at-2] = 0x7f // the symbol's 0 = "defined here" becomes reference 127
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Binary: true}); err == nil || !strings.Contains(err.Error(), "frame 2") {
		t.Fatalf("open over a corrupt superseded frame: %v, want an error naming frame 2", err)
	}
}

// TestSegmentSizeBoundsReplayBuffer: Open holds one segment in memory
// at a time, so what a segment can grow to is Open's transient peak. An
// appended-to segment stays within SegmentMaxBytes; only a single block
// larger than that exceeds it, alone in its segment.
func TestSegmentSizeBoundsReplayBuffer(t *testing.T) {
	const limit = 512
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Binary: true, SegmentMaxBytes: limit})
	for i := 0; i < 40; i++ {
		appendAll(t, s, lifecycle(fmt.Sprintf("dgf-%06d", i))...)
	}
	var big []Record
	for i := 0; i < 40; i++ {
		big = append(big, Record{Type: TypeStepDone, ID: "dgf-000000", Node: fmt.Sprintf("/f/n%d", i)})
	}
	if err := s.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, lifecycle("dgf-000099")...)
	records := s.Stats().Records
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	oversize := 0
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() <= limit {
			continue
		}
		oversize++
		data, _ := os.ReadFile(seg)
		frames := 0
		for off := 0; off < len(data); frames++ {
			f, err := codec.NextFrame(data, off)
			if err != nil {
				t.Fatal(err)
			}
			off = f.End
		}
		if frames != len(big) {
			t.Errorf("%s is %d bytes, over the %d-byte limit, and holds %d records: not the one oversize block", seg, fi.Size(), limit, frames)
		}
	}
	if len(segs) < 10 || oversize != 1 {
		t.Fatalf("%d segments, %d over the limit; want many and exactly the oversize block's", len(segs), oversize)
	}
	s = mustOpen(t, dir, Options{Binary: true, SegmentMaxBytes: limit})
	defer s.Close()
	if got := s.Stats().ReplayRecords; got != records {
		t.Fatalf("replayed %d of %d records", got, records)
	}
}

// TestTerminalEntryKeepsOnlyItsFlags: ending or pruning releases the
// request, variables and done set at once — on the append path, not
// only after a reopen — and a later prune still lands.
func TestTerminalEntryKeepsOnlyItsFlags(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Binary: true})
	defer s.Close()
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "dgf-000001", Request: "<r/>"},
		Record{Type: TypeExecSnap, ID: "dgf-000001", Request: "<r/>", Vars: map[string]string{"v": "1"}, Done: []string{"/f/a"}, Paused: true},
		Record{Type: TypeExecPassivate, ID: "dgf-000001", Paused: true},
		Record{Type: TypeExecEnd, ID: "dgf-000001"},
	)
	want := Entry{ID: "dgf-000001", Vars: map[string]string{}, Ended: true}
	if got, _ := s.Entry("dgf-000001"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ended entry = %+v, want %+v", got, want)
	}
	if st := s.Stats(); st.Passivated != 0 || st.Live != 0 {
		t.Fatalf("stats after the end = %+v", st)
	}
	appendAll(t, s, Record{Type: TypeExecPrune, ID: "dgf-000001"})
	want.Pruned = true
	if got, _ := s.Entry("dgf-000001"); !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned entry = %+v, want %+v", got, want)
	}
}

// TestOversizeRecordRefused: a record whose frame replay would reject
// is refused before anything is written, by an error that is the
// caller's (ErrInvalid) and leaves the store usable; the directory
// reopens.
func TestOversizeRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Binary: true})
	appendAll(t, s, Record{Type: TypeExecStart, ID: "dgf-000001", Request: "<r/>"})
	huge := Record{Type: TypeExecSnap, ID: "dgf-000001", Request: "<r/>",
		Vars: map[string]string{"blob": strings.Repeat("x", codec.MaxFrameBody)}}
	if err := s.Append(huge); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("oversize snapshot: %v, want ErrInvalid", err)
	}
	batch := []Record{{Type: TypeStepDone, ID: "dgf-000001", Node: "/f/a"}, huge}
	if err := s.AppendBatch(batch); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("batch holding an oversize record: %v, want ErrInvalid", err)
	}
	if st := s.Stats(); st.Failed != "" || st.Records != 1 {
		t.Fatalf("the refusals poisoned the store or wrote something: %+v", st)
	}
	appendAll(t, s, Record{Type: TypeStepDone, ID: "dgf-000001", Node: "/f/b"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{Binary: true})
	defer s.Close()
	if ent, _ := s.Entry("dgf-000001"); s.Stats().ReplayRecords != 2 || !reflect.DeepEqual(ent.Done, []string{"/f/b"}) {
		t.Fatalf("reopened: %d records, entry %+v", s.Stats().ReplayRecords, ent)
	}
}

// TestCompactRefusesOversizeMerge: two records under the limit can merge
// into a snapshot over it; Compact then fails without touching the
// segments or poisoning the store.
func TestCompactRefusesOversizeMerge(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Binary: true})
	defer s.Close()
	half := strings.Repeat("x", codec.MaxFrameBody/2)
	appendAll(t, s,
		Record{Type: TypeExecStart, ID: "dgf-000001", Request: half},
		Record{Type: TypeExecSnap, ID: "dgf-000001", Vars: map[string]string{"blob": half + half[:64]}},
	)
	if _, err := s.Compact(); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("compact: %v, want ErrInvalid", err)
	}
	if st := s.Stats(); st.Failed != "" || st.Records != 2 {
		t.Fatalf("after the refused compaction: %+v", st)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("left behind %v", tmps)
	}
	appendAll(t, s, Record{Type: TypeExecEnd, ID: "dgf-000001"})
	if _, err := s.Compact(); err != nil {
		t.Fatalf("compact once the flow ended: %v", err)
	}
}

// benchDirectory writes an uncompacted binary store in the shape of the
// contract benchmark's restart_recovery directory: of every ten flows,
// seven ran to their end, two were passivated behind a snapshot and one
// was abandoned two steps in. It returns how many records it wrote.
func benchDirectory(tb testing.TB, dir string, flows int) int {
	tb.Helper()
	s, err := Open(dir, Options{Binary: true})
	if err != nil {
		tb.Fatal(err)
	}
	req := string([]byte{codec.Magic, codec.Version, codec.MsgRequest}) + strings.Repeat("r", 400)
	n := 0
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("dgf-%06d", i+1)
		recs := []Record{
			{Type: TypeExecStart, ID: id, Request: req},
			{Type: TypeStepDone, ID: id, Node: "/rec/work0"},
			{Type: TypeStepDone, ID: id, Node: "/rec/work1"},
		}
		switch i % 10 {
		case 7, 8:
			recs = append(recs,
				Record{Type: TypeExecSnap, ID: id, Request: req, Vars: map[string]string{"note": "payload"}, Done: []string{"/rec/work0", "/rec/work1"}},
				Record{Type: TypeExecPassivate, ID: id})
		case 9:
		default:
			recs = append(recs,
				Record{Type: TypeStepDone, ID: id, Node: "/rec/tail0"},
				Record{Type: TypeStepDone, ID: id, Node: "/rec/tail1"},
				Record{Type: TypeExecEnd, ID: id})
		}
		if err := s.AppendBatch(recs); err != nil {
			tb.Fatal(err)
		}
		n += len(recs)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestReplayAllocs: a cold Open allocates for what is alive, not for
// what was written — under one allocation per replayed record on a
// directory where 70 % of the flows have ended (3.8 per record before
// the newest-first fold).
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	dir := t.TempDir()
	records := benchDirectory(t, dir, 1000)
	allocs := testing.AllocsPerRun(5, func() {
		s, err := Open(dir, Options{Binary: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.ReplayRecords != records || st.Live != 300 || st.Passivated != 200 {
			t.Fatalf("replayed into %+v", st)
		}
		s.Close()
	})
	perRecord := allocs / float64(records)
	t.Logf("%d records, %.0f allocations per Open+Close: %.2f per record", records, allocs, perRecord)
	if perRecord > 1 {
		t.Errorf("Open allocates %.2f times per replayed record, budget 1", perRecord)
	}
}

// BenchmarkStoreOpenUncompacted measures restart replay of the contract
// benchmark's kind of directory — mostly ended flows, never compacted.
// Run with -memprofilerate 1 for an exact allocation profile of Open.
func BenchmarkStoreOpenUncompacted(b *testing.B) {
	dir := b.TempDir()
	records := benchDirectory(b, dir, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Binary: true})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Stats().ReplayRecords; got != records {
			b.Fatalf("replayed %d of %d", got, records)
		}
		s.Close()
	}
}
