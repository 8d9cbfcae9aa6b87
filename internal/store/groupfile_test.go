package store

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/obs"
)

// testFrame encodes one record frame whose execution id is id.
func testFrame(id string) []byte {
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	codec.AppendRecordFrame(e, &Record{Type: TypeStepDone, ID: id})
	return slices.Clone(e.Bytes())
}

// writeSync writes one frame and waits until it is durable.
func writeSync(g *GroupFile, frame []byte) error {
	ticket, err := g.WriteBlock(frame, 1)
	if err != nil {
		return err
	}
	return g.Sync(ticket)
}

// readIDs reads the execution id of every frame in the file, in order.
func readIDs(t *testing.T, path string) []string {
	t.Helper()
	var ff FrameFile
	if torn, err := ff.Read(path, codec.MsgRecord, false); err != nil || torn {
		t.Fatalf("read %s: torn %v, %v", path, torn, err)
	}
	var v codec.RecordView
	out := make([]string, 0, len(ff.Frames))
	for _, f := range ff.Frames {
		if err := v.DecodeFields(ff.Buf, f.Body, f.End); err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, string(v.ID()))
	}
	return out
}

func TestGroupFileAppendDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := OpenGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var size int
	for i := 0; i < 3; i++ {
		f := testFrame(fmt.Sprintf("id-%d", i))
		size += len(f)
		if err := writeSync(g, f); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if got := g.Size(); got != int64(size) {
		t.Fatalf("size = %d, want %d", got, size)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ids := readIDs(t, path)
	if len(ids) != 3 || ids[0] != "id-0" || ids[2] != "id-2" {
		t.Fatalf("ids = %q", ids)
	}
	// Close is idempotent; writes after close fail.
	if err := g.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := g.WriteBlock(testFrame("x"), 1); err == nil {
		t.Fatal("write after close succeeded")
	}
}

// TestGroupFileGroupCommit drives many concurrent appenders through one
// GroupFile and checks (a) every record lands on disk and (b) the fsync
// count is below the append count — concurrent commits were batched.
func TestGroupFileGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := OpenGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.SetObs(reg)

	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := writeSync(g, testFrame(fmt.Sprintf("w%02d-%03d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("append: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	total := int64(writers * perWriter)
	ids := readIDs(t, path)
	if int64(len(ids)) != total {
		t.Fatalf("records on disk = %d, want %d", len(ids), total)
	}
	seen := make(map[string]bool, total)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate record %q", id)
		}
		seen[id] = true
	}
	commits := reg.Counter("journal_group_commits_total").Value()
	covered := reg.Counter("journal_group_commit_records_total").Value()
	if covered != total {
		t.Fatalf("covered records = %d, want %d", covered, total)
	}
	if commits < 1 || commits > total {
		t.Fatalf("commits = %d, outside [1, %d]", commits, total)
	}
	t.Logf("group commit: %d records in %d fsyncs (%.1f records/fsync)",
		total, commits, float64(covered)/float64(commits))
}

// TestGroupFileBatchedSync proves the batching contract deterministically:
// N writes followed by one Sync of the last ticket cost exactly one
// fsync, and earlier tickets are already covered.
func TestGroupFileBatchedSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := OpenGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reg := obs.NewRegistry()
	g.SetObs(reg)

	const n = 10
	tickets := make([]int64, n)
	for i := range tickets {
		tk, err := g.WriteBlock(testFrame(fmt.Sprintf("b-%d", i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	if err := g.Sync(tickets[n-1]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("journal_group_commits_total").Value(); got != 1 {
		t.Fatalf("commits after one sync = %d, want 1", got)
	}
	if got := reg.Counter("journal_group_commit_records_total").Value(); got != n {
		t.Fatalf("covered = %d, want %d", got, n)
	}
	// Earlier tickets ride the same commit: no further fsync.
	for _, tk := range tickets[:n-1] {
		if err := g.Sync(tk); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("journal_group_commits_total").Value(); got != 1 {
		t.Fatalf("commits after piggyback syncs = %d, want 1", got)
	}
}

func TestGroupFileCloseWakesWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := OpenGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := g.WriteBlock(testFrame("pending"), 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Sync(ticket) }()
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close performed the final sync covering the record, so the waiter
	// must come back nil.
	if err := <-done; err != nil {
		t.Fatalf("sync after close: %v", err)
	}
}
