package store

import (
	"bytes"
	"fmt"
	"os"
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

// FuzzGroupFileMatchesWritePerBlock holds the GroupFile that keeps
// blocks in a tail until a flush to the one that wrote each block at
// WriteBlock (refGroupFile): for any sequence of WriteBlock,
// writeThrough, Sync of the newest or an older ticket, SyncSoon and
// Close, both hand out the same tickets, sizes and errors, and their
// files are byte for byte the same whenever the tail-keeping one has
// written everything — after a writeThrough, after a Sync of the newest
// ticket, and after Close. One op a byte: the low three bits pick it,
// the rest its argument. The seeds run with every go test.
func FuzzGroupFileMatchesWritePerBlock(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x03, 0x10, 0x04, 0x0b, 0x02, 0x05, 0x00, 0x03})
	f.Add([]byte{0x00, 0x00, 0x04, 0x02, 0x00, 0x1b, 0x03, 0x05, 0x05, 0x00, 0x03})
	f.Add([]byte{0x02, 0x02, 0x10, 0x02, 0x0b, 0x13, 0x04, 0x04, 0x00, 0x06})
	f.Fuzz(func(t *testing.T, prog []byte) {
		dir := t.TempDir()
		gPath, rPath := filepath.Join(dir, "g.log"), filepath.Join(dir, "ref.log")
		g, err := OpenGroupFile(gPath)
		if err != nil {
			t.Fatal(err)
		}
		r, err := openRefGroupFile(rPath)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		defer r.Close()
		sameFiles := func(after string) {
			t.Helper()
			got, err1 := os.ReadFile(gPath)
			want, err2 := os.ReadFile(rPath)
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("after %s: the file holds %d bytes, the reference %d (%v, %v)", after, len(got), len(want), err1, err2)
			}
		}
		sameErr := func(op string, eg, er error) {
			t.Helper()
			if (eg == nil) != (er == nil) {
				t.Fatalf("%s: %v, the reference %v", op, eg, er)
			}
		}
		records, newest := 0, int64(0)
		for _, op := range prog {
			arg := int(op >> 3)
			switch op & 7 {
			case 0, 1, 2: // write 1-3 records; 2 writes them through
				n := arg%3 + 1
				var block []byte
				for i := 0; i < n; i++ {
					block = append(block, testFrame(fmt.Sprintf("r%04d", records+i))...)
				}
				write, name := g.WriteBlock, "WriteBlock"
				if op&7 == 2 {
					write, name = g.writeThrough, "writeThrough"
				}
				gt, gerr := write(block, int64(n))
				rt, rerr := r.WriteBlock(block, int64(n))
				sameErr(name, gerr, rerr)
				if gt != rt {
					t.Fatalf("%s: ticket %d, the reference %d", name, gt, rt)
				}
				if gerr == nil {
					records += n
					newest = gt
					if op&7 == 2 {
						sameFiles(name)
					}
				}
			case 3, 4: // sync the newest ticket, or one arg older
				ticket := newest
				if op&7 == 4 {
					ticket = max(newest-int64(arg), 0)
				}
				gerr, rerr := g.Sync(ticket), r.Sync(ticket)
				sameErr("Sync", gerr, rerr)
				if gerr == nil && ticket == newest {
					sameFiles("Sync")
				}
			case 5:
				g.SyncSoon()
				r.SyncSoon()
			case 6:
				sameErr("Close", g.Close(), r.Close())
				sameFiles("Close")
			}
			if gs, rs := g.Size(), r.Size(); gs != rs {
				t.Fatalf("size %d, the reference %d", gs, rs)
			}
		}
		sameErr("Close", g.Close(), r.Close())
		sameFiles("the last Close")
	})
}

// TestGroupFileOrderIsTicketOrder: writers that wait, write through, or
// leave their blocks to the linger, all at once — the file holds every
// block once, in the order of the tickets WriteBlock handed out, however
// the flushes that carried them fell.
func TestGroupFileOrderIsTicketOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := OpenGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 40
	var mu sync.Mutex
	ticketOf := map[string]int64{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("w%02d-%03d", w, i)
				var ticket int64
				var err error
				switch (w + i) % 3 {
				case 0:
					if ticket, err = g.WriteBlock(testFrame(id), 1); err == nil {
						err = g.Sync(ticket)
					}
				case 1:
					ticket, err = g.writeThrough(testFrame(id), 1)
				default:
					ticket, err = g.WriteBlock(testFrame(id), 1)
					g.SyncSoon()
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ticketOf[id] = ticket
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	ids := readIDs(t, path)
	if len(ids) != writers*each {
		t.Fatalf("%d records in the file, want %d", len(ids), writers*each)
	}
	for i, id := range ids {
		if ticketOf[id] != int64(i+1) {
			t.Fatalf("record %d of the file is %s, whose ticket is %d", i+1, id, ticketOf[id])
		}
	}
}
