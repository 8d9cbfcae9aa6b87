package matrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/store"
)

// poisonedStore opens a store that rotates on every append, so the
// returned poison can break it the way a full disk does: it makes the
// next segment /dev/full, and the append that rotates into it fails with
// ENOSPC and poisons the store.
func poisonedStore(t testing.TB) (st *store.Store, poison func()) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentMaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, func() {
		t.Helper()
		fillDisk(t, st)
	}
}

// fillDisk points the store's next segment at /dev/full and appends
// until the store is poisoned. The store must rotate on every append
// (SegmentMaxBytes 1).
func fillDisk(t testing.TB, st *store.Store) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(st.Dir(), "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", st.Dir(), err)
	}
	var last int
	if _, err := fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "seg-%08d.log", &last); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(st.Dir(), fmt.Sprintf("seg-%08d.log", last+1))); err != nil {
		t.Fatal(err)
	}
	// The first append lands in the active segment if it is empty; the
	// second rotates onto the full disk either way.
	for i := 0; i < 2 && st.Stats().Failed == ""; i++ {
		_ = st.Append(store.Record{Type: store.TypeExecPrune, ID: "filler"})
	}
	if st.Stats().Failed == "" {
		t.Fatal("appends onto /dev/full did not poison the store")
	}
}

// TestPoisonedStoreRefusesSubmissions: once a write failure has poisoned
// the engine's store, the engine makes no promise it cannot record — an
// async or sync submit, Start and Run are refused with a typed
// ErrResourceDown and no execution is made — while the flow already
// running keeps running to its end and status keeps answering.
func TestPoisonedStoreRefusesSubmissions(t *testing.T) {
	e := newTestEngine(t)
	st, poison := poisonedStore(t)
	e.SetStore(st)
	b := registerBlockingOp(e, "work", "1")
	running := startFlow(t, e, workFlow("before", 3))
	<-b.reached
	poison()

	before := len(e.Executions())
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, dgferr.ErrResourceDown) {
			t.Errorf("%s on a poisoned store: %v, want ErrResourceDown", what, err)
		}
	}
	_, err := e.Submit(dgl.NewAsyncRequest("user", "", workFlow("async", 1)))
	refused("async Submit", err)
	_, err = e.Submit(dgl.NewRequest("user", "", workFlow("sync", 1)))
	refused("sync Submit", err)
	_, err = e.Start("user", workFlow("start", 1))
	refused("Start", err)
	_, err = e.Run("user", workFlow("run", 1))
	refused("Run", err)
	if n := len(e.Executions()); n != before {
		t.Errorf("refused submissions left %d executions behind", n-before)
	}

	if st, err := e.Status(running.ID, true); err != nil || st.State != string(StateRunning) {
		t.Errorf("status of the running flow: %+v, %v", st, err)
	}
	close(b.release)
	if err := running.Wait(); err != nil {
		t.Errorf("the flow accepted before the failure did not finish: %v", err)
	}
}
