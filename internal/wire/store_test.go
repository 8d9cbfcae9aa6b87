package wire

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/store"
)

// registerParkOp installs a "park" operation on e that blocks its first
// caller until release is closed (or the engine cancels it) — the hook
// for passivating an execution mid-flow.
func registerParkOp(e *matrix.Engine) (reached, release chan struct{}) {
	reached = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	e.RegisterOp("park", func(c *matrix.OpContext) error {
		once.Do(func() { close(reached) })
		select {
		case <-release:
			return nil
		case <-c.Cancel:
			return matrix.ErrCancelled
		}
	})
	return reached, release
}

func attachStore(t testing.TB, e *matrix.Engine) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e.SetStore(st)
	return st
}

// TestPoisonedStoreRefusesOverTheWire: a submission to a server whose
// store a full disk has poisoned is answered with a typed
// ErrResourceDown, sync or async, binary or XML — the server refuses to
// promise a flow it cannot record — while status keeps answering.
func TestPoisonedStoreRefusesOverTheWire(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	e := newEngine(t, "")
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentMaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e.SetStore(st)
	_, addr := startServer(t, e)
	c := dial(t, addr)
	flow := dgl.NewFlow("job").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	done, err := c.SubmitFlow("user", flow)
	if err != nil || done.Error != "" {
		t.Fatalf("submit before the disk filled: %+v, %v", done, err)
	}
	// The store rotates on every append: make the next segment a full
	// disk, and the next append poisons the store.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	var last int
	if _, err := fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "seg-%08d.log", &last); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(dir, fmt.Sprintf("seg-%08d.log", last+1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(store.Record{Type: store.TypeExecPrune, ID: "filler"}); err == nil || st.Stats().Failed == "" {
		t.Fatalf("append onto /dev/full: %v, stats %+v", err, st.Stats())
	}
	for _, bin := range []bool{true, false} {
		if !bin {
			c.DisableBinary()
		}
		for _, async := range []bool{false, true} {
			req := dgl.NewRequest("user", "", flow)
			req.Async = async
			res, err := c.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); !errors.Is(err, dgferr.ErrResourceDown) {
				t.Errorf("binary=%v async=%v: submit on a poisoned store = %+v (%v), want ErrResourceDown",
					bin, async, res.Response, err)
			}
		}
	}
	if st, err := c.Status("user", done.Status.ID, true); err != nil || st.State != "succeeded" {
		t.Errorf("status on a poisoned store: %+v, %v", st, err)
	}
}

func parkFlow(name string) dgl.Flow {
	return dgl.NewFlow(name).
		Step("before", dgl.Op(dgl.OpNoop, nil)).
		Step("park", dgl.Op("park", nil)).
		Step("after", dgl.Op(dgl.OpNoop, nil)).Flow()
}

func startParked(t *testing.T, e *matrix.Engine, reached chan struct{}) string {
	t.Helper()
	resp, err := e.Submit(dgl.NewAsyncRequest("user", "", parkFlow("long-run")))
	if err != nil || resp.Error != "" || resp.Ack == nil {
		t.Fatalf("submit: %v / %+v", err, resp)
	}
	<-reached
	return resp.Ack.ID
}

// TestControlStoreAndCompact exercises the "store" and "compact"
// control verbs end to end: stats reflect the engine's store, compact
// reports its run, and a store-less server answers with a clean error.
func TestControlStoreAndCompact(t *testing.T) {
	e := newEngine(t, "")
	st := attachStore(t, e)
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	flow := dgl.NewFlow("job").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	for i := 0; i < 3; i++ {
		if resp, err := c.SubmitFlow("user", flow); err != nil || resp.Error != "" {
			t.Fatalf("submit: %v / %+v", err, resp)
		}
	}
	info, err := c.StoreStats()
	if err != nil {
		t.Fatalf("store stats: %v", err)
	}
	want := st.Stats()
	if info.Segments != want.Segments || info.Records != want.Records {
		t.Fatalf("wire store info %+v vs local stats %+v", info, want)
	}
	if info.Resident != len(e.Executions()) {
		t.Errorf("resident = %d, engine has %d", info.Resident, len(e.Executions()))
	}
	if info.Compaction != nil {
		t.Error("plain store verb carried compaction info")
	}

	// The three flows ended: compaction drops all their records.
	info, err = c.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if info.Compaction == nil || info.Compaction.RecordsKept != 0 {
		t.Fatalf("compaction info = %+v", info.Compaction)
	}
	if info.Segments != 1 || info.Records != 0 {
		t.Fatalf("post-compact info = %+v", info)
	}

	// A server without a store answers the verbs with an error, not a
	// dropped connection.
	bare := newEngine(t, "bare:")
	_, bareAddr := startServer(t, bare)
	bc, err := Dial(bareAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.StoreStats(); err == nil || !strings.Contains(err.Error(), "store") {
		t.Errorf("store verb without store: %v", err)
	}
	if _, err := bc.Compact(); err == nil {
		t.Errorf("compact verb without store: %v", err)
	}
}

// TestResurrectOnWireControl passivates an execution and drives it back
// through the wire layer: a control verb addressed to the passivated id
// resurrects it transparently (the "wire" resurrection path).
func TestResurrectOnWireControl(t *testing.T) {
	e := newEngine(t, "")
	attachStore(t, e)
	reached, release := registerParkOp(e)
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The test engine's grid shares obs.Default(), so assert on the
	// counter's delta, not its absolute value.
	wire0 := e.Obs().Counter("store_resurrections_total", "path", "wire").Value()
	id := startParked(t, e, reached)
	ex, _ := e.Execution(id)
	ex.Pause()
	if err := e.Passivate(id); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	if _, ok := e.Execution(id); ok {
		t.Fatal("still resident")
	}
	close(release)

	// Resume over the wire: the server finds no resident execution and
	// resurrects from the store before applying the verb.
	if err := c.Resume(id); err != nil {
		t.Fatalf("resume over wire: %v", err)
	}
	ex2, ok := e.Execution(id)
	if !ok {
		t.Fatal("wire control did not resurrect the execution")
	}
	if err := ex2.Wait(); err != nil {
		t.Fatalf("resurrected run: %v", err)
	}
	if got := e.Obs().Counter("store_resurrections_total", "path", "wire").Value() - wire0; got != 1 {
		t.Errorf("store_resurrections_total{path=wire} delta = %d", got)
	}
	// Unknown ids still answer not-found, passivation or not.
	if err := c.Resume("dgf-999999"); err == nil {
		t.Error("resume of unknown id succeeded")
	}
}

// TestPeerStatusResurrectsFederation routes a status query from peer A
// to the passivated flow's owner B: B resurrects it under the
// "federation" label before answering.
func TestPeerStatusResurrectsFederation(t *testing.T) {
	_, lookupAddr := startLookup(t)
	peerA := NewPeer("fedA", newEngine(t, "fedA:"))
	if _, err := peerA.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerA.Close()
	engineB := newEngine(t, "fedB:")
	attachStore(t, engineB)
	reached, release := registerParkOp(engineB)
	peerB := NewPeer("fedB", engineB)
	if _, err := peerB.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerB.Close()

	fed0 := engineB.Obs().Counter("store_resurrections_total", "path", "federation").Value()
	id := startParked(t, engineB, reached)
	if err := engineB.Passivate(id); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	close(release)

	// A client of A asks after B's flow; the lookup routes the query to
	// B, whose local branch resurrects before answering.
	st, err := dial(t, peerA.Addr()).Status("user", id, false)
	if err != nil {
		t.Fatalf("routed status: %v", err)
	}
	if st == nil || st.State == "" {
		t.Fatalf("status = %+v", st)
	}
	if got := engineB.Obs().Counter("store_resurrections_total", "path", "federation").Value() - fed0; got != 1 {
		t.Errorf("store_resurrections_total{path=federation} delta = %d", got)
	}
	ex, ok := engineB.Execution(id)
	if !ok {
		t.Fatal("owner did not resurrect the flow")
	}
	if err := ex.Wait(); err != nil {
		t.Fatalf("resurrected run: %v", err)
	}
}
