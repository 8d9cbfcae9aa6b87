package matrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/vfs"
)

// newStoreEngine builds a test engine with a flow-state store attached
// over dir.
func newStoreEngine(t testing.TB, dir string) (*Engine, *store.Store) {
	t.Helper()
	e := newTestEngine(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e.SetStore(st)
	return e, st
}

// blockingOp registers op `name` on e: it counts runs per step and, for
// the step whose "i" parameter matches blockAt, parks on a channel
// until released (or the engine cancels it). It is the scaffolding for
// passivating an execution mid-flow at a known point.
type blockingOp struct {
	mu      sync.Mutex
	runs    map[string]int
	reached chan struct{} // closed when blockAt starts its first run
	release chan struct{}
	once    sync.Once
}

func registerBlockingOp(e *Engine, name, blockAt string) *blockingOp {
	b := &blockingOp{
		runs:    map[string]int{},
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	e.RegisterOp(name, func(c *OpContext) error {
		i := c.ParamOr("i", "")
		b.mu.Lock()
		b.runs[i]++
		first := b.runs[i] == 1
		b.mu.Unlock()
		if i == blockAt && first {
			b.once.Do(func() { close(b.reached) })
			select {
			case <-b.release:
			case <-c.Cancel:
				return ErrCancelled
			}
		}
		return nil
	})
	return b
}

func (b *blockingOp) count(i string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs[i]
}

// startFlow submits flow asynchronously and returns its execution.
func startFlow(t testing.TB, e *Engine, flow dgl.Flow) *Execution {
	t.Helper()
	resp, err := e.Submit(dgl.NewAsyncRequest("user", "", flow))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Error != "" || resp.Ack == nil {
		t.Fatalf("submit response = %+v", resp)
	}
	ex, ok := e.Execution(resp.Ack.ID)
	if !ok {
		t.Fatalf("no execution for ack %+v", resp.Ack)
	}
	return ex
}

func workFlow(name string, steps int) dgl.Flow {
	fb := dgl.NewFlow(name).Var("v", "init")
	for i := 0; i < steps; i++ {
		fb.Step(fmt.Sprintf("s%d", i), dgl.Op("work", map[string]string{"i": fmt.Sprint(i)}))
	}
	return fb.Flow()
}

// TestPassivateResurrectStatus passivates an execution blocked mid-step
// and resurrects it through the status-query path: same id, completed
// steps skipped, the interrupted step re-run (at-least-once), and the
// flow runs to completion.
func TestPassivateResurrectStatus(t *testing.T) {
	e, st := newStoreEngine(t, t.TempDir())
	b := registerBlockingOp(e, "work", "2")
	ex := startFlow(t, e, workFlow("long-job", 4))
	<-b.reached // s0, s1 done; s2 parked
	id := ex.ID

	if err := e.Passivate(id); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	if _, ok := e.Execution(id); ok {
		t.Fatal("passivated execution still resident")
	}
	ent, ok := st.Entry(id)
	if !ok || !ent.Passivated {
		t.Fatalf("store entry = %+v ok=%v", ent, ok)
	}
	if len(ent.Done) != 2 {
		t.Fatalf("snapshot done = %v, want s0+s1", ent.Done)
	}
	// The run goroutine unwound through cancellation without a terminal
	// record: waiting on the old handle reports the interruption, and
	// the store must NOT consider the flow ended.
	_ = ex.Wait()
	if ent, _ := st.Entry(id); ent.Ended {
		t.Fatal("passivation wrote a terminal record")
	}

	close(b.release)
	// A status query is a resurrection path. The test grid shares
	// obs.Default(), so assert on the counter's delta.
	status0 := e.Obs().Counter("store_resurrections_total", "path", "status").Value()
	if _, err := e.Status(id, false); err != nil {
		t.Fatalf("status of passivated flow: %v", err)
	}
	ex2, ok := e.Execution(id)
	if !ok {
		t.Fatal("resurrection did not register the execution")
	}
	if ex2.ID != id {
		t.Fatalf("resurrected id = %s, want %s", ex2.ID, id)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatalf("resurrected run: %v", err)
	}
	// s0, s1 ran once (then skipped); s2 ran twice (interrupted run +
	// re-run); s3 once.
	for i, want := range map[string]int{"0": 1, "1": 1, "2": 2, "3": 1} {
		if got := b.count(i); got != want {
			t.Errorf("s%s ran %d times, want %d", i, got, want)
		}
	}
	if got := e.Obs().Counter("store_resurrections_total", "path", "status").Value() - status0; got != 1 {
		t.Errorf("store_resurrections_total{path=status} delta = %d", got)
	}
	st2, _ := e.Status(id, true)
	if st2.State != string(StateSucceeded) {
		t.Errorf("final state = %s", st2.State)
	}
}

// TestPassivateResurrectTrigger passivates a paused flow and wakes it
// with the resumeFlow operation — the trigger action. The flow
// resurrects paused, is resumed, and completes.
func TestPassivateResurrectTrigger(t *testing.T) {
	e, st := newStoreEngine(t, t.TempDir())
	b := registerBlockingOp(e, "work", "1")
	ex := startFlow(t, e, workFlow("sleeper", 3))
	<-b.reached
	ex.Pause()
	id := ex.ID
	if err := e.Passivate(id); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	if ent, _ := st.Entry(id); !ent.Paused {
		t.Fatal("paused flag lost in passivation")
	}
	close(b.release)
	trigger0 := e.Obs().Counter("store_resurrections_total", "path", "trigger").Value()

	// A second flow fires the trigger action against the passivated id.
	wake := dgl.NewFlow("wake").
		Step("resume", dgl.Op(dgl.OpResumeFlow, map[string]string{
			"id": id, "resultVar": "woken",
		})).Flow()
	wex := startFlow(t, e, wake)
	if err := wex.Wait(); err != nil {
		t.Fatalf("wake flow: %v", err)
	}
	ex2, ok := e.Execution(id)
	if !ok {
		t.Fatal("trigger did not resurrect the flow")
	}
	if err := ex2.Wait(); err != nil {
		t.Fatalf("resurrected run: %v", err)
	}
	if got := e.Obs().Counter("store_resurrections_total", "path", "trigger").Value() - trigger0; got != 1 {
		t.Errorf("store_resurrections_total{path=trigger} delta = %d", got)
	}
}

// TestResurrectRestoresVariables passivates after a setVariable step
// mutated root-scope state and verifies the resurrected run sees the
// mutated value, not the declaration.
func TestResurrectRestoresVariables(t *testing.T) {
	e, st := newStoreEngine(t, t.TempDir())
	b := registerBlockingOp(e, "work", "0")
	var got string
	var mu sync.Mutex
	e.RegisterOp("observe", func(c *OpContext) error {
		mu.Lock()
		got = c.ParamOr("v", "")
		mu.Unlock()
		return nil
	})
	flow := dgl.NewFlow("vars").Var("v", "init").
		Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "v", "value": "mutated"})).
		Step("block", dgl.Op("work", map[string]string{"i": "0"})).
		Step("observe", dgl.Op("observe", map[string]string{"v": "$v"})).Flow()
	ex := startFlow(t, e, flow)
	<-b.reached
	if err := e.Passivate(ex.ID); err != nil {
		t.Fatal(err)
	}
	ent, _ := st.Entry(ex.ID)
	if ent.Vars["v"] != "mutated" {
		t.Fatalf("snapshot vars = %v", ent.Vars)
	}
	close(b.release)
	ex2, err := e.ResurrectFor(ex.ID, "status")
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != "mutated" {
		t.Errorf("resurrected run saw v=%q, want mutated", got)
	}
}

// TestPassivateIdle exercises the idle sweep: paused and parked flows
// passivate, terminal flows and flows with delegations in flight do
// not.
func TestPassivateIdle(t *testing.T) {
	e, _ := newStoreEngine(t, t.TempDir())
	b := registerBlockingOp(e, "work", "0")
	idleEx := startFlow(t, e, workFlow("idle", 2))
	<-b.reached
	doneEx := mustRun(t, e, dgl.NewFlow("done").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())

	if got := e.PassivateIdle(time.Hour); got != 0 {
		t.Fatalf("passivated %d flows under an hour of idleness", got)
	}
	if got := e.PassivateIdle(0); got != 1 {
		t.Fatalf("PassivateIdle(0) = %d, want 1", got)
	}
	if _, ok := e.Execution(idleEx.ID); ok {
		t.Error("idle flow still resident")
	}
	if _, ok := e.Execution(doneEx.ID); !ok {
		t.Error("terminal flow was passivated")
	}
	close(b.release)
	// Resurrect and drain so the goroutine finishes before teardown.
	ex2, err := e.ResurrectFor(idleEx.ID, "status")
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAllDirtyTracking verifies SnapshotAll only rewrites
// executions that progressed since their last snapshot.
func TestSnapshotAllDirtyTracking(t *testing.T) {
	e, st := newStoreEngine(t, t.TempDir())
	b := registerBlockingOp(e, "work", "2")
	ex := startFlow(t, e, workFlow("snap", 3))
	<-b.reached
	if got := e.SnapshotAll(); got != 1 {
		t.Fatalf("first SnapshotAll = %d, want 1", got)
	}
	if got := e.SnapshotAll(); got != 0 {
		t.Fatalf("second SnapshotAll = %d, want 0 (not dirty)", got)
	}
	ent, _ := st.Entry(ex.ID)
	if len(ent.Done) != 2 {
		t.Fatalf("snapshot done = %v", ent.Done)
	}
	close(b.release)
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// Terminal executions are skipped outright.
	if got := e.SnapshotAll(); got != 0 {
		t.Fatalf("SnapshotAll after completion = %d", got)
	}
}

// TestRecoverFromStore simulates a crash: engine 1 dies mid-flow with a
// snapshot on disk; engine 2 opens the same store and resumes the run
// under the SAME id, skipping completed steps, and mints non-colliding
// ids for fresh flows.
func TestRecoverFromStore(t *testing.T) {
	dir := t.TempDir()
	e1, st1 := newStoreEngine(t, dir)
	b1 := registerBlockingOp(e1, "work", "2")
	ex := startFlow(t, e1, workFlow("crashy", 4))
	<-b1.reached
	if n := e1.SnapshotAll(); n != 1 {
		t.Fatalf("SnapshotAll = %d, want 1", n)
	}
	id := ex.ID
	// "Crash": abandon engine 1, close its store handle.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	close(b1.release)

	e2, _ := newStoreEngine(t, dir)
	b2 := registerBlockingOp(e2, "work", "never")
	resumed, err := e2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID != id {
		t.Fatalf("resumed = %v, want [%s]", resumed, id)
	}
	if err := resumed[0].Wait(); err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	// s0, s1 were snapshot-complete: only s2, s3 re-ran here.
	if b2.count("0") != 0 || b2.count("1") != 0 || b2.count("2") != 1 || b2.count("3") != 1 {
		t.Errorf("recovered runs = %v", b2.runs)
	}
	// Fresh executions never collide with recovered ids.
	fresh := mustRun(t, e2, dgl.NewFlow("fresh").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	if fresh.ID == id {
		t.Fatalf("fresh execution reused recovered id %s", id)
	}
}

// TestRecoverFromStoreLeavesPassivated: a restart must NOT re-inflate
// passivated flows — bounding resident memory is the point of the
// store. They stay on disk and resurrect on demand.
func TestRecoverFromStoreLeavesPassivated(t *testing.T) {
	dir := t.TempDir()
	e1, st1 := newStoreEngine(t, dir)
	b1 := registerBlockingOp(e1, "work", "1")
	ex := startFlow(t, e1, workFlow("dormant", 3))
	<-b1.reached
	if err := e1.Passivate(ex.ID); err != nil {
		t.Fatal(err)
	}
	close(b1.release)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _ := newStoreEngine(t, dir)
	b2 := registerBlockingOp(e2, "work", "never")
	resumed, err := e2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Fatalf("restart re-inflated %d passivated flows", len(resumed))
	}
	if _, ok := e2.Execution(ex.ID); ok {
		t.Fatal("passivated flow resident after recovery")
	}
	// Still resurrectable on demand.
	ex2, err := e2.ResurrectFor(ex.ID, "status")
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	if b2.count("0") != 0 {
		t.Error("snapshot-complete step re-ran")
	}
}

// crashedStore leaves a store directory holding one flow a crash
// interrupted: running, not passivated, its first two steps done. It
// returns the directory and the flow's id.
func crashedStore(t *testing.T) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	e, st := newStoreEngine(t, dir)
	b := registerBlockingOp(e, "work", "2")
	ex := startFlow(t, e, workFlow("crashy", 4))
	<-b.reached
	if n := e.SnapshotAll(); n != 1 {
		t.Fatalf("SnapshotAll = %d, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(b.release)
	return dir, ex.ID
}

// TestResumeDoorsRecordAlike: the three doors that bring a stored
// execution back — restart recovery, resurrection and adoption from a
// replica — each leave one provenance record naming the door, its cause
// and the steps already done, and count themselves once; the same door
// taken again while the execution is resident records and counts
// nothing.
func TestResumeDoorsRecordAlike(t *testing.T) {
	for _, tc := range []struct {
		name, action string
		cause        provenance.Attr // the record's cause pair; recovery names none
		counter      []string        // the door's counter: name, then labels
		replica      bool            // the entries come from another store
		door         func(e *Engine, id string, entries []store.Entry) error
	}{
		{"recover", "flow.recover", provenance.Attr{},
			[]string{"matrix_recoveries_total"}, false,
			func(e *Engine, _ string, _ []store.Entry) error {
				_, err := e.RecoverFromStore()
				return err
			}},
		{"resurrect", "flow.resurrect", provenance.Attr{Key: "path", Value: "status"},
			[]string{"store_resurrections_total", "path", "status"}, false,
			func(e *Engine, id string, _ []store.Entry) error {
				_, err := e.ResurrectFor(id, "status")
				return err
			}},
		{"adopt", "flow.adopt", provenance.Attr{Key: "source", Value: "peerA"},
			[]string{"matrix_adoptions_total", "outcome", "resumed"}, true,
			func(e *Engine, _ string, entries []store.Entry) error {
				e.AdoptEntries(entries, "peerA")
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, id := crashedStore(t)
			var entries []store.Entry
			if tc.replica {
				src, err := store.Open(dir, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				entries = src.Running()
				if err := src.Close(); err != nil {
					t.Fatal(err)
				}
				dir = t.TempDir()
			}
			e, _ := newStoreEngine(t, dir)
			b := registerBlockingOp(e, "work", "2")
			counter := e.Obs().Counter(tc.counter[0], tc.counter[1:]...)
			before := counter.Value()

			if err := tc.door(e, id, entries); err != nil {
				t.Fatal(err)
			}
			<-b.reached // resumed, resident and re-running the step the crash cut
			if err := tc.door(e, id, entries); err != nil {
				t.Fatal(err)
			}

			recs := e.Grid().Provenance().Query(provenance.Filter{Action: tc.action, FlowID: id})
			if len(recs) != 1 {
				t.Fatalf("%s records = %+v, want exactly one", tc.action, recs)
			}
			want := provenance.Attrs{{Key: "steps-done", Value: "2"}}
			if tc.cause.Key != "" {
				want = append(want, tc.cause)
			}
			if got := recs[0].Detail; len(got) != len(want) {
				t.Errorf("%s detail = %v, want %v", tc.action, got, want)
			}
			for _, a := range want {
				if !slices.Contains(recs[0].Detail, a) {
					t.Errorf("%s detail = %v, want %s = %q", tc.action, recs[0].Detail, a.Key, a.Value)
				}
			}
			if got := counter.Value() - before; got != 1 {
				t.Errorf("%v delta = %v, want 1", tc.counter, got)
			}

			close(b.release)
			ex, ok := e.Execution(id)
			if !ok {
				t.Fatalf("%s not resident", id)
			}
			if err := ex.Wait(); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
		})
	}
}

// TestResurrectWritesNoSecondStart: a resumed flow's store entry holds
// its request already, so resurrecting a parked flow writes its
// exec.resurrect marker and no second exec.start. The store keeps one
// exec.start for the flow, and the tenant is charged for the marker
// alone until the resumed run does new work.
func TestResurrectWritesNoSecondStart(t *testing.T) {
	dir := t.TempDir()
	e, st := newStoreEngine(t, dir)
	gov := newCountingGovernor()
	e.SetGovernor(gov)
	reached := make(chan struct{}, 2)
	release := make(chan struct{})
	e.RegisterOp("work", func(c *OpContext) error {
		if c.ParamOr("i", "") != "0" {
			return nil
		}
		reached <- struct{}{}
		select {
		case <-release:
			return nil
		case <-c.Cancel:
			return ErrCancelled
		}
	})
	ex := startFlow(t, e, workFlow("parked", 2))
	<-reached // s0 running
	if err := e.Passivate(ex.ID); err != nil {
		t.Fatal(err)
	}
	_ = ex.Wait()

	_, _, before := gov.snapshot("user")
	ex2, err := e.ResurrectFor(ex.ID, "status")
	if err != nil {
		t.Fatal(err)
	}
	<-reached // the resumed run is back at s0: what it writes before its first step is written
	_, _, after := gov.snapshot("user")
	marker := recordCost(&store.Record{Type: store.TypeExecResurrect, ID: ex.ID})
	if got := after - before; got != marker {
		t.Errorf("resurrecting charged the tenant %d store bytes, want %d for the exec.resurrect marker alone", got, marker)
	}
	close(release)
	if err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := readSegments(t, dir)
	starts := 0
	for _, r := range recs {
		if r.ID == ex.ID && r.Type == store.TypeExecStart {
			starts++
		}
	}
	if starts != 1 {
		t.Errorf("the store holds %d exec.start records for %s, want 1", starts, ex.ID)
	}
}

// TestJournalCrashRecovery is the lifecycle log's acceptance test: an
// engine with a store dies mid-flow (a step blocks forever, the process
// is abandoned), a brand-new engine over the same store directory
// recovers the run, and across both processes every completed step
// executed exactly once — the log, not re-execution, supplies the steps
// the crashed process finished.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	const steps = 10

	var mu sync.Mutex
	runs := map[string]map[string]int{} // engine label -> step index -> runs
	entered := make(chan struct{})      // closed when the crashing step starts
	release := make(chan struct{})      // closed at cleanup to unstick it
	t.Cleanup(func() { close(release) })

	mkEngine := func(label string, crashAt string) (*Engine, *store.Store) {
		e, st := newStoreEngine(t, dir)
		runs[label] = map[string]int{}
		e.RegisterOp("work", func(c *OpContext) error {
			i := c.ParamOr("i", "")
			mu.Lock()
			runs[label][i]++
			mu.Unlock()
			if i == crashAt {
				close(entered)
				<-release // the "process" never comes back
				return errors.New("crashed")
			}
			return nil
		})
		return e, st
	}
	flowDoc := func() dgl.Flow {
		b := dgl.NewFlow("durable-job")
		for i := 0; i < steps; i++ {
			b.Step(fmt.Sprintf("s%d", i), dgl.Op("work", map[string]string{"i": fmt.Sprint(i)}))
		}
		return b.Flow()
	}

	// Process 1 blocks forever inside step 6; its store handle is closed
	// under it, as a crash would leave the directory.
	e1, st1 := mkEngine("p1", "6")
	ex, err := e1.Start("user", flowDoc())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("crashing step never started")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	if data, err := os.ReadFile(segs[0]); err != nil || !codec.IsBinary(data) {
		t.Fatalf("the log is not binary frames (%v)", err)
	}

	// Process 2: fresh engine, same directory.
	e2, _ := mkEngine("p2", "")
	recoveriesBefore := e2.Obs().Counter("matrix_recoveries_total").Value()
	recovered, err := e2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != ex.ID {
		t.Fatalf("recovered %v, want [%s]", recovered, ex.ID)
	}
	if err := recovered[0].Wait(); err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}

	// Steps 0-5 completed before the crash: skipped, never rerun. Step 6
	// crashed mid-flight: rerun. Steps 7-9: first (and only) run.
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < steps; i++ {
		k := fmt.Sprint(i)
		total := runs["p1"][k] + runs["p2"][k]
		switch {
		case i < 6:
			if runs["p1"][k] != 1 || runs["p2"][k] != 0 {
				t.Errorf("step %d: p1=%d p2=%d, want completed work done exactly once by p1",
					i, runs["p1"][k], runs["p2"][k])
			}
		case i == 6:
			if runs["p1"][k] != 1 || runs["p2"][k] != 1 {
				t.Errorf("step %d (crashed mid-flight): p1=%d p2=%d, want rerun by p2",
					i, runs["p1"][k], runs["p2"][k])
			}
		default:
			if total != 1 || runs["p2"][k] != 1 {
				t.Errorf("step %d: p1=%d p2=%d, want run once by p2", i, runs["p1"][k], runs["p2"][k])
			}
		}
	}

	// The recovery left an audit trail and counted itself. (The default
	// grid shares the process-wide registry, so assert the delta.)
	if got := e2.Obs().Counter("matrix_recoveries_total").Value() - recoveriesBefore; got != 1 {
		t.Errorf("matrix_recoveries_total delta = %v, want 1", got)
	}
	recs := e2.Grid().Provenance().Query(provenance.Filter{
		Action: "flow.recover", FlowID: recovered[0].ID,
	})
	if len(recs) != 1 {
		t.Errorf("flow.recover provenance = %+v", recs)
	}
	if st := recovered[0].Status(true); st.State != string(StateSucceeded) {
		t.Errorf("recovered state = %s", st.State)
	}
}

// TestJournalCompletedRunsNotRecovered: exec.end fences recovery — runs
// that finished (even unsuccessfully) are not resumed.
func TestJournalCompletedRunsNotRecovered(t *testing.T) {
	dir := t.TempDir()
	e, st := newStoreEngine(t, dir)
	e.RegisterOp("ok", func(*OpContext) error { return nil })
	e.RegisterOp("bad", func(*OpContext) error { return errors.New("no") })

	good, err := e.Run("user", dgl.NewFlow("good").Step("a", dgl.Op("ok", nil)).Flow())
	if err != nil || good.Wait() != nil {
		t.Fatalf("good run: %v", err)
	}
	bad, err := e.Run("user", dgl.NewFlow("bad").Step("a", dgl.Op("bad", nil)).Flow())
	if err != nil || bad.Wait() == nil {
		t.Fatalf("bad run should fail cleanly: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _ := newStoreEngine(t, dir)
	e2.RegisterOp("ok", func(*OpContext) error { return nil })
	e2.RegisterOp("bad", func(*OpContext) error { return nil })
	recovered, err := e2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Errorf("recovered %d terminal executions, want 0", len(recovered))
	}
}

// TestJournalSkipsPassivated: a restart leaves a passivated flow parked
// in the store rather than re-running it; once something resurrects it
// (exec.resurrect) and the process then dies, the next restart resumes
// it from where it was.
func TestJournalSkipsPassivated(t *testing.T) {
	dir := t.TempDir()
	e1, st1 := newStoreEngine(t, dir)
	b1 := registerBlockingOp(e1, "work", "1")
	ex := startFlow(t, e1, workFlow("parked", 3))
	<-b1.reached // s0 done; s1 parked
	if err := e1.Passivate(ex.ID); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2: the parked flow stays parked, until a status query
	// wakes it; it parks inside s1 again and the process dies.
	e2, st2 := newStoreEngine(t, dir)
	b2 := registerBlockingOp(e2, "work", "1")
	if recovered, err := e2.RecoverFromStore(); err != nil || len(recovered) != 0 {
		t.Fatalf("recovered %d passivated executions (%v), want 0", len(recovered), err)
	}
	if _, err := e2.ResurrectFor(ex.ID, "status"); err != nil {
		t.Fatal(err)
	}
	<-b2.reached
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	close(b2.release)

	// Process 3 resumes it: the resurrect marker made it running again.
	e3, _ := newStoreEngine(t, dir)
	b3 := registerBlockingOp(e3, "work", "never")
	recovered, err := e3.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != ex.ID {
		t.Fatalf("recovered %v, want the resurrected [%s]", recovered, ex.ID)
	}
	if err := recovered[0].Wait(); err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if b3.count("0") != 0 || b3.count("1") != 1 || b3.count("2") != 1 {
		t.Errorf("recovered runs = %v, want s1 and s2 once each", b3.runs)
	}
}

// TestRecoverFromStoreMissingDirectory: a store over a directory that
// does not exist yet is a fresh start — Open creates it and recovery
// resumes nothing — while an engine with no store at all is refused.
func TestRecoverFromStoreMissingDirectory(t *testing.T) {
	e, _ := newStoreEngine(t, filepath.Join(t.TempDir(), "nope"))
	if recovered, err := e.RecoverFromStore(); err != nil || len(recovered) != 0 {
		t.Errorf("recovery from a new directory = %d executions, %v", len(recovered), err)
	}
	if _, err := newTestEngine(t).RecoverFromStore(); !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("recovery without a store = %v, want ErrInvalid", err)
	}
}

// TestRecoverFromStoreBothRequestEncodings writes an abandoned run into
// a store by hand, its request an XML document (what a text client
// sends) or a binary one (what the engine writes), and recovers it.
func TestRecoverFromStoreBothRequestEncodings(t *testing.T) {
	b := dgl.NewFlow("abandoned")
	b.Step("s0", dgl.Op("work", map[string]string{"i": "0"}))
	b.Step("s1", dgl.Op("work", map[string]string{"i": "1"}))
	req := dgl.NewAsyncRequest("user", "", b.Flow())
	xmlDoc, err := dgl.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{"xml": string(xmlDoc), "binary": codec.RequestDoc(req)} {
		t.Run(name+" request", func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendBatch([]store.Record{
				{Type: store.TypeExecStart, ID: "dgf-dead", Request: doc},
				{Type: store.TypeStepDone, ID: "dgf-dead", Node: "/abandoned/s0"},
			}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			e, _ := newStoreEngine(t, dir)
			runs := countingOps(e)
			recovered, err := e.RecoverFromStore()
			if err != nil {
				t.Fatal(err)
			}
			if len(recovered) != 1 {
				t.Fatalf("recovered %d executions, want 1", len(recovered))
			}
			if err := recovered[0].Wait(); err != nil {
				t.Fatal(err)
			}
			if runs("work", "0") != 0 || runs("work", "1") != 1 {
				t.Errorf("recovered run: s0 ran %d times, s1 %d; want 0, 1", runs("work", "0"), runs("work", "1"))
			}
		})
	}
}

// TestPruneTombstoneNoResurrection is the prune regression: after
// Prune + Compact + reopen, pruned flows are gone for good — recovery
// does not resume them and no path resurrects them.
func TestPruneTombstoneNoResurrection(t *testing.T) {
	dir := t.TempDir()
	e1, st1 := newStoreEngine(t, dir)
	var ids []string
	for i := 0; i < 3; i++ {
		ex := mustRun(t, e1, dgl.NewFlow(fmt.Sprintf("job-%d", i)).
			Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
		ids = append(ids, ex.ID)
	}
	if got := e1.Prune(1); got != 2 {
		t.Fatalf("pruned %d, want 2", got)
	}
	for _, id := range ids[:2] {
		ent, ok := st1.Entry(id)
		if !ok || !ent.Pruned {
			t.Fatalf("no tombstone for %s: %+v ok=%v", id, ent, ok)
		}
	}
	if _, err := st1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, st2 := newStoreEngine(t, dir)
	resumed, err := e2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Fatalf("recovery resumed %d pruned/ended flows", len(resumed))
	}
	for _, id := range ids[:2] {
		if _, ok := st2.Entry(id); ok {
			t.Errorf("pruned flow %s survived compaction", id)
		}
		if _, err := e2.Status(id, false); !errors.Is(err, ErrNotFound) {
			t.Errorf("status of pruned flow %s = %v, want ErrNotFound", id, err)
		}
		if _, err := e2.ResurrectFor(id, "status"); !errors.Is(err, ErrNotFound) {
			t.Errorf("resurrect of pruned flow %s = %v, want ErrNotFound", id, err)
		}
	}
}

// TestRecoverAfterIDReuse: compaction drops ended flows from the store,
// so an engine restarted over it counts from what is left and hands an
// old id out again — behind whatever rootless records the old flow still
// left (here the tombstone of a Prune that ran after the compaction).
// Those precede the new flow's exec.start and say nothing about it: the
// next restart must find it running.
func TestRecoverAfterIDReuse(t *testing.T) {
	dir := t.TempDir()
	e1, st1 := newStoreEngine(t, dir)
	var ids []string
	for i := 0; i < 2; i++ {
		ex := mustRun(t, e1, dgl.NewFlow(fmt.Sprintf("job-%d", i)).
			Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
		ids = append(ids, ex.ID)
	}
	if _, err := st1.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := e1.Prune(0); got != 2 {
		t.Fatalf("pruned %d, want 2", got)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, st2 := newStoreEngine(t, dir)
	if resumed, err := e2.RecoverFromStore(); err != nil || len(resumed) != 0 {
		t.Fatalf("recovery over tombstones only: %v, %v", resumed, err)
	}
	b2 := registerBlockingOp(e2, "work", "1")
	ex := startFlow(t, e2, workFlow("second-life", 3))
	if ex.ID != ids[0] {
		t.Fatalf("new flow got %s; this test needs it to reuse %s", ex.ID, ids[0])
	}
	<-b2.reached
	if err := st2.Close(); err != nil { // the crash
		t.Fatal(err)
	}
	close(b2.release)

	e3, st3 := newStoreEngine(t, dir)
	b3 := registerBlockingOp(e3, "work", "never")
	resumed, err := e3.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID != ex.ID {
		ent, _ := st3.Entry(ex.ID)
		t.Fatalf("resumed = %v, want [%s]; store entry %+v", resumed, ex.ID, ent)
	}
	if err := resumed[0].Wait(); err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if b3.count("0") != 0 || b3.count("1") != 1 || b3.count("2") != 1 {
		t.Errorf("recovered runs = %v", b3.runs)
	}
}

// TestResurrectErrors pins the failure modes: unknown ids, ended ids
// and a detached store all answer ErrNotFound (or the invalid-config
// error), never a partial resurrection.
func TestResurrectErrors(t *testing.T) {
	e, _ := newStoreEngine(t, t.TempDir())
	if _, err := e.ResurrectFor("dgf-999999", "status"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: %v", err)
	}
	ex := mustRun(t, e, dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	// Ended flows are resident, so ResurrectFor just returns them...
	if got, err := e.ResurrectFor(ex.ID, "status"); err != nil || got != ex {
		t.Errorf("resident resurrect = %v, %v", got, err)
	}
	// ...but once pruned (tombstoned, non-resident) they are NotFound.
	e.Prune(0)
	if _, err := e.ResurrectFor(ex.ID, "status"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ended id: %v", err)
	}

	bare := newTestEngine(t)
	if err := bare.Passivate("x"); err == nil {
		t.Error("passivate without a store succeeded")
	}
	if _, err := bare.RecoverFromStore(); err == nil {
		t.Error("recovery without a store succeeded")
	}
	if got := bare.PassivateIdle(0); got != 0 {
		t.Errorf("PassivateIdle without store = %d", got)
	}
	if got := bare.SnapshotAll(); got != 0 {
		t.Errorf("SnapshotAll without store = %d", got)
	}
}

// newRealClockEngine builds a test engine on the wall clock — the
// test-engine default is a virtual clock, on which sleeps complete
// instantly and the interruptible-sleep path never engages.
func newRealClockEngine(t testing.TB) *Engine {
	t.Helper()
	g := dgms.New(dgms.Options{Clock: sim.RealClock{}})
	if err := g.RegisterResource(vfs.New("disk1", "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return NewEngine(g)
}

// TestInterruptibleSleep: a real-clock sleep unblocks promptly when the
// execution is cancelled — the mechanism that lets Passivate evict a
// flow parked in a long sleep.
func TestInterruptibleSleep(t *testing.T) {
	e := newRealClockEngine(t)
	flow := dgl.NewFlow("sleepy").
		Step("zzz", dgl.Op(dgl.OpSleep, map[string]string{"duration": "1h"})).Flow()
	ex := startFlow(t, e, flow)
	time.Sleep(20 * time.Millisecond) // let it enter the sleep
	start := time.Now()
	ex.Cancel()
	if err := ex.Wait(); err == nil {
		t.Fatal("cancelled sleep succeeded")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancel of a 1h sleep took %v", took)
	}
	st := ex.Status(true)
	if st.State != string(StateCancelled) {
		t.Errorf("state = %s, want cancelled", st.State)
	}
}

// TestPassivateSleepingFlow passivates a flow parked in a long
// real-clock sleep: the sleep interrupts, no terminal record is
// written, and resurrection re-enters the sleep step.
func TestPassivateSleepingFlow(t *testing.T) {
	e := newRealClockEngine(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e.SetStore(st)
	var mu sync.Mutex
	ran := 0
	e.RegisterOp("after", func(c *OpContext) error {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	flow := dgl.NewFlow("nap").
		Step("zzz", dgl.Op(dgl.OpSleep, map[string]string{"duration": "1h"})).
		Step("after", dgl.Op("after", nil)).Flow()
	ex := startFlow(t, e, flow)
	time.Sleep(20 * time.Millisecond)
	if err := e.Passivate(ex.ID); err != nil {
		t.Fatalf("passivate sleeping flow: %v", err)
	}
	_ = ex.Wait()
	ent, _ := st.Entry(ex.ID)
	if ent.Ended || !ent.Passivated {
		t.Fatalf("entry = %+v", ent)
	}
	mu.Lock()
	if ran != 0 {
		t.Fatal("post-sleep step ran")
	}
	mu.Unlock()
}

// sscanfExecSeq is execSeq as it was before it stopped formatting: the
// reference TestExecSeq holds the strconv version to.
func sscanfExecSeq(prefix, id string) (int64, bool) {
	rest := strings.TrimPrefix(id, prefix)
	if !strings.HasPrefix(rest, "dgf-") {
		return 0, false
	}
	var n int64
	if _, err := fmt.Sscanf(rest, "dgf-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

func TestExecSeq(t *testing.T) {
	for _, tc := range []struct {
		prefix, id string
		want       int64
		ok         bool
	}{
		{"", "dgf-000042", 42, true},
		{"peerA:", "peerA:dgf-000042", 42, true},
		{"peerA:", "dgf-000007", 7, true},        // an id minted before the peer had a name
		{"", "peerB:dgf-000042", 0, false},       // foreign prefix under an empty one
		{"peerA:", "peerB:dgf-000042", 0, false}, // an adopted execution keeps its owner's prefix
		{"", "dgf-", 0, false},                   // no digits
		{"", "dgf-x12", 0, false},
		{"", "dgf-12/flow/step", 12, true}, // trailing text
		{"", "dgf-000042abc", 42, true},
		{"", "dgf-0", 0, true},
		{"", "dgf-+5", 5, true},
		{"", "dgf--5", -5, true},
		{"", "dgf-+", 0, false},
		{"", "dgf-9223372036854775807", 9223372036854775807, true},
		{"", "dgf-9223372036854775808", 0, false}, // overflow
		{"", "dgf-99999999999999999999999", 0, false},
		{"", "xdgf-1", 0, false},
		{"", "", 0, false},
	} {
		got, ok := execSeq(tc.prefix, tc.id)
		if got != tc.want || ok != tc.ok {
			t.Errorf("execSeq(%q, %q) = %d, %v; want %d, %v", tc.prefix, tc.id, got, ok, tc.want, tc.ok)
		}
		if ref, refOK := sscanfExecSeq(tc.prefix, tc.id); ref != got || refOK != ok {
			t.Errorf("execSeq(%q, %q) = %d, %v; the Sscanf version says %d, %v", tc.prefix, tc.id, got, ok, ref, refOK)
		}
	}
}

// TestRecoverPastABadEntry: a stored flow that no longer validates — it
// names an operation the restarted engine does not register — sits
// between two abandoned flows. Recovery resumes both of them, leaves
// the bad one in the store, and reports it by id.
func TestRecoverPastABadEntry(t *testing.T) {
	dir := t.TempDir()
	e, st := newStoreEngine(t, dir)
	reached := make(chan struct{}, 3)
	e.RegisterOp("gate", func(c *OpContext) error {
		reached <- struct{}{}
		<-c.Cancel
		return ErrCancelled
	})
	e.RegisterOp("retired", func(*OpContext) error { return nil })
	gated := func(name string, tail string) *Execution {
		ex := startFlow(t, e, dgl.NewFlow(name).Step("g", dgl.Op("gate", nil)).Step("t", dgl.Op(tail, nil)).Flow())
		<-reached // its exec.start is on disk
		return ex
	}
	first, bad, last := gated("first", dgl.OpNoop), gated("bad", "retired"), gated("last", dgl.OpNoop)
	if err := st.Close(); err != nil { // the crash
		t.Fatal(err)
	}
	for _, ex := range []*Execution{first, bad, last} {
		ex.Cancel()
	}

	e2, st2 := newStoreEngine(t, dir)
	e2.RegisterOp("gate", func(*OpContext) error { return nil })
	resumed, err := e2.RecoverFromStore()
	if !errors.Is(err, dgl.ErrInvalid) || !strings.Contains(err.Error(), bad.ID) || strings.Contains(err.Error(), first.ID) {
		t.Fatalf("recovery error = %v, want an invalid-document error naming %s alone", err, bad.ID)
	}
	if len(resumed) != 2 || resumed[0].ID != first.ID || resumed[1].ID != last.ID {
		t.Fatalf("resumed %v, want %s and %s", resumed, first.ID, last.ID)
	}
	for _, ex := range resumed {
		if err := ex.Wait(); err != nil {
			t.Fatalf("resumed %s: %v", ex.ID, err)
		}
	}
	if ent, ok := st2.Entry(bad.ID); !ok || ent.Ended || ent.Passivated {
		t.Fatalf("the bad flow's entry = %+v, %v; want it left running in the store", ent, ok)
	}
}

// TestRecoverSkipsParkedEntries: recovery asks the store for the
// running entries only, resumes exactly those, and advances the id
// counter past every stored id — parked and ended ones included.
func TestRecoverSkipsParkedEntries(t *testing.T) {
	dir := t.TempDir()
	e, st := newStoreEngine(t, dir)
	b := registerBlockingOp(e, "work", "1")
	parked := startFlow(t, e, workFlow("parked", 3))
	<-b.reached
	if err := e.Passivate(parked.ID); err != nil {
		t.Fatal(err)
	}
	e.RegisterOp("gate", func(c *OpContext) error { <-c.Cancel; return ErrCancelled })
	open := startFlow(t, e, dgl.NewFlow("open").Step("g", dgl.Op("gate", nil)).Flow())
	ended := startFlow(t, e, dgl.NewFlow("ended").Step("n", dgl.Op(dgl.OpNoop, nil)).Flow())
	if err := ended.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // the crash
		t.Fatal(err)
	}
	open.Cancel()

	e2, st2 := newStoreEngine(t, dir)
	if running := st2.Running(); len(running) != 1 || running[0].ID != open.ID {
		t.Fatalf("running entries = %+v, want only %s", running, open.ID)
	}
	e2.RegisterOp("gate", func(*OpContext) error { return nil })
	resumed, err := e2.RecoverFromStore()
	if err != nil || len(resumed) != 1 || resumed[0].ID != open.ID {
		t.Fatalf("resumed %v, %v; want only %s", resumed, err, open.ID)
	}
	if err := resumed[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Passivated; got != 1 {
		t.Fatalf("%d passivated after recovery, want 1", got)
	}
	fresh := startFlow(t, e2, dgl.NewFlow("fresh").Step("n", dgl.Op(dgl.OpNoop, nil)).Flow())
	if n, _ := execSeq("", fresh.ID); n != 4 {
		t.Fatalf("first id after recovery is %s, want the fourth", fresh.ID)
	}
}
