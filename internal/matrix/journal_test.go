package matrix

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/provenance"
)

// TestJournalCrashRecovery is the subsystem's acceptance test: a
// journaled engine dies mid-flow (a step blocks forever, the process is
// abandoned), a brand-new engine pointed at the same journal file
// recovers the run, and across both processes every completed step
// executed exactly once — the journal, not re-execution, supplies steps
// the crashed process finished.
func TestJournalCrashRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "exec.journal")
	const steps = 10

	var mu sync.Mutex
	runs := map[string]map[string]int{} // engine label -> step index -> runs
	entered := make(chan struct{})      // closed when the crashing step starts
	release := make(chan struct{})      // closed at cleanup to unstick it
	t.Cleanup(func() { close(release) })

	mkEngine := func(label string, crashAt string) *Engine {
		e := newTestEngine(t)
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
		return e
	}
	flowDoc := func() dgl.Flow {
		b := dgl.NewFlow("durable-job")
		for i := 0; i < steps; i++ {
			b.Step(fmt.Sprintf("s%d", i), dgl.Op("work", map[string]string{"i": fmt.Sprint(i)}))
		}
		return b.Flow()
	}

	// Process 1: journaled, blocks forever inside step 6.
	e1 := mkEngine("p1", "6")
	j1, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	e1.SetJournal(j1)
	if _, err := e1.Start("user", flowDoc()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("crashing step never started")
	}

	// Process 2: fresh engine, same journal file.
	e2 := mkEngine("p2", "")
	recoveriesBefore := e2.Obs().Counter("matrix_recoveries_total").Value()
	recovered, err := e2.RecoverFromJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d executions, want 1", len(recovered))
	}
	if err := recovered[0].Wait(); err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}

	// Steps 0-5 completed before the crash: journal-skipped, never rerun.
	// Step 6 crashed mid-flight: rerun. Steps 7-9: first (and only) run.
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
	// Skipped steps are visible in the recovered run's status.
	st := recovered[0].Status(true)
	if st.State != string(StateSucceeded) {
		t.Errorf("recovered state = %s", st.State)
	}
}

// TestJournalCompletedRunsNotRecovered: exec.end fences recovery — runs
// that finished (even unsuccessfully) are not replayed.
func TestJournalCompletedRunsNotRecovered(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "exec.journal")
	e := newTestEngine(t)
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e.SetJournal(j)
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

	e2 := newTestEngine(t)
	e2.RegisterOp("ok", func(*OpContext) error { return nil })
	e2.RegisterOp("bad", func(*OpContext) error { return nil })
	recovered, err := e2.RecoverFromJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Errorf("recovered %d terminal executions, want 0", len(recovered))
	}
}

// TestJournalSkipsPassivated: passivating a flow mirrors an
// exec.passivate marker into the flat journal, so a journal-only
// recovery does not re-run the parked flow from scratch under a fresh
// id — it lives in the flow-state store until something resurrects it.
// A later exec.resurrect marker (flow back in memory, then the process
// dies) restores journal eligibility.
func TestJournalSkipsPassivated(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "exec.journal")
	e, st := newStoreEngine(t, t.TempDir())
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	e.SetJournal(j)
	b := registerBlockingOp(e, "work", "1")
	ex := startFlow(t, e, workFlow("parked", 3))
	<-b.reached // s0 done; s1 parked
	if err := e.Passivate(ex.ID); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if ent, ok := st.Entry(ex.ID); !ok || !ent.Passivated {
		t.Fatalf("store entry = %+v ok=%v", ent, ok)
	}

	// "Process 2" with only the journal: the parked flow must not come
	// back as a fresh run with duplicated side effects.
	e2 := newTestEngine(t)
	e2.RegisterOp("work", func(*OpContext) error { return nil })
	recovered, err := e2.RecoverFromJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %d passivated executions, want 0", len(recovered))
	}

	// Append a resurrect marker — the flow was resident again when the
	// process died — and recovery picks it up once more.
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.append(journalRecord{Type: journalExecResurrect, ID: ex.ID}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := newTestEngine(t)
	e3.RegisterOp("work", func(*OpContext) error { return nil })
	recovered, err = e3.RecoverFromJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d resurrected executions, want 1", len(recovered))
	}
	if err := recovered[0].Wait(); err != nil {
		t.Fatalf("recovered run: %v", err)
	}
}

func TestRecoverFromJournalMissingFile(t *testing.T) {
	e := newTestEngine(t)
	_, err := e.RecoverFromJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if !errors.Is(err, dgferr.ErrNotFound) {
		t.Errorf("missing journal = %v, want ErrNotFound", err)
	}
}

func TestWaitContext(t *testing.T) {
	e := newTestEngine(t)
	release := make(chan struct{})
	e.RegisterOp("hang", func(*OpContext) error { <-release; return nil })
	ex, err := e.Start("user", dgl.NewFlow("slow").Step("h", dgl.Op("hang", nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled context returns promptly with the cancelled class, while
	// the execution itself keeps running.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := ex.WaitContext(ctx); !errors.Is(err, dgferr.ErrCancelled) {
		t.Errorf("WaitContext(cancelled) = %v, want ErrCancelled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("WaitContext did not return promptly")
	}
	// A live context waits for the result.
	close(release)
	if err := ex.WaitContext(context.Background()); err != nil {
		t.Errorf("WaitContext after completion = %v", err)
	}
}

func TestRetryDelaySchedule(t *testing.T) {
	timing := dgl.RetryTiming{Backoff: 2 * time.Second, MaxBackoff: time.Minute}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := retryDelay(timing, "/flow/step", attempt)
		base := 2 * time.Second << (attempt - 1)
		if base > time.Minute {
			base = time.Minute
		}
		if d < base || d >= base+base/4+time.Nanosecond {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, base, base+base/4)
		}
		if attempt > 1 && attempt < 6 && d <= prev {
			t.Errorf("attempt %d: delay %v did not grow from %v", attempt, d, prev)
		}
		prev = d
		// Deterministic: same inputs, same jitter.
		if again := retryDelay(timing, "/flow/step", attempt); again != d {
			t.Errorf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d, again)
		}
	}
	if d := retryDelay(dgl.RetryTiming{}, "/flow/step", 3); d != 0 {
		t.Errorf("no backoff configured: delay = %v, want 0", d)
	}
}

// TestRetryFatalClassification: a fatal-class failure must not burn the
// retry budget even under onError=retry.
func TestRetryFatalClassification(t *testing.T) {
	e := newTestEngine(t)
	calls := 0
	e.RegisterOp("denied", func(*OpContext) error {
		calls++
		return fmt.Errorf("op: %w", dgferr.ErrPermission)
	})
	st := dgl.Step{
		Name: "s", OnError: dgl.OnErrorRetry, Retries: 5,
		Operation: dgl.Op("denied", nil),
	}
	ex, err := e.Run("user", dgl.NewFlow("f").StepWith(st).Flow())
	if err != nil {
		t.Fatal(err)
	}
	runErr := ex.Wait()
	if runErr == nil {
		t.Fatal("flow succeeded")
	}
	if calls != 1 {
		t.Errorf("fatal error retried: %d calls, want 1", calls)
	}
	if errors.Is(runErr, dgferr.ErrRetryExhausted) {
		t.Errorf("fatal failure wrongly classified as retry exhaustion: %v", runErr)
	}
	if !errors.Is(runErr, dgferr.ErrPermission) {
		t.Errorf("flow error lost its class: %v", runErr)
	}
}

// TestRetryExhaustionTyped: burning the whole budget on a transient
// class yields ErrRetryExhausted wrapping the final cause.
func TestRetryExhaustionTyped(t *testing.T) {
	e := newTestEngine(t)
	calls := 0
	e.RegisterOp("flaky", func(*OpContext) error {
		calls++
		return fmt.Errorf("op: %w", dgferr.ErrResourceDown)
	})
	st := dgl.Step{
		Name: "s", OnError: dgl.OnErrorRetry, Retries: 3,
		Operation: dgl.Op("flaky", nil),
	}
	ex, err := e.Run("user", dgl.NewFlow("f").StepWith(st).Flow())
	if err != nil {
		t.Fatal(err)
	}
	runErr := ex.Wait()
	if calls != 4 { // initial attempt + 3 retries
		t.Errorf("attempts = %d, want 4", calls)
	}
	if !errors.Is(runErr, dgferr.ErrRetryExhausted) {
		t.Errorf("errors.Is(err, ErrRetryExhausted) = false: %v", runErr)
	}
	if !errors.Is(runErr, dgferr.ErrResourceDown) {
		t.Errorf("exhaustion hides the cause: %v", runErr)
	}
	if got := e.Obs().Counter("retry_exhausted_total", "op", "flaky").Value(); got < 1 {
		t.Errorf("retry_exhausted_total = %v", got)
	}
}

// TestStepTimeout: a step whose virtual elapsed time exceeds its declared
// timeout fails with the (retryable) timeout class.
func TestStepTimeout(t *testing.T) {
	e := newTestEngine(t)
	e.RegisterOp("slow", func(c *OpContext) error {
		c.Engine.Clock().Sleep(10 * time.Second)
		return nil
	})
	st := dgl.Step{
		Name: "s", Timeout: "5s",
		Operation: dgl.Op("slow", nil),
	}
	before := e.Obs().Counter("matrix_step_timeouts_total", "op", "slow").Value()
	ex, err := e.Run("user", dgl.NewFlow("f").StepWith(st).Flow())
	if err != nil {
		t.Fatal(err)
	}
	runErr := ex.Wait()
	if !errors.Is(runErr, dgferr.ErrTimeout) {
		t.Errorf("overrun = %v, want ErrTimeout", runErr)
	}
	if got := e.Obs().Counter("matrix_step_timeouts_total", "op", "slow").Value() - before; got != 1 {
		t.Errorf("matrix_step_timeouts_total delta = %v", got)
	}
}
