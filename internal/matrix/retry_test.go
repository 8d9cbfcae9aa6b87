package matrix

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
)

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
