package matrix

import (
	"context"
	"errors"
	"sync"
	"testing"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
)

// countingGovernor is a FlowGovernor test double: it counts lifecycle
// calls and can refuse admission.
type countingGovernor struct {
	mu      sync.Mutex
	begins  map[string]int
	ends    map[string]int
	charged map[string]int64
	refuse  bool
}

func newCountingGovernor() *countingGovernor {
	return &countingGovernor{
		begins:  map[string]int{},
		ends:    map[string]int{},
		charged: map[string]int64{},
	}
}

func (g *countingGovernor) BeginFlow(user string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refuse {
		return dgferr.ErrQuota
	}
	g.begins[user]++
	return nil
}

func (g *countingGovernor) EndFlow(user string) {
	g.mu.Lock()
	g.ends[user]++
	g.mu.Unlock()
}

func (g *countingGovernor) ChargeStore(user string, n int64) {
	g.mu.Lock()
	g.charged[user] += n
	g.mu.Unlock()
}

func (g *countingGovernor) snapshot(user string) (begins, ends int, bytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.begins[user], g.ends[user], g.charged[user]
}

// TestGovernorBeginEndBalanced: every admitted flow charges exactly one
// BeginFlow and releases exactly one EndFlow at its terminal
// transition, whether it succeeds or is cancelled.
func TestGovernorBeginEndBalanced(t *testing.T) {
	e := newTestEngine(t)
	gov := newCountingGovernor()
	e.SetGovernor(gov)

	for i := 0; i < 3; i++ {
		mustRun(t, e, dgl.NewFlow("ok").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	}
	b := registerBlockingOp(e, "work", "0")
	ex := startFlow(t, e, workFlow("held", 1))
	<-b.reached
	ex.Cancel()
	_ = ex.Wait()

	begins, ends, _ := gov.snapshot("user")
	if begins != 4 || ends != 4 {
		t.Fatalf("begins/ends = %d/%d, want 4/4 (cancelled flows release too)", begins, ends)
	}
}

// TestGovernorRefusalCreatesNothing: a quota refusal surfaces as a
// typed error and leaves no execution behind — over-quota submissions
// must not leak engine state. Every door that begins a flow is refused
// alike: Submit, Launch, Start, Run, RunContext, Restart and
// RestartFromProvenance.
func TestGovernorRefusalCreatesNothing(t *testing.T) {
	e := newTestEngine(t)
	// The prior a restart re-runs fails before the governor is attached,
	// so nothing was charged for it.
	failed, err := e.Run("user", failingFlow("failed"))
	if err != nil || failed.Err() == nil {
		t.Fatalf("prior run: %v, %v; want a failed execution", err, failed)
	}
	before := len(e.Executions())
	gov := newCountingGovernor()
	gov.refuse = true
	e.SetGovernor(gov)

	_, err = e.Run("user", dgl.NewFlow("no").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	if !errors.Is(err, dgferr.ErrQuota) {
		t.Fatalf("refused run = %v, want typed ErrQuota", err)
	}
	resp, err := e.Submit(dgl.NewAsyncRequest("user", "", dgl.NewFlow("no").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()))
	if err == nil && (resp == nil || resp.Error == "") {
		t.Fatal("refused submit produced no error")
	}
	for _, door := range []struct {
		name string
		call func() error
	}{
		{"Launch", func() error {
			_, err := e.Launch(dgl.NewRequest("user", "", dgl.NewFlow("no").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()))
			return err
		}},
		{"Start", func() error {
			_, err := e.Start("user", dgl.NewFlow("no").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
			return err
		}},
		{"RunContext", func() error {
			_, err := e.RunContext(context.Background(), "user", dgl.NewFlow("no").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
			return err
		}},
		{"Restart", func() error { _, err := e.Restart(failed.ID); return err }},
		{"RestartFromProvenance", func() error {
			_, err := e.RestartFromProvenance(failed.ID, dgl.NewRequest("user", "", failingFlow("failed")))
			return err
		}},
	} {
		if err := door.call(); !errors.Is(err, dgferr.ErrQuota) {
			t.Errorf("refused %s = %v, want typed ErrQuota", door.name, err)
		}
	}
	if n := len(e.Executions()) - before; n != 0 {
		t.Fatalf("%d executions created by refused submissions", n)
	}
	if _, ends, _ := gov.snapshot("user"); ends != 0 {
		t.Fatalf("refusal released %d admissions it never charged", ends)
	}
}

// TestGovernorStoreCharges: with a store attached, the user's durable
// footprint accrues through ChargeStore as lifecycle records append.
func TestGovernorStoreCharges(t *testing.T) {
	e, _ := newStoreEngine(t, t.TempDir())
	gov := newCountingGovernor()
	e.SetGovernor(gov)

	mustRun(t, e, dgl.NewFlow("stored").Var("k", "value").
		Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	_, _, bytes := gov.snapshot("user")
	if bytes <= 0 {
		t.Fatalf("charged bytes = %d, want > 0", bytes)
	}
}

// TestGovernorPassivationReleases: passivating a flow out of memory
// releases its admission slot — a passivated flow is not in flight.
func TestGovernorPassivationReleases(t *testing.T) {
	e, _ := newStoreEngine(t, t.TempDir())
	gov := newCountingGovernor()
	e.SetGovernor(gov)

	b := registerBlockingOp(e, "work", "1")
	ex := startFlow(t, e, workFlow("idle-job", 3))
	<-b.reached
	if err := e.Passivate(ex.ID); err != nil {
		t.Fatal(err)
	}
	_ = ex.Wait()
	begins, ends, _ := gov.snapshot("user")
	if begins != 1 || ends != 1 {
		t.Fatalf("begins/ends = %d/%d after passivation, want 1/1", begins, ends)
	}
}
