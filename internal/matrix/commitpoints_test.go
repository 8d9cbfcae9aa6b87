package matrix

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datagridflow/internal/replica"
	"datagridflow/internal/store"
)

// tapFunc is a store.Tap that hands each batch to a function and waits
// for no follower.
type tapFunc func([]store.TapRecord)

func (f tapFunc) Replicate(batch []store.TapRecord) { f(batch) }

func (tapFunc) Await(uint64) {}

// TestCommitPointsPerFlow holds the engine to the durability budget of
// docs/STORE.md "Durability", as counts: a flow pays for its commit
// points, not for its records.
func TestCommitPointsPerFlow(t *testing.T) {
	// commits starts a count of group commits and the records they cover
	// (test engines share one registry, so counts are deltas).
	commits := func(e *Engine) func() (fsyncs, records int64) {
		c, r := e.Obs().Counter("journal_group_commits_total"), e.Obs().Counter("journal_group_commit_records_total")
		c0, r0 := c.Value(), r.Value()
		return func() (int64, int64) { return c.Value() - c0, r.Value() - r0 }
	}
	// tapped is an engine over a binary store whose tap counts batches.
	tapped := func(t *testing.T) (*Engine, *store.Store, *atomic.Int64) {
		e := newTestEngine(t)
		registerCountingOp(e)
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		batches := new(atomic.Int64)
		st.SetTap(tapFunc(func([]store.TapRecord) { batches.Add(1) }))
		e.SetStore(st)
		return e, st, batches
	}

	t.Run("lone flow: two commits, two tap batches", func(t *testing.T) {
		// The linger is armed by the flow's first step.done and cannot
		// fire sooner than store.Linger after it: a run that is over by
		// then saw no background sync, and its counts are exact.
		for try := 0; try < 50; try++ {
			e, st, batches := tapped(t)
			count := commits(e)
			start := time.Now()
			mustRun(t, e, crashFlow(0))
			if time.Since(start) >= store.Linger {
				continue
			}
			fsyncs, records := count()
			if fsyncs != 2 || records != crashSteps+2 || batches.Load() != 2 {
				t.Errorf("a %d-step flow paid %d group commits for %d records and %d tap batches; want 2, %d, 2",
					crashSteps, fsyncs, records, batches.Load(), crashSteps+2)
			}
			if ps := st.Stats(); ps.Pending != 0 || ps.Records != crashSteps+2 {
				t.Errorf("after the flow's reply: %+v", ps)
			}
			return
		}
		t.Skipf("no run in 50 finished inside the %v linger: this disk is too slow to count commits on", store.Linger)
	})

	t.Run("8 callers: at least 3 records per commit", func(t *testing.T) {
		e, _, _ := tapped(t)
		count := commits(e)
		const callers, each = 8, 40
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := e.Run("user", crashFlow(c)); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		fsyncs, records := count()
		if want := int64(callers * each * (crashSteps + 2)); records != want {
			t.Fatalf("%d records committed, want %d", records, want)
		}
		t.Logf("%d records in %d group commits: %.2f per commit", records, fsyncs, float64(records)/float64(fsyncs))
		if records < 3*fsyncs {
			t.Errorf("%d records in %d group commits: %.2f per commit, want at least 3",
				records, fsyncs, float64(records)/float64(fsyncs))
		}
	})

	t.Run("pruning N flows costs one sync", func(t *testing.T) {
		e, st, batches := tapped(t)
		const flows = 6
		for n := 0; n < flows; n++ {
			mustRun(t, e, crashFlow(n))
		}
		if err := st.Flush(); err != nil { // nothing of the flows themselves left to commit
			t.Fatal(err)
		}
		count, tapped := commits(e), batches.Load()
		if got := e.Prune(0); got != flows {
			t.Fatalf("pruned %d flows, want %d", got, flows)
		}
		fsyncs, records := count()
		if fsyncs != 1 || records != flows || batches.Load()-tapped != 1 {
			t.Errorf("pruning %d flows paid %d group commits for %d records and %d tap batches; want 1, %d, 1",
				flows, fsyncs, records, batches.Load()-tapped, flows)
		}
		for _, ent := range st.Live() {
			t.Errorf("%s is still live after the prune", ent.ID)
		}
	})

	t.Run("parked flow: earlier steps durable and replicated within the linger", func(t *testing.T) {
		recv, err := replica.NewReceiver(replica.ReceiverConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		e := newTestEngine(t)
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		sender := replica.NewSender(replica.SenderConfig{
			Source: "peerA", Mode: replica.ModeQuorum,
			Send: func(_ string, f replica.Frame) (replica.Ack, error) { return recv.Apply(f), nil },
		})
		defer sender.Close()
		sender.SetFollowers([]string{"peerB"})
		st.SetTap(sender)
		e.SetStore(st)
		b := registerBlockingOp(e, "work", "2")
		ex := startFlow(t, e, workFlow("long-job", 4))
		<-b.reached // s0 and s1 wrote their step.done; nothing else will write until s2 is released
		deadline := time.Now().Add(10 * store.Linger)
		for {
			ent, _ := st.Entry(ex.ID)
			var followerSeq uint64
			if src := recv.Sources(); len(src) == 1 {
				followerSeq = src[0].LastSeq
			}
			if len(ent.Done) == 2 && followerSeq == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("10×linger into a blocking step: owner's entry has %v done, follower is at seq %d; want 2 steps and seq 3",
					ent.Done, followerSeq)
			}
			time.Sleep(store.Linger / 5)
		}
		if ps := st.Stats(); ps.Pending != 0 {
			t.Errorf("records still pending with the flow parked: %+v", ps)
		}
		close(b.release)
		if err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}
