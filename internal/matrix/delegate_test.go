package matrix

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/provenance"
	"datagridflow/internal/store"
)

// fakeDelegator runs every offered subflow on its own engine (standing
// in for a remote peer) and records what it was offered.
type fakeDelegator struct {
	t      *testing.T
	remote *Engine // "peer B"
	peer   string

	mu      sync.Mutex
	offered []DelegateRequest
	decline bool  // answer ErrDelegateLocal
	fail    error // machinery failure to return
}

func (f *fakeDelegator) Delegate(ctx context.Context, req DelegateRequest) (*DelegateResponse, error) {
	f.mu.Lock()
	f.offered = append(f.offered, req)
	decline, failErr := f.decline, f.fail
	f.mu.Unlock()
	if decline {
		return nil, ErrDelegateLocal
	}
	if failErr != nil {
		return nil, failErr
	}
	ex, err := f.remote.Start(req.User, req.Flow)
	if err != nil {
		return nil, err
	}
	werr := ex.Wait()
	st := ex.Status(true)
	return &DelegateResponse{Peer: f.peer, RemoteID: ex.ID, Status: &st, Err: werr}, nil
}

func (f *fakeDelegator) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.offered)
}

func newRemoteEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(t)
	// Distinguish remote execution ids.
	e.cfg.IDPrefix = "peerB:"
	return e
}

func parallelSubflows(n int) dgl.Flow {
	b := dgl.NewFlow("parent").Parallel()
	for i := 0; i < n; i++ {
		b.SubFlow(dgl.NewFlow(fmt.Sprintf("sub-%d", i)).
			Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{
				"name": fmt.Sprintf("v%d", i), "value": "done",
			})))
	}
	return b.Flow()
}

func TestDelegateParallelSubflows(t *testing.T) {
	local := newTestEngine(t)
	fake := &fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB"}
	local.SetDelegator(fake)

	ex := mustRun(t, local, parallelSubflows(3))
	if fake.count() != 3 {
		t.Fatalf("offered %d subflows, want 3", fake.count())
	}
	// Status: each delegated child carries the remote execution id and
	// the grafted remote subtree.
	st := ex.Status(true)
	if len(st.Children) != 3 {
		t.Fatalf("children = %d", len(st.Children))
	}
	for _, ch := range st.Children {
		if !strings.HasPrefix(ch.Delegated, "peerB:") {
			t.Errorf("child %s Delegated = %q", ch.Name, ch.Delegated)
		}
		if ch.State != "succeeded" {
			t.Errorf("child %s state = %s", ch.Name, ch.State)
		}
		if len(ch.Children) == 0 || !strings.HasPrefix(ch.Children[0].ID, "peerB:") {
			t.Errorf("child %s remote subtree not grafted: %+v", ch.Name, ch.Children)
		}
	}
	// Provenance joins the hand-off on the delegating side.
	pr := local.Grid().Provenance()
	if n := pr.Count(provenance.Filter{Action: "deleg.start"}); n != 3 {
		t.Errorf("deleg.start records = %d", n)
	}
	if n := pr.Count(provenance.Filter{Action: "deleg.finish"}); n != 3 {
		t.Errorf("deleg.finish records = %d", n)
	}
	// The offered flows are self-contained: parent scope bound into the
	// variable block.
	for _, req := range fake.offered {
		if req.ParentExec != ex.ID {
			t.Errorf("ParentExec = %q", req.ParentExec)
		}
	}
}

func TestDelegateDeclineRunsInline(t *testing.T) {
	local := newTestEngine(t)
	fake := &fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB", decline: true}
	local.SetDelegator(fake)
	ex := mustRun(t, local, parallelSubflows(2))
	if fake.count() != 2 {
		t.Fatalf("offered %d, want 2", fake.count())
	}
	st := ex.Status(true)
	for _, ch := range st.Children {
		if ch.Delegated != "" {
			t.Errorf("declined subflow marked delegated: %+v", ch)
		}
		if ch.State != "succeeded" {
			t.Errorf("inline subflow state = %s", ch.State)
		}
	}
}

func TestDelegateMachineryFailureFailsNode(t *testing.T) {
	local := newTestEngine(t)
	boom := errors.New("placement exploded")
	fake := &fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB", fail: boom}
	local.SetDelegator(fake)
	ex, err := local.Run("user", parallelSubflows(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want machinery error", err)
	}
	st := ex.Status(true)
	if st.Children[0].State != "failed" {
		t.Errorf("child state = %s", st.Children[0].State)
	}
}

func TestDelegateRemoteFlowErrorPropagates(t *testing.T) {
	local := newTestEngine(t)
	fake := &fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB"}
	local.SetDelegator(fake)
	flow := dgl.NewFlow("parent").Parallel().
		SubFlow(dgl.NewFlow("bad").Step("s", dgl.Op(dgl.OpFail, nil))).Flow()
	ex, err := local.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err == nil {
		t.Fatal("remote flow failure did not propagate")
	}
	st := ex.Status(true)
	ch := st.Children[0]
	if ch.State != "failed" || !strings.HasPrefix(ch.Delegated, "peerB:") {
		t.Errorf("child = %+v", ch)
	}
}

func TestDelegateForeachShards(t *testing.T) {
	local := newTestEngine(t)
	fake := &fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB"}
	local.SetDelegator(fake)
	flow := dgl.NewFlow("fan").ForEachIn("item", "a,b,c").ParallelIterations().
		Step("touch", dgl.Op(dgl.OpSetVariable, map[string]string{
			"name": "last", "value": "$item",
		})).Flow()
	ex := mustRun(t, local, flow)
	if fake.count() != 3 {
		t.Fatalf("offered %d shards, want 3", fake.count())
	}
	// Each shard travels with its iteration variable bound.
	seen := map[string]bool{}
	for _, req := range fake.offered {
		for _, v := range req.Flow.Variables {
			if v.Name == "item" {
				seen[v.Value] = true
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("iteration vars bound = %v", seen)
	}
	st := ex.Status(true)
	if st.State != "succeeded" {
		t.Errorf("foreach state = %s", st.State)
	}
}

func TestDelegateProcedureCall(t *testing.T) {
	local := newTestEngine(t)
	remote := newRemoteEngine(t)
	proc := Procedure{
		Name:   "stage",
		Params: []string{"path"},
		Flow: dgl.NewFlow("stage-body").
			Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
				"path": "$path", "size": "10", "resource": "disk1",
			})).Flow(),
	}
	if err := local.StoreProcedure(proc); err != nil {
		t.Fatal(err)
	}
	if err := remote.StoreProcedure(proc); err != nil {
		t.Fatal(err)
	}
	fake := &fakeDelegator{t: t, remote: remote, peer: "peerB"}
	local.SetDelegator(fake)
	flow := dgl.NewFlow("caller").
		Step("call", dgl.Op(dgl.OpCall, map[string]string{
			"procedure": "stage", "path": "/grid/proc.dat", "resultVar": "rid",
		})).Flow()
	ex := mustRun(t, local, flow)
	if fake.count() != 1 {
		t.Fatalf("offered %d, want 1 procedure call", fake.count())
	}
	// The procedure ran on the remote engine, not locally.
	if !remote.Grid().Namespace().Exists("/grid/proc.dat") {
		t.Error("procedure did not run remotely")
	}
	if local.Grid().Namespace().Exists("/grid/proc.dat") {
		t.Error("procedure also ran locally")
	}
	if rid := ex.Vars()["rid"]; !strings.HasPrefix(rid, "peerB:") {
		t.Errorf("resultVar = %q, want remote id", rid)
	}
	// Unknown procedures skip delegation and fail through the local path.
	bad := dgl.NewFlow("caller2").
		Step("call", dgl.Op(dgl.OpCall, map[string]string{"procedure": "nosuch"})).Flow()
	ex2, err := local.Run("user", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex2.Wait(); !errors.Is(err, ErrNoProcedure) {
		t.Errorf("unknown procedure = %v", err)
	}
}

// TestDelegateJournalSkip proves restart checkpointing treats a
// delegated subtree as one unit: recovery skips subflows whose
// deleg.done is in the store and re-delegates the rest.
func TestDelegateJournalSkip(t *testing.T) {
	// A crash after sub-0 completed remotely, with sub-1 still out.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const id = "dgf-000001"
	if err := st.AppendBatch([]store.Record{
		{Type: store.TypeExecStart, ID: id, Request: codec.RequestDoc(dgl.NewAsyncRequest("user", "", parallelSubflows(2)))},
		{Type: store.TypeDelegStart, ID: id, Node: "/parent/sub-0"},
		{Type: store.TypeDelegDone, ID: id, Node: "/parent/sub-0", Peer: "peerB"},
		{Type: store.TypeDelegStart, ID: id, Node: "/parent/sub-1"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recEngine, _ := newStoreEngine(t, dir)
	fake := &fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB"}
	recEngine.SetDelegator(fake)
	recovered, err := recEngine.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d executions", len(recovered))
	}
	if err := recovered[0].Wait(); err != nil {
		t.Fatal(err)
	}
	// Only sub-1 was re-delegated; sub-0 was skipped wholesale.
	if fake.count() != 1 || fake.offered[0].Flow.Name != "sub-1" {
		t.Fatalf("re-delegations = %+v", fake.offered)
	}
	status := recovered[0].Status(true)
	states := map[string]string{}
	for _, ch := range status.Children {
		states[ch.Name] = ch.State
	}
	if states["sub-0"] != "skipped" || states["sub-1"] != "succeeded" {
		t.Errorf("states = %v", states)
	}
	if n := recEngine.Grid().Provenance().Count(provenance.Filter{Action: "deleg.skip"}); n != 1 {
		t.Errorf("deleg.skip records = %d", n)
	}
}
