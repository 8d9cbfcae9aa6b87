package wire

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/provenance"
)

func delegatePayload(t *testing.T, user string, flow dgl.Flow) Delegate {
	t.Helper()
	doc, err := dgl.Marshal(dgl.NewAsyncRequest(user, "", flow))
	if err != nil {
		t.Fatal(err)
	}
	return Delegate{
		User:       user,
		Request:    string(doc),
		Origin:     "origin-peer",
		ParentExec: "origin-peer:dgf-000001",
		ParentNode: "origin-peer:dgf-000001/parent/sub",
	}
}

func TestDelegateRoundTrip(t *testing.T) {
	e := newEngine(t, "remote:")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	flow := dgl.NewFlow("sub").
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/deleg.dat", "size": "64", "resource": "diskremote:",
		})).Flow()
	res, err := c.Delegate(context.Background(), delegatePayload(t, "user", flow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !strings.HasPrefix(res.ID, "remote:") {
		t.Fatalf("result = %+v", res)
	}
	st, err := dgl.ParseFlowStatus([]byte(res.Status))
	if err != nil || st.State != "succeeded" {
		t.Fatalf("status = %+v, %v", st, err)
	}
	if !e.Grid().Namespace().Exists("/grid/deleg.dat") {
		t.Errorf("delegated ingest missing on remote")
	}
	// The serving peer records the delegation in provenance.
	prov := e.Grid().Provenance().Query(provenance.Filter{})
	found := false
	for _, rec := range prov {
		if rec.Action == "deleg.serve" && rec.Actor == "origin-peer" {
			found = true
		}
	}
	if !found {
		t.Errorf("no deleg.serve provenance record: %+v", prov)
	}
}

func TestDelegateRemoteFlowFailure(t *testing.T) {
	e := newEngine(t, "remote:")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	flow := dgl.NewFlow("boom").Step("s", dgl.Op(dgl.OpFail, nil)).Flow()
	res, err := c.Delegate(context.Background(), delegatePayload(t, "user", flow))
	if err == nil {
		t.Fatal("remote failure returned nil error")
	}
	// A non-nil result distinguishes "the flow failed over there" from a
	// transport failure.
	if res == nil || res.OK {
		t.Fatalf("result = %+v", res)
	}
	if res.ID == "" {
		t.Errorf("failed delegation lost its remote id: %+v", res)
	}
	if st, perr := dgl.ParseFlowStatus([]byte(res.Status)); perr != nil || st.State != "failed" {
		t.Errorf("status = %q (%v)", res.Status, perr)
	}
}

func TestDelegateInvalidPayloads(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	// Unparseable request document.
	res, err := c.Delegate(context.Background(), Delegate{User: "user", Request: "not xml"})
	if err == nil || res == nil || !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("bad request: res=%+v err=%v", res, err)
	}
	// Request with no flow.
	doc, _ := dgl.Marshal(dgl.NewAsyncRequest("user", "", dgl.Flow{}))
	res, err = c.Delegate(context.Background(), Delegate{User: "user", Request: string(doc)})
	if err == nil || !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("flowless request: res=%+v err=%v", res, err)
	}
}

// TestDelegateServerShutdownMidFlight covers the deterministic-shutdown
// bugfix: closing the server with a delegation in flight must cancel the
// delegated execution (bounded by DelegateGrace) rather than leak it,
// and the client must see a transport-class failure.
func TestDelegateServerShutdownMidFlight(t *testing.T) {
	e := newEngine(t, "remote:")
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	e.RegisterOp("gate", func(c *matrix.OpContext) error {
		entered <- struct{}{}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil
	})
	s := NewServerConfig(e, ServerConfig{DelegateGrace: 200 * time.Millisecond})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	// Two steps: cancellation is cooperative, so the in-flight gate step
	// finishes, and the checkpoint before the second step observes it.
	flow := dgl.NewFlow("held").
		Step("s", dgl.Op("gate", nil)).
		Step("after", dgl.Op(dgl.OpNoop, nil)).Flow()
	var wg sync.WaitGroup
	wg.Add(1)
	var res *DelegateResult
	var derr error
	go func() {
		defer wg.Done()
		res, derr = c.Delegate(context.Background(), delegatePayload(t, "user", flow))
	}()
	<-entered
	// Close must return even though the delegated execution is stuck in
	// an op handler: the connection context cancels the delegation,
	// DelegateGrace bounds the wait, and the handler goroutine unwinds.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung on an in-flight delegation")
	}
	wg.Wait()
	if derr == nil || res != nil {
		t.Fatalf("shutdown mid-delegation: res=%+v err=%v", res, derr)
	}
	// The server cancelled the execution before Close returned; once the
	// gate releases, it must settle as cancelled, not keep running.
	close(release)
	ids := e.Executions()
	if len(ids) != 1 {
		t.Fatalf("executions = %v", ids)
	}
	ex, _ := e.Execution(ids[0])
	select {
	case <-ex.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("delegated execution never settled after server close")
	}
	if err := ex.Err(); !errors.Is(err, dgferr.ErrCancelled) {
		t.Errorf("delegated execution err = %v, want cancelled", err)
	}
}

func TestDelegateContextCancel(t *testing.T) {
	e := newEngine(t, "remote:")
	entered := make(chan struct{}, 1)
	e.RegisterOp("gate2", func(c *matrix.OpContext) error {
		entered <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	s := NewServerConfig(e, ServerConfig{DelegateGrace: time.Second})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	flow := dgl.NewFlow("held").Step("s", dgl.Op("gate2", nil)).Flow()
	done := make(chan error, 1)
	go func() {
		_, err := c.Delegate(ctx, delegatePayload(t, "user", flow))
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled delegation returned nil error")
	}
}
