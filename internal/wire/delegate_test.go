package wire

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/provenance"
)

// delegation is the route frame the federation hands a subflow over
// with: one that names its parent node.
func delegation(user string, flow dgl.Flow) *Route {
	return &Route{
		User:       user,
		Request:    codec.RequestDoc(dgl.NewRequest(user, "", flow)),
		Origin:     "origin-peer",
		ParentExec: "origin-peer:dgf-000001",
		ParentNode: "origin-peer:dgf-000001/parent/sub",
	}
}

func delegations(e *matrix.Engine, outcome string) int64 {
	return e.Obs().Counter("wire_delegations_total", "outcome", outcome).Value()
}

func TestDelegateRoundTrip(t *testing.T) {
	e := newEngine(t, "remote:")
	_, addr := startServer(t, e)
	c := dial(t, addr)

	flow := dgl.NewFlow("sub").
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/deleg.dat", "size": "64", "resource": "diskremote:",
		})).Flow()
	resp, err := c.Run(context.Background(), delegation("user", flow))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Status == nil || resp.Status.State != "succeeded" ||
		!strings.HasPrefix(resp.Status.ID, "remote:") {
		t.Fatalf("response = %+v (status %+v)", resp, resp.Status)
	}
	if !e.Grid().Namespace().Exists("/grid/deleg.dat") {
		t.Errorf("delegated ingest missing on remote")
	}
	if n := delegations(e, "ok"); n != 1 {
		t.Errorf("wire_delegations_total{outcome=ok} = %d, want 1", n)
	}
	// The serving peer records the delegation in provenance, joined to
	// its parent node on the origin.
	var serve *provenance.Record
	for _, rec := range e.Grid().Provenance().Query(provenance.Filter{Action: "deleg.serve"}) {
		if rec.Actor == "origin-peer" {
			serve = &rec
		}
	}
	if serve == nil {
		t.Fatal("no deleg.serve provenance record")
	}
	if serve.FlowID+"/sub" != resp.Status.ID || !slices.Contains(serve.Detail, provenance.Attr{Key: "origin", Value: "origin-peer"}) ||
		!slices.Contains(serve.Detail, provenance.Attr{Key: "parentExec", Value: "origin-peer:dgf-000001"}) ||
		!slices.Contains(serve.Detail, provenance.Attr{Key: "parentNode", Value: "origin-peer:dgf-000001/parent/sub"}) {
		t.Errorf("deleg.serve record = %+v (run %s)", serve, resp.Status.ID)
	}
}

func TestDelegateRemoteFlowFailure(t *testing.T) {
	e := newEngine(t, "remote:")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	flow := dgl.NewFlow("boom").Step("s", dgl.Op(dgl.OpFail, nil)).Flow()
	resp, err := c.Run(context.Background(), delegation("user", flow))
	// The flow failed over there: that is an outcome, carried in the
	// response document, not a refusal of the work.
	if err != nil {
		t.Fatalf("remote flow failure came back as a refusal: %v", err)
	}
	if resp.Error == "" || dgferr.Decode(resp.Error) == nil {
		t.Errorf("response error = %q, want the flow's failure", resp.Error)
	}
	if resp.Status == nil || resp.Status.ID == "" || resp.Status.State != "failed" {
		t.Errorf("status = %+v, want the failed run with its remote id", resp.Status)
	}
	if n := delegations(e, "error"); n != 1 {
		t.Errorf("wire_delegations_total{outcome=error} = %d, want 1", n)
	}
}

func TestDelegateInvalidPayloads(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	// Unparseable request document.
	rt := delegation("user", noopFlow("x"))
	rt.Request = "not xml"
	if resp, err := c.Run(context.Background(), rt); resp != nil || !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("bad request: resp=%+v err=%v", resp, err)
	}
	// Request with no flow.
	rt.Request = codec.RequestDoc(dgl.NewStatusRequest("user", "dgf-000001", false))
	if resp, err := c.Run(context.Background(), rt); resp != nil || !errors.Is(err, dgferr.ErrInvalid) {
		t.Errorf("flowless request: resp=%+v err=%v", resp, err)
	}
	if n := delegations(e, "invalid"); n != 2 {
		t.Errorf("wire_delegations_total{outcome=invalid} = %d, want 2", n)
	}
	if len(e.Executions()) != 0 {
		t.Errorf("a refused delegation ran: %v", e.Executions())
	}
}

// TestDelegateServerShutdownMidFlight covers deterministic shutdown:
// closing the server with a delegation in flight must cancel the
// delegated execution (bounded by DelegateGrace) rather than leak it,
// and the client must see a failure, not an outcome.
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
	c := dial(t, addr)
	// Two steps: cancellation is cooperative, so the in-flight gate step
	// finishes, and the checkpoint before the second step observes it.
	flow := dgl.NewFlow("held").
		Step("s", dgl.Op("gate", nil)).
		Step("after", dgl.Op(dgl.OpNoop, nil)).Flow()
	var wg sync.WaitGroup
	wg.Add(1)
	var resp *dgl.Response
	var derr error
	go func() {
		defer wg.Done()
		resp, derr = c.Run(context.Background(), delegation("user", flow))
	}()
	<-entered
	// Close must return even though the delegated execution is stuck in
	// an op handler: the connection context cancels the run,
	// DelegateGrace bounds the wait, and the handler goroutine unwinds.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung on an in-flight delegation")
	}
	wg.Wait()
	if derr == nil || resp != nil {
		t.Fatalf("shutdown mid-delegation: resp=%+v err=%v", resp, derr)
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
	c := dial(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	flow := dgl.NewFlow("held").Step("s", dgl.Op("gate2", nil)).Flow()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, delegation("user", flow))
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled delegation returned nil error")
	}
}

// TestRetiredDelegateKindSevers: kind 4 carried the retired delegate
// envelope. A frame of it is answered like any unknown kind: the
// connection is severed and the frame counted under kind "unknown".
func TestRetiredDelegateKindSevers(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	payload := []byte{codec.Magic, codec.Version, 8}
	if fr, err := c.call(context.Background(), 4, payload); err == nil {
		fr.release()
		t.Fatal("a kind-4 frame was answered")
	}
	if n := e.Obs().Counter("wire_frames_in_total", "kind", "unknown").Value(); n != 1 {
		t.Errorf("wire_frames_in_total{kind=unknown} = %d, want 1", n)
	}
	if _, err := c.List(); err == nil {
		t.Error("the connection outlived a kind-4 frame")
	}
}
