package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

func noopFlow(name string) dgl.Flow {
	return dgl.NewFlow(name).Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
}

// newRealClockEngine builds an engine whose sleep op blocks in real
// time — the default test grid runs a virtual clock, under which
// OpSleep returns instantly and cannot hold requests in flight.
func newRealClockEngine(t testing.TB) *matrix.Engine {
	t.Helper()
	g := dgms.New(dgms.Options{Clock: sim.RealClock{}})
	if err := g.RegisterResource(vfs.New("disk", "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return matrix.NewEngine(g)
}

func sleepFlow(name, dur string) dgl.Flow {
	return dgl.NewFlow(name).
		Step("z", dgl.Op(dgl.OpSleep, map[string]string{"duration": dur})).Flow()
}

// submitAsync submits a flow asynchronously and returns its execution
// id, a server-side refusal decoded into a typed error.
func submitAsync(c *Client, user string, flow dgl.Flow) (string, error) {
	res, err := c.Submit(context.Background(), dgl.NewRequest(user, "", flow), WithAsync())
	if err != nil {
		return "", err
	}
	return res.ID, res.Err()
}

func TestMuxFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, KindDGL, 42, []byte("<x/>")); err != nil {
		t.Fatal(err)
	}
	kind, id, payload, err := ReadMuxFrame(&buf)
	if err != nil || kind != KindDGL || id != 42 || string(payload) != "<x/>" {
		t.Errorf("round trip = %d %d %q %v", kind, id, payload, err)
	}
	// Oversized length prefix is corruption.
	buf.Reset()
	buf.Write([]byte{KindDGL, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1})
	if _, _, _, err := ReadMuxFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize err = %v, want ErrFrameTooLarge", err)
	}
}

// TestHelloUpgradesToMux exercises requests over a dialled session —
// multiplexed from its first frame, the hello — including many
// concurrent submitters on one connection.
func TestHelloUpgradesToMux(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)

	// Sequential requests.
	id, err := submitAsync(c, "user", noopFlow("one"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty execution id")
	}
	// Control verbs multiplex too.
	if _, err := c.List(); err != nil {
		t.Fatalf("list over mux: %v", err)
	}
	// 32 goroutines pipelining over the single connection.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := submitAsync(c, "user", noopFlow(fmt.Sprintf("f%d", i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined submit: %v", err)
	}
}

// TestMuxConnDropFailsInflight severs the connection while requests are
// in flight and checks every one fails with a typed resource-down
// error rather than hanging.
func TestMuxConnDropFailsInflight(t *testing.T) {
	e := newRealClockEngine(t)
	// Pool of 1: a slow flow occupies it, so followers queue in
	// admission server-side while the connection dies under them.
	s := NewServerConfig(e, ServerConfig{MaxInflight: 1})
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
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			// Synchronous submits so requests are held in flight.
			flow := sleepFlow(fmt.Sprintf("w%d", i), "600ms")
			_, err := c.submitOne(context.Background(), dgl.NewRequest("user", "", flow))
			errs <- err
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the requests reach the server
	c.fc.Close()                       // sever mid-stream
	for i := 0; i < 8; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("in-flight request survived a dropped connection")
			}
			if !errors.Is(err, dgferr.ErrResourceDown) && !errors.Is(err, dgferr.ErrCancelled) {
				t.Fatalf("in-flight error = %v, want resource-down class", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight request hung after connection drop")
		}
	}
	// New requests on the dead client fail fast and typed.
	if _, err := c.List(); !errors.Is(err, dgferr.ErrResourceDown) && !errors.Is(err, dgferr.ErrCancelled) {
		t.Fatalf("post-drop request error = %v, want typed", err)
	}
}

// TestBatchSubmit exercises KindBatch end to end, including per-item
// errors: one malformed flow must not poison its neighbours.
func TestBatchSubmit(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)

	good0 := dgl.NewAsyncRequest("user", "", noopFlow("g0"))
	// Invalid: references an unregistered operation type.
	bad := dgl.NewAsyncRequest("user", "", dgl.NewFlow("bad").
		Step("x", dgl.Op("no-such-op", nil)).Flow())
	good1 := dgl.NewAsyncRequest("user", "", noopFlow("g1"))

	resps, err := c.submitBatch(context.Background(), []*dgl.Request{good0, bad, good1})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resps) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(resps))
	}
	if resps[0].Ack == nil || !resps[0].Ack.Valid {
		t.Fatalf("item 0 = %+v, want ack", resps[0])
	}
	if resps[1].Error == "" {
		t.Fatal("invalid item reported no error")
	}
	if derr := dgferr.Decode(resps[1].Error); !errors.Is(derr, dgferr.ErrInvalid) {
		t.Fatalf("item 1 error = %v, want invalid class", derr)
	}
	if resps[2].Ack == nil || !resps[2].Ack.Valid {
		t.Fatalf("item 2 = %+v, want ack (batch aborted after bad item?)", resps[2])
	}
}

// TestMuxRequestContextCancel abandons one pipelined request and checks
// its neighbours are untouched.
func TestMuxRequestContextCancel(t *testing.T) {
	e := newRealClockEngine(t)
	_, addr := startServer(t, e)
	c := dial(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.submitOne(ctx, dgl.NewRequest("user", "", sleepFlow("slow", "1s")))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, dgferr.ErrCancelled) {
			t.Fatalf("cancelled request error = %v, want cancelled class", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	// The connection is still healthy for other requests.
	if _, err := submitAsync(c, "user", noopFlow("after")); err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
}

// TestMuxFastReplyOvertakesSlow is the structural check that a mux
// connection hides latency: a synchronous request is parked inside the
// server when a fast one is sent behind it on the same connection, the
// fast reply arrives first, and the slow one still completes with its
// own result. The slow step is a parked op rather than a sleep, so no
// duration decides the outcome: it cannot finish until the fast reply
// is in hand, and a connection that served requests in order would
// time out here instead of passing slowly.
func TestMuxFastReplyOvertakesSlow(t *testing.T) {
	e := newRealClockEngine(t)
	started, release := make(chan struct{}), make(chan struct{})
	e.RegisterOp("park", func(c *matrix.OpContext) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-c.Cancel:
			return matrix.ErrCancelled
		}
	})
	_, addr := startServer(t, e)
	c := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type reply struct {
		resp *dgl.Response
		err  error
	}
	slow := make(chan reply, 1)
	go func() {
		flow := dgl.NewFlow("slow").Step("z", dgl.Op("park", nil)).Flow()
		resp, err := c.submitOne(ctx, dgl.NewRequest("user", "", flow))
		slow <- reply{resp, err}
	}()
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("slow request never reached its step")
	}

	fast, err := c.submitOne(ctx, dgl.NewRequest("user", "", noopFlow("fast")))
	if err != nil {
		t.Fatalf("fast request behind a parked one: %v", err)
	}
	if fast.Status == nil || fast.Status.Name != "fast" || fast.Status.State != "succeeded" {
		t.Fatalf("fast reply = %+v, want the fast flow succeeded", fast)
	}
	select {
	case r := <-slow:
		t.Fatalf("slow request returned (%+v, %v) before it was released", r.resp, r.err)
	default:
	}

	close(release)
	r := <-slow
	if r.err != nil {
		t.Fatalf("slow request: %v", r.err)
	}
	if r.resp.Status == nil || r.resp.Status.Name != "slow" || r.resp.Status.State != "succeeded" {
		t.Fatalf("slow reply = %+v, want the slow flow succeeded", r.resp)
	}
}

// TestAdmissionRejectionOverWire fills one user's admission queue and
// checks the overflow request comes back as a typed capacity error.
func TestAdmissionRejectionOverWire(t *testing.T) {
	e := newRealClockEngine(t)
	s := NewServerConfig(e, ServerConfig{MaxInflight: 1, MaxUserQueue: 1})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := dial(t, addr)

	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			req := dgl.NewRequest("user", "", sleepFlow(fmt.Sprintf("s%d", i), "600ms"))
			resp, err := c.submitOne(context.Background(), req)
			if err == nil && resp.Error != "" {
				err = dgferr.Decode(resp.Error)
			}
			results <- err
		}(i)
		time.Sleep(50 * time.Millisecond) // deterministic arrival order
	}
	var rejected int
	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if errors.Is(err, dgferr.ErrCapacity) {
				rejected++
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request hung")
		}
	}
	if rejected != 1 {
		t.Fatalf("rejected = %d, want exactly 1 (pool 1 + queue 1 + shed 1)", rejected)
	}
}
