package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/fault"
	"datagridflow/internal/matrix"
	"datagridflow/internal/sim"
)

func dial(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestHelloNegotiation(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	proto, err := c.Hello()
	if err != nil {
		t.Fatalf("Hello: %v", err)
	}
	if proto != ProtoVersion {
		t.Errorf("server proto = %q, want %q", proto, ProtoVersion)
	}
}

// TestHelloMajorMismatch: a hello offering any protocol version but
// this one is refused with a typed ErrProtocol — an incompatible major,
// a neighbouring minor and a garbled string alike — and the refusal
// leaves the session usable.
func TestHelloMajorMismatch(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	for _, v := range []string{"99.0", "1.8", "2.1", "banana", ""} {
		if _, err := c.controlMsg(context.Background(), Control{Op: "hello", Proto: v}); !errors.Is(err, dgferr.ErrProtocol) {
			t.Errorf("hello offering %q = %v, want ErrProtocol", v, err)
		}
	}
	if _, err := c.List(); err != nil {
		t.Fatalf("session after refused hellos: %v", err)
	}
}

// TestDialRefusesOtherVersion: a server that answers the hello with
// another protocol version fails Dial with a typed ErrProtocol, and one
// that never answers cannot hang it past the dial context.
func TestDialRefusesOtherVersion(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	silent := make(chan struct{})
	defer close(silent)
	go func() {
		// The first connection's hello is answered with 1.8.
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, id, _, err := ReadMuxFrame(conn); err == nil {
			enc := codec.GetEncoder()
			appendControlResult(enc, &ControlResult{OK: true, Proto: "1.8"})
			_ = WriteMuxFrame(conn, KindControl, id, enc.Bytes())
			codec.PutEncoder(enc)
		}
		// The second's is read and never answered.
		if conn, err = l.Accept(); err != nil {
			return
		}
		defer conn.Close()
		_, _, _, _ = ReadMuxFrame(conn)
		<-silent
	}()
	if c, err := Dial(l.Addr().String()); !errors.Is(err, dgferr.ErrProtocol) {
		t.Errorf("dial against a 1.8 server = %v, %v; want ErrProtocol", c, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if c, err := DialContext(ctx, l.Addr().String()); !errors.Is(err, dgferr.ErrCancelled) {
		t.Errorf("dial against a silent server = %v, %v; want ErrCancelled", c, err)
	}
}

// TestTypedErrorsOverWire: the acceptance criterion — a client-side
// errors.Is against the taxonomy sentinels holds for failures produced
// deep inside the remote engine.
func TestTypedErrorsOverWire(t *testing.T) {
	e := newEngine(t, "")
	// Force an always-down resource so the retry budget burns out.
	in, err := fault.NewInjector(e.Grid().Clock(), fault.Plan{
		Events: []fault.Event{{Target: "disk", Kind: fault.ResourceDown}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Grid().SetFault(in)
	_, addr := startServer(t, e)
	c := dial(t, addr)

	st := dgl.Step{
		Name: "ingest", OnError: dgl.OnErrorRetry, Retries: 2,
		Operation: dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/f.dat", "size": "100", "resource": "disk",
		}),
	}
	resp, err := c.SubmitFlow("user", dgl.NewFlow("f").StepWith(st).Flow())
	if err != nil {
		t.Fatal(err)
	}
	err = dgferr.Decode(resp.Error)
	if !errors.Is(err, dgferr.ErrRetryExhausted) {
		t.Errorf("errors.Is(err, ErrRetryExhausted) = false over the wire: %v", err)
	}
	if dgferr.Retryable(err) {
		t.Errorf("exhausted remote failure still marked retryable")
	}

	// Status of an unknown execution: the not-found class crosses too.
	if _, err := c.Status("user", "no-such-exec", false); !errors.Is(err, dgferr.ErrNotFound) {
		t.Errorf("unknown execution = %v, want ErrNotFound", err)
	}
}

// TestPeerCrashDropsConnections: a peer-crash window severs connections
// at the frame boundary; after the window the server accepts again.
func TestPeerCrashDropsConnections(t *testing.T) {
	e := newEngine(t, "")
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := fault.NewInjector(clock, fault.Plan{Events: []fault.Event{
		{At: time.Minute, Target: "srv", Kind: fault.PeerCrash, Duration: time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, e)
	s.SetFault(in, "srv")

	flow := dgl.NewFlow("f").Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
		"path": "/grid/crash.dat", "size": "100", "resource": "disk",
	})).Flow()

	c := dial(t, addr)
	resp, err := c.SubmitFlow("user", flow)
	if err != nil {
		t.Fatalf("before crash window: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("before crash window: %s", resp.Error)
	}
	clock.Sleep(90 * time.Second) // into the crash window
	if _, err := c.submitOne(context.Background(), dgl.NewStatusRequest("user", "x", false)); err == nil {
		t.Fatal("request survived the crash window")
	}
	clock.Sleep(time.Minute) // the server "restarts"
	c2 := dial(t, addr)
	if _, err := c2.Status("user", "no-such", false); !errors.Is(err, dgferr.ErrNotFound) {
		t.Errorf("after restart: %v, want a served (typed) response", err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	e := newEngine(t, "")
	release := make(chan struct{})
	e.RegisterOp("hang", func(*matrix.OpContext) error { <-release; return nil })
	_, addr := startServer(t, e)
	c := dial(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.submitOne(ctx, dgl.NewRequest("user", "",
		dgl.NewFlow("f").Step("h", dgl.Op("hang", nil)).Flow()))
	if !errors.Is(err, dgferr.ErrCancelled) {
		t.Errorf("cancelled round trip = %v, want ErrCancelled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("cancellation did not interrupt in-flight I/O promptly")
	}
	// Unblock the server-side execution before the server's Close cleanup
	// runs (cleanups are LIFO: Close would otherwise wait on this conn).
	close(release)
}
