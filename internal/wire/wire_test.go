package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/vfs"
)

func newEngine(t testing.TB, prefix string) *matrix.Engine {
	t.Helper()
	// A registry per engine: tests assert on metric values, and peers of
	// one test must not read each other's (or an earlier test's) counts.
	g := dgms.New(dgms.Options{Obs: obs.NewRegistry()})
	if err := g.RegisterResource(vfs.New("disk"+prefix, "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return matrix.NewEngineConfig(g, matrix.Config{IDPrefix: prefix})
}

// newPeer is a peer with the default wire-server tuning.
func newPeer(name string, e *matrix.Engine) *Peer {
	return NewPeerConfig(name, e, ServerConfig{})
}

func startServer(t testing.TB, e *matrix.Engine) (*Server, string) {
	t.Helper()
	s := NewServer(e)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

func TestFrameRoundTrip(t *testing.T) {
	// Empty payload.
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, KindControl, 3, nil); err != nil {
		t.Fatal(err)
	}
	kind, id, payload, err := ReadMuxFrame(&buf)
	if err != nil || kind != KindControl || id != 3 || len(payload) != 0 {
		t.Errorf("empty frame = %d %d %q %v", kind, id, payload, err)
	}
	if err := WriteMuxFrame(&buf, KindDGL, 4, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write = %v", err)
	}
	// Truncated stream.
	if _, _, _, err := ReadMuxFrame(bytes.NewReader([]byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 'x'})); err == nil {
		t.Errorf("truncated frame accepted")
	}
}

func TestClientServerSyncFlow(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flow := dgl.NewFlow("remote").
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/remote.dat", "size": "100", "resource": "disk",
		})).Flow()
	resp, err := c.SubmitFlow("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Status == nil || resp.Status.State != "succeeded" {
		t.Fatalf("response = %+v", resp)
	}
	if !e.Grid().Namespace().Exists("/grid/remote.dat") {
		t.Errorf("remote ingest missing")
	}
	// Invalid flow surfaces as an error response.
	bad := dgl.NewFlow("bad").Step("s", dgl.Op("nosuch", nil)).Flow()
	resp, err = c.SubmitFlow("user", bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Errorf("invalid flow got no error: %+v", resp)
	}
}

func TestClientServerAsyncAndControl(t *testing.T) {
	e := newEngine(t, "")
	// A gate operation to hold the flow while we poke at it.
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	e.RegisterOp("gate", func(c *matrix.OpContext) error {
		started <- struct{}{}
		<-release
		return nil
	})
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := dgl.NewFlow("long")
	b.Step("gate", dgl.Op("gate", nil))
	for i := 0; i < 3; i++ {
		b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpNoop, nil))
	}
	id, err := submitAsync(c, "user", b.Flow())
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty execution id")
	}
	<-started
	// Status over the wire, at step granularity.
	st, err := c.Status("user", id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || len(st.Children) == 0 {
		t.Errorf("running status = %+v", st)
	}
	stepID := id + "/long/gate"
	sst, err := c.Status("user", stepID, false)
	if err != nil || sst.Name != "gate" {
		t.Errorf("step status = %+v, %v", sst, err)
	}
	// Pause, release the gate, confirm it holds, resume.
	if err := c.Pause(id); err != nil {
		t.Fatal(err)
	}
	close(release)
	time.Sleep(20 * time.Millisecond)
	st, _ = c.Status("user", id, true)
	if st.CountByState()["succeeded"] > 1 {
		t.Errorf("paused execution progressed: %v", st.CountByState())
	}
	if err := c.Resume(id); err != nil {
		t.Fatal(err)
	}
	exec, _ := e.Execution(id)
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Status("user", id, false)
	if st.State != "succeeded" {
		t.Errorf("final state = %s", st.State)
	}
	// Control errors.
	if err := c.Pause("dgf-zzz"); err == nil {
		t.Errorf("pause unknown id accepted")
	}
	if _, err := c.Restart(id); err == nil {
		t.Errorf("restart of succeeded execution accepted")
	}
}

func TestCancelAndRestartOverWire(t *testing.T) {
	e := newEngine(t, "")
	fail := true
	e.RegisterOp("flaky", func(c *matrix.OpContext) error {
		if fail {
			return errors.New("transient")
		}
		return nil
	})
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flow := dgl.NewFlow("f").
		Step("ok", dgl.Op(dgl.OpNoop, nil)).
		Step("flaky", dgl.Op("flaky", nil)).Flow()
	id, err := submitAsync(c, "user", flow)
	if err != nil {
		t.Fatal(err)
	}
	exec, _ := e.Execution(id)
	_ = exec.Wait() // fails
	fail = false
	newID, err := c.Restart(id)
	if err != nil {
		t.Fatal(err)
	}
	exec2, _ := e.Execution(newID)
	if err := exec2.Wait(); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Status("user", newID, true)
	if st.CountByState()["skipped"] != 1 {
		t.Errorf("restart skipped = %v", st.CountByState())
	}
	// Cancel over the wire.
	release := make(chan struct{})
	gated := make(chan struct{}, 1)
	e.RegisterOp("gate2", func(c *matrix.OpContext) error {
		gated <- struct{}{}
		<-release
		return nil
	})
	id3, err := submitAsync(c, "user", dgl.NewFlow("g").
		Step("g1", dgl.Op("gate2", nil)).
		Step("g2", dgl.Op(dgl.OpNoop, nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	<-gated
	if err := c.Cancel(id3); err != nil {
		t.Fatal(err)
	}
	close(release)
	exec3, _ := e.Execution(id3)
	if werr := exec3.Wait(); !errors.Is(werr, matrix.ErrCancelled) {
		t.Errorf("cancelled wait = %v", werr)
	}
}

func TestLookupServer(t *testing.T) {
	ls := NewLookupServer()
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("matrixA", "10.0.0.1:9000"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("matrixB", "10.0.0.2:9000"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Resolve("matrixA")
	if err != nil || got != "10.0.0.1:9000" {
		t.Errorf("Resolve = %q, %v", got, err)
	}
	if _, err := c.Resolve("matrixZ"); err == nil {
		t.Errorf("unknown peer resolved")
	}
	peers, err := c.Peers()
	if err != nil || len(peers) != 2 {
		t.Errorf("Peers = %v, %v", peers, err)
	}
	// Re-register updates the address.
	if err := c.Register("matrixA", "10.0.0.9:9000"); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Resolve("matrixA")
	if got != "10.0.0.9:9000" {
		t.Errorf("re-register = %q", got)
	}
	// Bad register rejected.
	if err := c.Register("", ""); err == nil {
		t.Errorf("empty register accepted")
	}
}

func TestPeerNetwork(t *testing.T) {
	ls := NewLookupServer()
	lookupAddr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	peerA := newPeer("matrixA", newEngine(t, "matrixA:"))
	if _, err := peerA.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerA.Close()
	peerB := newPeer("matrixB", newEngine(t, "matrixB:"))
	if _, err := peerB.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerB.Close()

	// Submit a flow to B *through* A.
	flow := dgl.NewFlow("onB").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	resp, err := peerA.SubmitTo("matrixB", "user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !strings.HasPrefix(resp.Ack.ID, "matrixB:") {
		t.Fatalf("ack = %+v", resp.Ack)
	}
	id := resp.Ack.ID
	exec, ok := peerB.Engine().Execution(id)
	if !ok {
		t.Fatal("B does not know the execution")
	}
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	// Query the status from A's server: the id's prefix routes to B.
	cA := dial(t, peerA.Addr())
	st, err := cA.Status("user", id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "succeeded" || st.Name != "onB" {
		t.Errorf("forwarded status = %+v", st)
	}
	// Step-granular cross-peer status.
	sst, err := cA.Status("user", id+"/onB/s", false)
	if err != nil || sst.Name != "s" {
		t.Errorf("cross-peer step status = %+v, %v", sst, err)
	}
	// Local submission and status still work.
	respA, err := peerA.SubmitTo("matrixA", "user", flow)
	if err != nil || !strings.HasPrefix(respA.Ack.ID, "matrixA:") {
		t.Fatalf("local submit = %+v, %v", respA, err)
	}
	execA, _ := peerA.Engine().Execution(respA.Ack.ID)
	if err := execA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := cA.Status("user", respA.Ack.ID, false); err != nil {
		t.Errorf("local status: %v", err)
	}
	// Unknown peer fails cleanly.
	if _, err := cA.Status("user", "matrixZ:dgf-000001", false); err == nil {
		t.Errorf("unknown peer status accepted")
	}
	if _, err := peerA.SubmitTo("matrixZ", "user", flow); err == nil {
		t.Errorf("unknown peer submit accepted")
	}
}

func TestOwnerOf(t *testing.T) {
	tests := []struct{ id, want string }{
		{"matrixA:dgf-000001", "matrixA"},
		{"matrixA:dgf-000001/flow/step", "matrixA"},
		{"dgf-000001", ""},
		{"dgf-000001/flow", ""},
	}
	for _, tt := range tests {
		if got := OwnerOf(tt.id); got != tt.want {
			t.Errorf("OwnerOf(%q) = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	e := newEngine(t, "")
	s, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	// The connection is dead; requests fail rather than hang.
	flow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	if _, err := c.SubmitFlow("user", flow); err == nil {
		t.Errorf("request on closed server succeeded")
	}
	c.Close()
}

func BenchmarkE4WireRoundTrip(b *testing.B) {
	e := newEngine(b, "")
	s := NewServer(e)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	flow := dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := c.SubmitFlow("user", flow)
		if err != nil || resp.Error != "" {
			b.Fatalf("%v %v", resp, err)
		}
	}
}

func TestListExecutionsOverWire(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.List()
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty list = %v, %v", rows, err)
	}
	flow := dgl.NewFlow("listed").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	id, err := submitAsync(c, "user", flow)
	if err != nil {
		t.Fatal(err)
	}
	exec, _ := e.Execution(id)
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	rows, err = c.List()
	if err != nil || len(rows) != 1 {
		t.Fatalf("list = %v, %v", rows, err)
	}
	if rows[0].ID != id || rows[0].Name != "listed" || rows[0].State != "succeeded" || rows[0].User != "user" {
		t.Errorf("row = %+v", rows[0])
	}
	// Unknown verbs come back as errors.
	if _, err := c.control("defenestrate", "x"); err == nil {
		t.Errorf("unknown verb accepted")
	}
}

func TestListenErrors(t *testing.T) {
	e := newEngine(t, "")
	s := NewServer(e)
	if _, err := s.Listen("256.256.256.256:0"); err == nil {
		t.Errorf("bad address accepted")
	}
	// Listen after Close is rejected.
	s2 := NewServer(e)
	s2.Close()
	if _, err := s2.Listen("127.0.0.1:0"); err == nil {
		t.Errorf("listen after close accepted")
	}
	// Dial to a dead address fails.
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Errorf("dial to closed port succeeded")
	}
}

func TestSubmitAsyncErrorPaths(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Invalid flow: SubmitAsync surfaces the server error.
	bad := dgl.NewFlow("bad").Step("s", dgl.Op("nosuch", nil)).Flow()
	if _, err := submitAsync(c, "user", bad); err == nil {
		t.Errorf("invalid async flow accepted")
	}
	// Status of unknown id errors.
	if _, err := c.Status("user", "dgf-404", false); err == nil {
		t.Errorf("unknown status id accepted")
	}
}

func TestPeerStartErrors(t *testing.T) {
	e := newEngine(t, "p:")
	p := newPeer("p", e)
	// Bad listen address.
	if _, err := p.Start("256.256.256.256:0", "127.0.0.1:1"); err == nil {
		t.Errorf("bad peer address accepted")
	}
	// Dead lookup server.
	p2 := newPeer("p2", newEngine(t, "p2:"))
	if _, err := p2.Start("127.0.0.1:0", "127.0.0.1:1"); err == nil {
		t.Errorf("dead lookup accepted")
	}
	// Peer without a lookup connection cannot route.
	p3 := newPeer("p3", newEngine(t, "p3:"))
	if _, err := p3.placeStatus("other:dgf-000001"); err == nil {
		t.Errorf("routing without lookup accepted")
	}
}
