package wire

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

// newObservedEngine builds an engine whose grid has its own registry,
// so metric assertions are isolated from other tests.
func newObservedEngine(t testing.TB, prefix string) (*matrix.Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg})
	if err := g.RegisterResource(vfs.New("disk"+prefix, "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return matrix.NewEngineConfig(g, matrix.Config{IDPrefix: prefix}), reg
}

// TestMetricsVerbCarriesTheExposition: the metrics verb's reply carries
// in field 6 exactly the bytes the engine registry's Exposition renders,
// through the binary envelope and back.
func TestMetricsVerbCarriesTheExposition(t *testing.T) {
	e, reg := newObservedEngine(t, "")
	reg.SetNow(func() time.Time { return sim.Epoch })
	if _, err := e.Run("user", dgl.NewFlow("f").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()); err != nil {
		t.Fatal(err)
	}
	s := NewServer(e)
	t.Cleanup(s.Close)
	res := s.serveControlOp(Control{Op: "metrics"})
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendControlResult(enc, &res)
	back, err := decodeControlResult(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := reg.Exposition(); !back.OK || !bytes.Equal(back.Metrics, want) {
		t.Fatalf("metrics reply carries\n%s\nwant the registry's exposition\n%s", back.Metrics, want)
	}
}

// TestMetricsControlOp fetches the engine's metrics over the wire and
// checks the wire layer's own traffic shows up in them.
func TestMetricsControlOp(t *testing.T) {
	e, _ := newObservedEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	flow := dgl.NewFlow("f").
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/m.dat", "size": "10", "resource": "disk",
		})).Flow()
	if _, err := c.SubmitFlow("user", flow); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// counter sums the values of every series of one family.
	counter := func(name string) int64 {
		var total int64
		for _, line := range strings.Split(string(text), "\n") {
			if rest, ok := strings.CutPrefix(line, name); !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("series line %q: %v", line, err)
			}
			total += v
		}
		return total
	}
	if got := counter("wire_connections_total"); got < 1 {
		t.Errorf("wire_connections_total = %d, want >= 1", got)
	}
	// The DGL submit frame plus the metrics control frame itself.
	if got := counter("wire_frames_in_total"); got < 2 {
		t.Errorf("wire_frames_in_total = %d, want >= 2", got)
	}
	if got := counter("matrix_flows_succeeded_total"); got != 1 {
		t.Errorf("matrix_flows_succeeded_total = %d, want 1", got)
	}
	if counter("wire_bytes_in_total") <= 0 || counter("wire_bytes_out_total") <= 0 {
		t.Error("wire byte counters did not advance")
	}
}

// TestWireStatusRouting drives cross-peer status resolution through the
// wire itself: a client of peer B queries an id owned by peer A, and B
// forwards it — one routing hop, visible in B's metrics.
func TestWireStatusRouting(t *testing.T) {
	ls := NewLookupServer()
	lookupAddr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	engineA, _ := newObservedEngine(t, "matrixA:")
	peerA := newPeer("matrixA", engineA)
	if _, err := peerA.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	defer peerA.Close()
	engineB, regB := newObservedEngine(t, "matrixB:")
	peerB := newPeer("matrixB", engineB)
	addrB, err := peerB.Start("127.0.0.1:0", lookupAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer peerB.Close()

	ex, err := engineA.Run("user", dgl.NewFlow("onA").
		Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Status("user", ex.ID, false)
	if err != nil {
		t.Fatalf("cross-peer wire status: %v", err)
	}
	if st.Name != "onA" || st.State != "succeeded" {
		t.Fatalf("forwarded status = %+v", st)
	}
	forwards := regB.Counter("wire_peer_forwards_total", "peer", "matrixA").Value()
	if forwards != 1 {
		t.Errorf("wire_peer_forwards_total{peer=matrixA} = %d, want 1", forwards)
	}
	// An id B owns is answered locally, not forwarded.
	bex, err := engineB.Run("user", dgl.NewFlow("onB").
		Step("s", dgl.Op(dgl.OpNoop, nil)).Flow())
	if err != nil {
		t.Fatal(err)
	}
	if err := bex.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status("user", bex.ID, false); err != nil {
		t.Fatal(err)
	}
	if got := regB.Counter("wire_peer_forwards_total", "peer", "matrixA").Value(); got != forwards {
		t.Errorf("local status incremented forwards (%d)", got)
	}
	if got := regB.Counter("wire_peer_status_local_total").Value(); got < 1 {
		t.Errorf("wire_peer_status_local_total = %d, want >= 1", got)
	}
}
