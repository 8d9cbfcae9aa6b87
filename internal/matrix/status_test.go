package matrix

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
)

// status is how a subtree became a FlowStatus before the tree was walked
// into sinks (state.go: walk, snapshot): the reference the walk and its
// three consumers are held to.
func (n *node) status(detail bool) dgl.FlowStatus {
	n.mu.Lock()
	out := dgl.FlowStatus{
		ID:        n.id,
		Name:      n.name,
		Kind:      n.kind,
		State:     string(n.state),
		Error:     n.err,
		Delegated: n.remote,
	}
	if !n.started.IsZero() {
		out.Started = n.started.UTC().Format(time.RFC3339Nano)
	}
	if !n.finished.IsZero() {
		out.Finished = n.finished.UTC().Format(time.RFC3339Nano)
	}
	kids := append([]*node(nil), n.children...)
	n.mu.Unlock()
	if detail {
		for _, c := range kids {
			out.Children = append(out.Children, c.status(true))
		}
	}
	return out
}

// checkWalk holds the walk of n to the reference: the builder gives the
// reference's FlowStatus, the binary writer the bytes AppendResponse
// gives for it, the XML writer the document Marshal gives for it.
func checkWalk(t testing.TB, n *node, detail bool) {
	t.Helper()
	want := n.status(detail)
	if got := n.snapshot(detail); !reflect.DeepEqual(got, want) {
		t.Fatalf("detail=%v: walk + builder\n got %+v\nwant %+v", detail, got, want)
	}
	resp := &dgl.Response{Status: &want}

	ref, enc := codec.GetEncoder(), codec.GetEncoder()
	defer codec.PutEncoder(ref)
	defer codec.PutEncoder(enc)
	codec.AppendResponse(ref, resp)
	var bw codec.ResponseWriter
	bw.Begin(enc)
	n.walk(detail, &bw)
	bw.End("")
	if !bytes.Equal(enc.Bytes(), ref.Bytes()) {
		t.Fatalf("detail=%v: walk + binary writer differs from AppendResponse of the reference status", detail)
	}

	doc, err := dgl.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var xw dgl.ResponseWriter
	xw.Begin(nil)
	n.walk(detail, &xw)
	if got := xw.End(""); !bytes.Equal(got, doc) {
		t.Fatalf("detail=%v: walk + XML writer differs from Marshal of the reference status\n got %s\nwant %s", detail, got, doc)
	}
}

// TestWalkMatchesReferenceStatus runs the benchmark's 137-step flow —
// loops, a parallel forEach, a switch with a skipped arm — and a flow
// that fails, and holds every consumer of the tree walk to the
// reference status on each.
func TestWalkMatchesReferenceStatus(t *testing.T) {
	e := dagEngine(t)
	ex, err := e.Run("user", dagFlow(1))
	if err != nil || ex.Err() != nil {
		t.Fatalf("dag flow: %v / %v", err, ex.Err())
	}
	failing, err := e.Run("user", dgl.NewFlow("broken").
		Step("ok", dgl.Op(dgl.OpNoop, nil)).
		Step("bad", dgl.Op(dgl.OpDelete, map[string]string{"path": "/grid/<nowhere>&"})).Flow())
	if err != nil || failing.Err() == nil {
		t.Fatalf("failing flow: %v / %v", err, failing.Err())
	}
	// A delegated subtree: grafted children under foreign ids.
	failing.root.kids()[0].graftRemote("peerB:dgf-000042", &dgl.FlowStatus{Children: []dgl.FlowStatus{
		{ID: "peerB:dgf-000042/sub/a", Name: "a", Kind: "step", State: "succeeded",
			Started: "2026-10-03T09:00:00.5Z", Finished: "2026-10-03T09:00:01Z"},
	}})
	for _, root := range []*node{&ex.root, &failing.root} {
		for _, detail := range []bool{false, true} {
			checkWalk(t, root, detail)
		}
	}
	if n := len(ex.Status(true).Children); n != 4 {
		t.Fatalf("dag status has %d top-level children, want 4", n)
	}
}

// FuzzStatusWalk builds node trees of arbitrary shape and content and
// holds the walk and its consumers to the reference status.
func FuzzStatusWalk(f *testing.F) {
	f.Add([]byte{0x3f, 0x01, 0x1c, 0x00, 0x22}, "flow/step<&>\"x\" é\x00", int64(1790000000123456789))
	f.Add([]byte{0x02, 0x02, 0x00, 0x00, 0x00}, "", int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "2026-10-03T09:00:00Z", int64(-1))
	f.Fuzz(func(t *testing.T, shape []byte, text string, nanos int64) {
		if len(shape) > 64 {
			shape = shape[:64]
		}
		word := func(i int) string {
			if len(text) == 0 {
				return ""
			}
			from := i * 3 % len(text)
			return text[from:min(from+1+i%7, len(text))]
		}
		var build func(depth int) *node
		build = func(depth int) *node {
			b := byte(0)
			if len(shape) > 0 {
				b, shape = shape[0], shape[1:]
			}
			i := len(shape)
			n := &node{id: word(i), name: word(i + 1), kind: word(i + 2), state: State(word(i + 3))}
			if b&4 != 0 {
				n.err = word(i + 4)
			}
			if b&8 != 0 {
				n.started = time.Unix(0, nanos+int64(i))
			}
			if b&16 != 0 {
				n.finished = time.Unix(0, nanos) // often equal to another: a symbol reference
			}
			if b&32 != 0 {
				n.remote = word(i + 5)
			}
			for k := 0; k < int(b&3) && depth < 6; k++ {
				n.children = append(n.children, build(depth+1))
			}
			return n
		}
		root := build(0)
		checkWalk(t, root, true)
		checkWalk(t, root, false)
	})
}

// TestStatusOfLeafAllocs: resolving a node id descends along the ids
// that lead to it and snapshots that node alone, so polling one leaf of
// the 137-step flow costs what polling the leaf of a 2-step flow costs —
// the builder and two rendered times — whatever stands beside it.
func TestStatusOfLeafAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := dagEngine(t)
	leafOf := func(flow dgl.Flow) (*Execution, string) {
		ex, err := e.Run("user", flow)
		if err != nil || ex.Err() != nil {
			t.Fatalf("%s: %v / %v", flow.Name, err, ex.Err())
		}
		st := ex.Status(true)
		for len(st.Children) > 0 {
			st = st.Children[len(st.Children)-1]
		}
		return ex, st.ID
	}
	poll := func(ex *Execution, id string) float64 {
		return testing.AllocsPerRun(200, func() {
			if st, err := ex.StatusOf(id, false); err != nil || st.ID != id {
				t.Fatalf("StatusOf(%s) = %+v, %v", id, st, err)
			}
		})
	}
	big, bigLeaf := leafOf(dagFlow(2))
	small, smallLeaf := leafOf(dgl.NewFlow("two").Step("a", dgl.Op(dgl.OpNoop, nil)).Step("b", dgl.Op(dgl.OpNoop, nil)).Flow())
	if !strings.Contains(bigLeaf, "/clean[31]/") {
		t.Fatalf("the dag flow's last leaf is %s, want one under clean[31]", bigLeaf)
	}
	inBig, inSmall := poll(big, bigLeaf), poll(small, smallLeaf)
	t.Logf("StatusOf a leaf: %.1f allocations in the 137-step flow, %.1f in the 2-step flow", inBig, inSmall)
	if inBig != inSmall || inBig > 4 {
		t.Errorf("StatusOf a leaf allocates %.1f in the 137-step flow and %.1f in the 2-step flow; want the same, at most 4", inBig, inSmall)
	}
	if _, err := big.StatusOf(bigLeaf+"x", false); err == nil {
		t.Error("an id one byte past a leaf's resolved")
	}
	if _, err := big.StatusOf(strings.Replace(bigLeaf, "clean[31]", "clean[3]", 1)+"/nope", false); err == nil {
		t.Error("an id below a leaf resolved")
	}
}

// TestPollRacesForEach polls an execution — the whole tree, and one
// iteration by id — while a parallel forEach attaches its iterations and
// their children beside the poller. Under -race this is the proof that
// reading the children without copying them is sound; in any build every
// snapshot must be a tree the run could have shown: iterations in order,
// each a prefix of what the end state holds.
func TestPollRacesForEach(t *testing.T) {
	e := newTestEngine(t)
	const items = 48
	list := make([]string, items)
	for i := range list {
		list[i] = fmt.Sprint(i)
	}
	gate := make(chan struct{})
	e.RegisterOp("gate", func(c *OpContext) error {
		select {
		case <-gate:
			return nil
		case <-c.Cancel:
			return ErrCancelled
		}
	})
	flow := dgl.NewFlow("racy").
		SubFlow(dgl.NewFlow("hold").Step("gate", dgl.Op("gate", nil))).
		SubFlow(dgl.NewFlow("fan").ForEachIn("it", strings.Join(list, ",")).ParallelIterations().
			Step("a", dgl.Op(dgl.OpNoop, nil)).
			Step("b", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "seen", "value": "${it}"}))).
		SubFlow(dgl.NewFlow("loop").ForEachIn("it", strings.Join(list, ",")).
			Step("c", dgl.Op(dgl.OpNoop, nil))).
		Flow()
	ex := startFlow(t, e, flow)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			iter := fmt.Sprintf("%s/racy/loop[%d]", ex.ID, items-1-p)
			for polls := 0; ; polls++ {
				select {
				case <-stop:
					return
				default:
				}
				st := ex.Status(true)
				for _, sub := range st.Children {
					for i, it := range sub.Children {
						if sub.Name != "hold" && it.ID != fmt.Sprintf("%s[%d]", sub.ID, i) {
							t.Errorf("poll saw %s as child %d of %s", it.ID, i, sub.ID)
							return
						}
					}
				}
				if got, err := ex.StatusOf(iter, true); err == nil && got.ID != iter {
					t.Errorf("StatusOf(%s) answered with %s", iter, got.ID)
					return
				}
				if polls == 3 && p == 0 {
					close(gate) // the run starts attaching once a poller is in its stride
				}
			}
		}(p)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	final := ex.Status(true)
	if len(final.Children) != 3 || len(final.Children[1].Children) != items || len(final.Children[2].Children) != items {
		t.Fatalf("final tree: %d top-level children, want 3 with %d iterations in each loop", len(final.Children), items)
	}
	checkWalk(t, &ex.root, true)
}
