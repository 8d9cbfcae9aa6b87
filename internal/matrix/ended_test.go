package matrix

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/namespace"
)

// keepTrees makes e keep, for a test, the tree each of its runs ends
// with — the tree the run's record is encoded from — and returns the
// lookup: the tree of an execution, running or ended.
func keepTrees(e *Engine) func(*Execution) *node {
	var mu sync.Mutex
	trees := map[*Execution]*node{}
	e.ending = func(r *execRun) {
		mu.Lock()
		trees[r.Execution] = &r.root
		mu.Unlock()
	}
	return func(ex *Execution) *node {
		if r := ex.live.Load(); r != nil {
			return &r.root
		}
		mu.Lock()
		defer mu.Unlock()
		return trees[ex]
	}
}

// collectSucceeded is how the checkpoint set was gathered from a live
// tree before doneSink gathered it from a walk — of the tree or of a
// record: the reference both are held to.
func (n *node) collectSucceeded(into map[string]bool) {
	n.mu.Lock()
	state := n.state
	kind := n.kind
	remote := n.remote
	kids := n.children
	n.mu.Unlock()
	if remote != "" {
		if state == StateSucceeded || state == StateSkipped {
			into[n.id] = true
		}
		return
	}
	if kind == "step" && (state == StateSucceeded || state == StateSkipped) {
		into[n.id] = true
	}
	for _, c := range kids {
		c.collectSucceeded(into)
	}
}

// lineSink writes a status walk out as text, one line a node, times
// rendered as every sink renders them.
type lineSink struct{ b []byte }

func (s *lineSink) Open(n dgl.StatusNode) {
	s.b = fmt.Appendf(s.b, "(%q %q %q %q ", n.ID, n.Name, n.Kind, n.State)
	s.b = append(n.Finished.Append(append(n.Started.Append(s.b), ' ')), ' ')
	s.b = fmt.Appendf(s.b, "%q %q\n", n.Delegated, n.Error)
}

func (s *lineSink) Close() { s.b = append(s.b, ")\n"...) }

// ids lists the ids of the subtree, in walk order.
func (n *node) ids(into []string) []string {
	into = append(into, n.id)
	for _, c := range n.kids() {
		into = c.ids(into)
	}
	return into
}

// fuzzFlow builds a flow from shape: each byte adds one sub-flow to a
// sequential root — a step, a variable update, a parallel set of
// subflows (delegable; the first one a while loop when the byte's top
// bit is set, so a delegated subtree holds remote "[i]" ids), a
// forEach, a while loop, a switch or a failing step, which fails the
// flow unless the byte lets it continue.
func fuzzFlow(shape []byte) dgl.Flow {
	b := dgl.NewFlow("f").Var("acc", "").Var("n", "0")
	for i, c := range shape {
		name := "c" + strconv.Itoa(i)
		k := int(c>>4)%3 + 1
		sub := dgl.NewFlow(name)
		switch c % 7 {
		case 0:
			sub.Step("s", dgl.Op(dgl.OpNoop, nil))
		case 1:
			sub.Step("s", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "acc", "value": "${acc}" + name}))
		case 2:
			sub.Parallel()
			for j := 0; j < k; j++ {
				branch := dgl.NewFlow("p" + strconv.Itoa(j))
				if j == 0 && c&0x80 != 0 {
					branch.Var("l", "0").WhileLoop("$l < "+strconv.Itoa(k)).
						Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "l", "expr": "$l + 1"}))
				} else {
					branch.Step("s", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "v" + strconv.Itoa(j), "value": "x"}))
				}
				sub.SubFlow(branch)
			}
		case 3:
			sub.ForEachIn("it", strings.Repeat("a,", k)+"z").Step("s", dgl.Op(dgl.OpNoop, nil))
			if c&0x80 != 0 {
				sub.ParallelIterations()
			}
		case 4:
			b.Var("w"+name, "0")
			sub.WhileLoop("$w"+name+" < "+strconv.Itoa(k)).
				Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "w" + name, "expr": "$w" + name + " + 1"}))
		case 5:
			sub.SwitchOn(`"arm" + `+strconv.Itoa(k%2)).
				Step("arm0", dgl.Op(dgl.OpNoop, nil)).
				Step("arm1", dgl.Op(dgl.OpNoop, nil))
		case 6:
			st := dgl.Step{Name: "s", Operation: dgl.Op(dgl.OpFail, nil)}
			if c&0x40 != 0 {
				st.OnError = dgl.OnErrorContinue
			}
			sub.StepWith(st)
		}
		b.SubFlow(sub)
	}
	return b.Flow()
}

// endedView is what an execution answers at the transition, from its
// live tree: the walk of every node id with detail on and off, the
// root variables and the checkpoint set.
type endedView struct {
	ids   []string
	walks map[string]string
	vars  map[string]string
	done  map[string]bool
}

func viewTree(r *execRun) endedView {
	v := endedView{ids: r.root.ids(nil), walks: map[string]string{}, vars: r.scope.Snapshot(), done: map[string]bool{}}
	for _, id := range v.ids {
		n, ok := r.root.find(id)
		for _, detail := range []bool{false, true} {
			var s lineSink
			if ok {
				n.walk(detail, &s)
			} else { // a grafted child: another peer's id, resolved there
				s.b = []byte("not found")
			}
			v.walks[id+"|"+strconv.FormatBool(detail)] = string(s.b)
		}
	}
	r.root.collectSucceeded(v.done)
	return v
}

// FuzzEndedStatusMatchesTree holds an ended execution's record to the
// live tree it was encoded from, taken just before the transition: for
// every node id, with detail on and off, the walk from the record is
// the walk of the tree; and so are the root variables and the
// checkpoint set Restart gathers.
func FuzzEndedStatusMatchesTree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, true)
	f.Add([]byte{0x83, 0x22, 0x46, 0x14, 0x5}, false)
	f.Add([]byte{1, 6, 0}, true)
	f.Add([]byte{2, 0x32, 0x93, 0x24, 0x15, 0x01}, true)
	// Delegated subtrees, one holding a while loop's remote "[i]" ids,
	// beside local while loops of one to three passes.
	f.Add([]byte{0x80, 0x12, 0xaa, 0x20, 0x04, 0x25}, true)
	f.Add([]byte{0x80, 0x12, 0xaa, 0x20, 0x04, 0x25}, false)
	f.Fuzz(func(t *testing.T, shape []byte, delegate bool) {
		if len(shape) > 12 {
			shape = shape[:12]
		}
		e := newTestEngine(t)
		if delegate {
			e.SetDelegator(&fakeDelegator{t: t, remote: newRemoteEngine(t), peer: "peerB"})
		}
		var at endedView
		e.ending = func(r *execRun) {
			if r.root.name == "f" {
				at = viewTree(r)
			}
		}
		ex, err := e.Run("user", fuzzFlow(shape))
		if err != nil {
			t.Fatal(err)
		}
		if ex.live.Load() != nil {
			t.Fatal("an ended execution still holds its run")
		}
		for _, id := range at.ids {
			for _, detail := range []bool{false, true} {
				var s lineSink
				if err := e.WalkStatus(id, detail, &s); errors.Is(err, ErrNotFound) && len(s.b) == 0 {
					s.b = []byte("not found")
				} else if err != nil {
					t.Fatalf("%s detail=%v: %v", id, detail, err)
				}
				if want := at.walks[id+"|"+strconv.FormatBool(detail)]; string(s.b) != want {
					t.Fatalf("%s detail=%v: record walk\n%s\ntree walk\n%s", id, detail, s.b, want)
				}
			}
		}
		var root lineSink
		ex.WalkStatus(true, &root)
		if want := at.walks[at.ids[0]+"|true"]; string(root.b) != want {
			t.Fatalf("Execution.WalkStatus: record walk\n%s\ntree walk\n%s", root.b, want)
		}
		for _, id := range []string{ex.ID + "/f/nowhere", ex.ID + "/f/c0x", ex.ID + "/g"} {
			if !slices.Contains(at.ids, id) {
				if _, err := e.Status(id, true); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Status(%s) = %v, want ErrNotFound", id, err)
				}
			}
		}
		if got := ex.Vars(); !maps.Equal(got, at.vars) {
			t.Fatalf("Vars from the record %v, from the scope %v", got, at.vars)
		}
		done := doneSink{ids: map[string]bool{}}
		if _, err := codec.WalkEnded(ex.ended, "", true, &done); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(done.ids, at.done) {
			t.Fatalf("checkpoint set from the record %v, from the tree %v", done.ids, at.done)
		}
	})
}

// TestEndedFlowKeepsNoRequest: a succeeded flow cannot be restarted, so
// once it ends nothing of the engine holds its request — a finalizer on
// the request fires — while a failed flow keeps what Restart needs.
func TestEndedFlowKeepsNoRequest(t *testing.T) {
	e := newTestEngine(t)
	fired := make(chan struct{})
	func() {
		req := dgl.NewRequest("user", "", dgl.NewFlow("kept").Var("v", "x").
			Step("a", dgl.Op(dgl.OpNoop, nil)).Flow())
		runtime.SetFinalizer(req, func(*dgl.Request) { close(fired) })
		resp, err := e.Submit(req)
		if err != nil || resp.Error != "" || resp.Status.State != string(StateSucceeded) {
			t.Fatalf("submit: %v / %+v", err, resp)
		}
	}()
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-fired:
			done = true
		case <-deadline:
			t.Fatal("the succeeded flow's request is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if n := len(e.ListExecutions()); n != 1 {
		t.Fatalf("%d executions resident, want the ended one", n)
	}

	failed, err := e.Run("user", dgl.NewFlow("again").Step("ok", dgl.Op(dgl.OpNoop, nil)).
		Step("bad", dgl.Op(dgl.OpFail, nil)).Flow())
	if err != nil || failed.Err() == nil {
		t.Fatalf("failing flow: %v / %v", err, failed.Err())
	}
	next, err := e.Restart(failed.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = next.Wait()
	if st := next.Status(true); st.Name != "again" || st.Children[0].State != string(StateSkipped) {
		t.Fatalf("restart of a failed flow: %+v", st)
	}
}

// footprintEngine is a test engine that names its executions as a
// fleet peer does ("matrixA:dgf-000001").
func footprintEngine(t *testing.T) *Engine {
	g := newTestEngine(t).Grid()
	if err := g.CreateCollectionAll(g.Admin(), "/grid/w"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return NewEngineConfig(g, Config{IDPrefix: "matrixA:"})
}

// liveHeap is HeapAlloc with two collections run first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEndedExecutionFootprint: what an ended flow keeps resident in its
// engine, in the flow shapes of the contract benchmark — client_mix's
// preloaded one-step flows and its async submits (eight 128-byte
// variables, each request its own, as an XML decode makes them), and
// fleet_submit's four steps. It is the heap Prune gives back once 2 000
// of them ended, per flow (the table's own entry, which a Go map keeps
// after a delete, is not in it). Kept as their whole runs — Execution,
// request, tree and scope — they measured 1 735, 3 831 and 3 684 bytes
// on amd64; as a header and a record, 308, 1 381 (the variables are
// 1 100 of it) and 480; with each id kept as a suffix of its parent's,
// 283, 1 381 and 381. The budgets sit a little above the last.
func TestEndedExecutionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	payload := func(i, v int) string {
		return fmt.Sprintf("%03d-%d-", i%1000, v) + strings.Repeat("p", 122)
	}
	for _, shape := range []struct {
		name   string
		budget int64
		flow   func(i int) dgl.Flow
	}{
		{"client_mix preload", 320, func(i int) dgl.Flow {
			return dgl.NewFlow("pre-"+strconv.Itoa(i)).Step("noop", dgl.Op(dgl.OpNoop, nil)).Flow()
		}},
		{"client_mix submit", 1536, func(i int) dgl.Flow {
			b := dgl.NewFlow("mix-" + strconv.Itoa(i%1024))
			for v := 0; v < 8; v++ {
				b.Var("v"+strconv.Itoa(v), payload(i, v))
			}
			return b.Step("noop", dgl.Op(dgl.OpNoop, nil)).Flow()
		}},
		{"fleet_submit", 448, func(i int) dgl.Flow {
			path := "/grid/w/" + strconv.Itoa(i) + ".dat"
			binding := "fresh-" + strconv.Itoa(i)
			return dgl.NewFlow("job-"+strconv.Itoa(i%1024)).
				Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{"path": path, "size": "4096", "resource": "disk1"})).
				Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{"path": path, "attr": "run", "value": payload(i, 0)[:32]})).
				PureStep("derive", dgl.Op(dgl.OpExec, map[string]string{
					"command": "transform " + binding, "cpuSeconds": "0", "resultVar": "derived",
				}), "/grid/derived/"+binding+".dat").
				Step("drop", dgl.Op(dgl.OpDelete, map[string]string{"path": path})).
				Flow()
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			e := footprintEngine(t)
			const flows = 2000
			for i := 0; i < flows; i++ {
				ex, err := e.Run("user", shape.flow(i))
				if err != nil || ex.Err() != nil {
					t.Fatalf("flow %d: %v / %v", i, err, ex.Err())
				}
			}
			resident := liveHeap()
			if n := e.Prune(0); n != flows {
				t.Fatalf("pruned %d of %d", n, flows)
			}
			per := (resident - liveHeap()) / flows
			runtime.KeepAlive(e) // all that goes is what Prune let go
			t.Logf("%s: %d bytes per ended flow (budget %d)", shape.name, per, shape.budget)
			if per > shape.budget {
				t.Errorf("an ended %s flow keeps %d bytes, over the budget of %d: is the run state, the request or a tree of nodes kept past the end again?", shape.name, per, shape.budget)
			}
		})
	}
}

// TestStatusAcrossTheEnd: 1 000 flows cross the terminal transition
// while other goroutines ask after them by every door — the root and a
// leaf, detail on and off, Vars, ListExecutions, Restart and Prune.
// Under -race it is the proof that a reader racing the transition reads
// either the tree or the record, never half of one; in any build every
// answer must be one the flow could have given.
func TestStatusAcrossTheEnd(t *testing.T) {
	e := newTestEngine(t)
	const flows = 1000
	var mu sync.Mutex
	var started []*Execution
	pick := func(r *rand.Rand) *Execution {
		mu.Lock()
		defer mu.Unlock()
		if len(started) == 0 {
			return nil
		}
		// Mostly the newest: the flows crossing the transition now.
		return started[max(0, len(started)-1-r.Intn(min(len(started), 16)))]
	}
	terminal := func(s string) bool {
		return s == string(StateSucceeded) || s == string(StateFailed)
	}
	var polls atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(p)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ex := pick(r)
				if ex == nil {
					runtime.Gosched()
					continue
				}
				polls.Add(1)
				detail := r.Intn(2) == 0
				switch op := r.Intn(40); {
				case op < 12:
					st, err := e.Status(ex.ID, detail)
					if errors.Is(err, ErrNotFound) {
						continue // pruned
					}
					if err != nil || st.ID != ex.ID+"/w" || st.Name != "w" || (!detail && len(st.Children) > 0) || len(st.Children) > 3 {
						t.Errorf("Status(%s, %v) = %+v, %v", ex.ID, detail, st, err)
						return
					}
				case op < 24:
					leaf := ex.ID + "/w/b"
					st, err := e.Status(leaf, detail)
					if errors.Is(err, ErrNotFound) {
						continue // pruned, or not reached yet
					}
					if err != nil || st.ID != leaf || st.Kind != "step" || len(st.Children) != 0 {
						t.Errorf("Status(%s) = %+v, %v", leaf, st, err)
						return
					}
				case op < 34:
					if v := ex.Vars()["v"]; v != "" && v != "x" && v != "y" { // "" before the run declares it
						t.Errorf("Vars of %s: v = %q", ex.ID, v)
						return
					}
				case op < 37:
					for _, sum := range e.ListExecutions() {
						if sum.Name != "w" || sum.User != "user" {
							t.Errorf("listed %+v", sum)
							return
						}
					}
				case op < 39:
					if _, err := e.Restart(ex.ID); err != nil && !errors.Is(err, ErrNotRestartable) && !errors.Is(err, ErrNotFound) {
						t.Errorf("Restart(%s): %v", ex.ID, err)
						return
					}
				default:
					e.Prune(flows / 4)
				}
			}
		}(p)
	}
	for i := 0; i < flows; i++ {
		third := dgl.Op(dgl.OpNoop, nil)
		if i%5 == 0 {
			third = dgl.Op(dgl.OpFail, nil)
		}
		ex, err := e.Start("user", dgl.NewFlow("w").Var("v", "x").
			Step("a", dgl.Op(dgl.OpNoop, nil)).
			Step("b", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "v", "value": "y"})).
			Step("c", third).Flow())
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		started = append(started, ex)
		mu.Unlock()
		if i%8 == 7 {
			_ = ex.Wait() // let the pollers meet flows at every stage
		}
	}
	mu.Lock()
	all := slices.Clone(started)
	mu.Unlock()
	for i, ex := range all {
		werr := ex.Wait()
		st := ex.Status(true)
		if !terminal(st.State) || (werr == nil) != (st.State == string(StateSucceeded)) || (i%5 == 0) == (werr == nil) {
			t.Fatalf("%s ended %s with %v", ex.ID, st.State, werr)
		}
		if v := ex.Vars()["v"]; v != "y" {
			t.Fatalf("%s ended with v = %q", ex.ID, v)
		}
	}
	close(stop)
	wg.Wait()
	if polls.Load() == 0 {
		t.Fatal("no poll ran")
	}
}
