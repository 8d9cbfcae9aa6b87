package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
)

// itemList is "0,1,…,n-1".
func itemList(n int) string {
	items := make([]string, n)
	for i := range items {
		items[i] = strconv.Itoa(i)
	}
	return strings.Join(items, ",")
}

// TestBlockSlotsAreOwnedOnce: a handler may keep its *OpContext and its
// Scope, so a slot of a block's slabs is handed out once and never
// written again — not by a neighbouring iteration, not by the next block,
// not by the retry of the same step. An op stashes both from every call
// in a parallel forEach of 200 items (7 blocks, 3 workers), one step of
// which fails its first attempt; after the flow ends every stashed pair
// still reads the parameters and variables of its own iteration and
// attempt, and goes on doing so while the pairs of every even iteration
// are overwritten under it.
func TestBlockSlotsAreOwnedOnce(t *testing.T) {
	e := NewEngineConfig(newTestEngine(t).Grid(), Config{MaxParallel: 3})
	const items = 200
	type kept struct {
		c       *OpContext
		scope   *Scope
		step    string
		it      string // the iteration's item
		attempt int    // of the flaky step: 1 or 2
	}
	var mu sync.Mutex
	var stash []kept
	tries := map[string]int{}
	e.RegisterOp("keep", func(c *OpContext) error {
		step, it := c.ParamOr("step", ""), c.ParamOr("x", "")
		mu.Lock()
		tries[step+it]++
		attempt := tries[step+it]
		stash = append(stash, kept{c, c.Scope, step, it, attempt})
		mu.Unlock()
		if step == "flaky" && attempt == 1 {
			c.Scope.Set("tries", expr.Int(1)) // the retry binds ${tries} afresh
			return errors.New("first attempt fails")
		}
		return nil
	})
	flow := dgl.NewFlow("own").ForEachIn("it", itemList(items)).ParallelIterations().
		SubFlow(dgl.NewFlow("body").Var("tries", "0").
			StepWith(dgl.Step{Name: "flaky", OnError: dgl.OnErrorRetry, Retries: 2,
				Operation: dgl.Op("keep", map[string]string{"step": "flaky", "x": "${it}", "n": "${tries}"})})).
		SubFlow(dgl.NewFlow("tail").
			Step("plain", dgl.Op("keep", map[string]string{"step": "plain", "x": "${it}", "n": "-"}))).Flow()
	mustRun(t, e, flow)

	if len(stash) != 3*items {
		t.Fatalf("stashed %d calls, want %d", len(stash), 3*items)
	}
	ctxs, scopes := map[*OpContext]bool{}, map[*Scope]bool{}
	for _, k := range stash {
		ctxs[k.c], scopes[k.scope] = true, true
	}
	// Both attempts of flaky run in body's scope, plain in tail's.
	if len(ctxs) != 3*items || len(scopes) != 2*items {
		t.Fatalf("%d distinct contexts and %d distinct scopes, want %d and %d", len(ctxs), len(scopes), 3*items, 2*items)
	}
	check := func(k kept) {
		t.Helper()
		wantN, wantTries := "-", ""
		if k.step == "flaky" {
			wantN, wantTries = strconv.Itoa(k.attempt-1), "1"
		}
		if x, n := k.c.ParamOr("x", ""), k.c.ParamOr("n", ""); x != k.it || n != wantN || k.c.ParamOr("step", "") != k.step {
			t.Errorf("%s of iteration %s, attempt %d: context reads x=%q n=%q, want %q and %q", k.step, k.it, k.attempt, x, n, k.it, wantN)
		}
		if k.c.Scope != k.scope || !strings.HasSuffix(k.c.NodeID, "["+k.it+"]/"+map[string]string{"flaky": "body/flaky", "plain": "tail/plain"}[k.step]) {
			t.Errorf("%s of iteration %s: context holds scope %p (stashed %p) and node %s", k.step, k.it, k.c.Scope, k.scope, k.c.NodeID)
		}
		it, _ := k.scope.Lookup("it")
		tries, _ := k.scope.Lookup("tries")
		if it.AsString() != k.it || tries.AsString() != wantTries {
			t.Errorf("%s of iteration %s: scope reads it=%q tries=%q, want %q and %q", k.step, k.it, it.AsString(), tries.AsString(), k.it, wantTries)
		}
	}
	for _, k := range stash {
		check(k)
	}
	odd := func(k kept) bool { n, _ := strconv.Atoi(k.it); return n%2 == 1 }
	for _, k := range stash {
		if !odd(k) {
			*k.c = OpContext{op: k.c.op, vals: []string{"\xff", "\xff", "\xff"}}
			k.scope.Declare("tries", expr.String("\xff"))
			k.scope.parent.Declare("it", expr.String("\xff")) // the iteration's own scope
		}
	}
	for _, k := range stash {
		if odd(k) {
			check(k)
		}
	}
}

// treeLines flattens the reference walk of a status tree (status_test.go)
// into one "id state" line per attached node, ids relative to the root's.
func treeLines(root *node) []string {
	var lines []string
	var walk func(st dgl.FlowStatus)
	walk = func(st dgl.FlowStatus) {
		lines = append(lines, strings.TrimPrefix(st.ID, root.id)+" "+st.State)
		for _, c := range st.Children {
			walk(c)
		}
	}
	walk(root.status(true))
	return lines
}

func diffLines(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("status tree line %d of %d (want %d lines):\n got %q\nwant %q", i, len(got), len(want), g, w)
		}
	}
}

// blockFlow is a forEach of n items whose body holds a switch (one arm
// skipped each pass) and a flow of two steps — so a region has nodes
// that end skipped, nodes that are never reached, and nodes of every
// terminal state.
func blockFlow(n int, parallel bool, op string) dgl.Flow {
	loop := dgl.NewFlow("each").ForEachIn("it", itemList(n))
	if parallel {
		loop.ParallelIterations()
	}
	return loop.
		SubFlow(dgl.NewFlow("pick").SwitchOn(`"arm" + ($it % 2)`).
			Step("arm0", dgl.Op(dgl.OpNoop, nil)).
			Step("arm1", dgl.Op(dgl.OpNoop, nil))).
		SubFlow(dgl.NewFlow("do").
			Step("work", dgl.Op(op, map[string]string{"x": "${it}"})).
			Step("after", dgl.Op(dgl.OpNoop, nil))).Flow()
}

// iterLines is what one iteration of blockFlow shows: its own node, the
// switch with the skipped arm listed before the chosen one, then the
// second flow — in the iteration's state — with its two steps in the
// given states ("" = never attached).
func iterLines(i int, iter, work, after State) []string {
	at := "[" + strconv.Itoa(i) + "]"
	lines := []string{
		at + " " + string(iter),
		at + "/pick succeeded",
		at + "/pick/arm" + strconv.Itoa(1-i%2) + " skipped",
		at + "/pick/arm" + strconv.Itoa(i%2) + " succeeded",
		at + "/do " + string(iter),
		at + "/do/work " + string(work),
	}
	if after != "" {
		lines = append(lines, at+"/do/after "+string(after))
	}
	return lines
}

// TestBlocksShowTheTreeIterationsShowed holds the status tree and the
// joined error of loops that stop part-way through a block to what they
// were when every iteration opened its own region: the same nodes
// attached, in the same order, in the same states — the nodes of the
// rest of the block allocated, and invisible.
func TestBlocksShowTheTreeIterationsShowed(t *testing.T) {
	const items = 70 // three blocks, the last one short

	t.Run("errors in two iterations of a parallel loop", func(t *testing.T) {
		e := NewEngineConfig(newTestEngine(t).Grid(), Config{MaxParallel: 3})
		tree := keepTrees(e)
		e.RegisterOp("boom", func(c *OpContext) error {
			if x := c.ParamOr("x", ""); x == "40" || x == "7" {
				return errors.New("boom " + x)
			}
			return nil
		})
		ex, err := e.Run("user", blockFlow(items, true, "boom"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ex.Wait()); got != "boom 7\nboom 40" {
			t.Errorf("joined error = %q, want iteration 7's then iteration 40's", got)
		}
		want := []string{" failed"}
		for i := 0; i < items; i++ {
			if i == 7 || i == 40 {
				want = append(want, iterLines(i, StateFailed, StateFailed, "")...)
			} else {
				want = append(want, iterLines(i, StateSucceeded, StateSucceeded, StateSucceeded)...)
			}
		}
		diffLines(t, treeLines(tree(ex)), want)
		checkWalk(t, tree(ex), true)
	})

	t.Run("cancel in the middle of a sequential loop's block", func(t *testing.T) {
		e := newTestEngine(t)
		tree := keepTrees(e)
		e.RegisterOp("stop", func(c *OpContext) error {
			if c.ParamOr("x", "") == "40" {
				ex, _ := c.Engine.Execution(c.ExecID)
				ex.Cancel()
			}
			return nil
		})
		ex, err := e.Run("user", blockFlow(items, false, "stop"))
		if err != nil {
			t.Fatal(err)
		}
		if werr := ex.Wait(); !errors.Is(werr, ErrCancelled) {
			t.Errorf("run error = %v, want ErrCancelled", werr)
		}
		want := []string{" cancelled"}
		for i := 0; i < 40; i++ {
			want = append(want, iterLines(i, StateSucceeded, StateSucceeded, StateSucceeded)...)
		}
		// Iteration 40's last step is reached and refused; 41 and after,
		// eight of them in the open block, are never attached.
		want = append(want, iterLines(40, StateCancelled, StateSucceeded, StateCancelled)...)
		diffLines(t, treeLines(tree(ex)), want)
		checkWalk(t, tree(ex), true)
	})

	t.Run("cancel with a parallel loop's first block in flight", func(t *testing.T) {
		e := NewEngineConfig(newTestEngine(t).Grid(), Config{MaxParallel: 3})
		tree := keepTrees(e)
		var reached atomic.Int32
		inFlight := make(chan struct{})
		e.RegisterOp("gate", func(c *OpContext) error {
			if reached.Add(1) == 3 {
				close(inFlight)
			}
			<-c.Cancel
			return ErrCancelled
		})
		ex := startFlow(t, e, blockFlow(items, true, "gate"))
		<-inFlight
		// Three workers hold iterations 0–2; the other 29 of their block
		// and the two blocks behind it show pending and childless.
		want := []string{" running"}
		for i := 0; i < items; i++ {
			if i < 3 {
				want = append(want, iterLines(i, StateRunning, StateRunning, "")...)
			} else {
				want = append(want, "["+strconv.Itoa(i)+"] pending")
			}
		}
		diffLines(t, treeLines(tree(ex)), want)
		ex.Cancel()
		if werr := ex.Wait(); !errors.Is(werr, ErrCancelled) || strings.Count(werr.Error(), "\n") != items-1 {
			t.Errorf("run error = %v, want %d joined cancellations", werr, items)
		}
		want = []string{" cancelled"}
		for i := 0; i < items; i++ {
			if i < 3 {
				want = append(want, iterLines(i, StateCancelled, StateCancelled, "")...)
			} else {
				want = append(want, "["+strconv.Itoa(i)+"] cancelled")
			}
		}
		diffLines(t, treeLines(tree(ex)), want)
		checkWalk(t, tree(ex), true)
	})
}

// TestForEachOpensOneBlockAhead: a sequential forEach over 100 000 items
// opens ⌈n/blockSize⌉ blocks, each when its first iteration is reached —
// so at every step the loop runs, fewer than a block of regions stand
// opened and unused, however long the item list. Counted at the opener,
// not read off the heap.
func TestForEachOpensOneBlockAhead(t *testing.T) {
	items := 100000
	if raceEnabled || testing.Short() {
		items = 10000
	}
	e := dagEngine(t) // retains no provenance
	var blocks, opened, reached, ahead int
	blockOpened = func(owner *planFlow, regions int) {
		if owner.src.Name == "sweep" {
			blocks++
			opened += regions
		}
	}
	defer func() { blockOpened = nil }()
	e.RegisterOp("probe", func(*OpContext) error {
		ahead = max(ahead, opened-reached) // this iteration's own region included
		reached++
		return nil
	})
	runToEnd(t, e, dgl.NewFlow("sweep").Repeat("i", items).Step("one", dgl.Op("probe", nil)).Flow())
	if reached != items || opened != items || blocks != (items+blockSize-1)/blockSize {
		t.Errorf("%d iterations ran on %d regions in %d blocks, want %d on %d in %d", reached, opened, blocks, items, items, (items+blockSize-1)/blockSize)
	}
	if ahead > blockSize {
		t.Errorf("%d regions were open ahead of the iteration running, want at most a block of %d", ahead, blockSize)
	}
}

// TestRegionsTakenOutOfOrder: the workers of a parallel loop pull indices
// in order and arrive at the opener in any. Whatever the arrival order,
// blocks open in index order, every iteration gets the region built on
// its own node, and a block is let go of with its last region.
func TestRegionsTakenOutOfOrder(t *testing.T) {
	const items = 70
	flow := blockFlow(items, true, dgl.OpNoop)
	p, err := buildPlan(&flow, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf := p.root
	loop := &node{id: "x:dgf-1/each", name: "each"}
	var sizes []int
	blockOpened = func(_ *planFlow, regions int) { sizes = append(sizes, regions) }
	defer func() { blockOpened = nil }()
	r := &iterRegions{owner: pf, iters: iterNodes(loop, items)}

	order := []int{40} // an arrival from the second block opens the first too
	for i := 0; i < items; i++ {
		if at := i/3*3 + 2 - i%3; at != 40 && at < items { // each trio of workers backwards
			order = append(order, at)
		}
	}
	order = append(order, items-1) // 69 = 23 trios: the last index stands alone
	seen := map[*node]bool{}
	for n, i := range order {
		reg := r.take(i) // n-th arrival
		first := &reg.nodes[0]
		if want := fmt.Sprintf("x:dgf-1/each[%d]/pick", i); first.id != want || seen[first] ||
			len(reg.nodes) != 6 || len(reg.scopes) != 3 || len(reg.ctxs) != 4 {
			t.Fatalf("take(%d): first node %q (want %q, taken before: %v), %d nodes, %d scopes, %d contexts",
				i, first.id, want, seen[first], len(reg.nodes), len(reg.scopes), len(reg.ctxs))
		}
		seen[first] = true
		if n == 0 && len(r.live) != 2 || len(r.live) > 2 {
			t.Fatalf("after %d takes %d blocks are live", n+1, len(r.live))
		}
	}
	if fmt.Sprint(sizes) != "[32 32 6]" {
		t.Errorf("blocks opened with %v regions, want [32 32 6]", sizes)
	}
	for _, lb := range r.live[:cap(r.live)] {
		if len(r.live) != 0 || lb.block.nodes != nil {
			t.Fatalf("every region is taken and the opener still holds blocks: %d live, %+v", len(r.live), lb)
		}
	}
}

// whileFlow is a flow around a while loop of n passes whose body is a
// flow that counts and a switch with an arm skipped each pass.
func whileFlow(n int) dgl.Flow {
	return dgl.NewFlow("w").Var("i", "0").
		SubFlow(dgl.NewFlow("first").Step("s", dgl.Op(dgl.OpNoop, nil))).
		SubFlow(dgl.NewFlow("loop").WhileLoop("$i < " + strconv.Itoa(n)).
			SubFlow(dgl.NewFlow("bump").Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"}))).
			SubFlow(dgl.NewFlow("pick").SwitchOn(`"arm" + ($i % 2)`).
				Step("arm0", dgl.Op(dgl.OpNoop, nil)).
				Step("arm1", dgl.Op(dgl.OpNoop, nil)))).
		SubFlow(dgl.NewFlow("last").Step("t", dgl.Op(dgl.OpNoop, nil))).
		Flow()
}

// whileStatusDump runs whileFlow for 1, 3 and 40 passes, each on a fresh
// engine, and writes out, as XML status replies: the whole tree, the
// loop's node alone and its last iteration's subtree.
func whileStatusDump(t *testing.T) []byte {
	var out []byte
	for _, n := range []int{1, 3, 40} {
		e := dagEngine(t)
		tree := keepTrees(e)
		ex, err := e.Run("user", whileFlow(n))
		if err != nil || ex.Err() != nil {
			t.Fatalf("%d passes: %v / %v", n, err, ex.Err())
		}
		loop := ex.ID + "/w/loop"
		for _, q := range []struct {
			id     string
			detail bool
		}{{ex.ID, true}, {loop, false}, {loop + "[" + strconv.Itoa(n-1) + "]", true}} {
			var xw dgl.ResponseWriter
			xw.Begin(nil)
			if err := e.WalkStatus(q.id, q.detail, &xw); err != nil {
				t.Fatal(err)
			}
			out = append(out, "== "+strconv.Itoa(n)+" passes: "+q.id+" detail="+strconv.FormatBool(q.detail)+"\n"...)
			out = append(out, xw.End("")...)
			out = append(out, '\n')
		}
		checkWalk(t, tree(ex), true)
	}
	return out
}

// TestGoldenWhileStatus holds the status replies of while loops of 1, 3
// and 40 passes — the first block alone, a block cut short, blocks up to
// the largest — to testdata/while_status_v1.txt, which the build that
// opened every pass on its own wrote: the same ids, names, states and
// times, byte for byte.
func TestGoldenWhileStatus(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "while_status_v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := whileStatusDump(t); !bytes.Equal(got, want) {
		diffLines(t, strings.Split(string(got), "\n"), strings.Split(string(want), "\n"))
	}
}

// TestWhileStatusMidLoop: a status query while a loop is in its fourth
// block sees the passes reached and no more — the rest of the block is
// opened, and invisible.
func TestWhileStatusMidLoop(t *testing.T) {
	e := newTestEngine(t)
	tree := keepTrees(e)
	const stopAt = 9 // passes 7–14 are one block
	reached, release := make(chan struct{}), make(chan struct{})
	e.RegisterOp("hold", func(c *OpContext) error {
		if c.ParamOr("at", "") == strconv.Itoa(stopAt) {
			close(reached)
			<-release
		}
		return nil
	})
	flow := dgl.NewFlow("mid").Var("i", "0").WhileLoop("$i < 20").
		Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"})).
		Step("wait", dgl.Op("hold", map[string]string{"at": "${i}"})).Flow()
	ex := startFlow(t, e, flow)
	<-reached
	want := []string{" running"}
	for i := 0; i < stopAt-1; i++ {
		at := "[" + strconv.Itoa(i) + "]"
		want = append(want, at+" succeeded", at+"/inc succeeded", at+"/wait succeeded")
	}
	at := "[" + strconv.Itoa(stopAt-1) + "]"
	want = append(want, at+" running", at+"/inc succeeded", at+"/wait running")
	diffLines(t, treeLines(tree(ex)), want)
	checkWalk(t, tree(ex), true)
	if _, err := e.Status(tree(ex).id+"["+strconv.Itoa(stopAt)+"]", false); err == nil {
		t.Error("a pass not yet reached resolved by id")
	}
	close(release)
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := len(ex.Status(true).Children); n != 20 {
		t.Errorf("%d passes shown after the loop ended, want 20", n)
	}
}

// TestWhileOpensOneBlockAhead: a while loop of 1 000 passes opens blocks
// of 1, 2, 4, 8, 16 and then 32 passes, each when its first pass is
// reached, so at every step fewer than a block of regions stand opened
// and unused — and the last block, cut short by the guard, is the only
// one with passes that never run.
func TestWhileOpensOneBlockAhead(t *testing.T) {
	const passes = 1000
	e := dagEngine(t) // retains no provenance
	var sizes []int
	var opened, reached, ahead int
	blockOpened = func(owner *planFlow, regions int) {
		if owner.src.Name == "spin" {
			sizes = append(sizes, regions)
			opened += regions
		}
	}
	defer func() { blockOpened = nil }()
	e.RegisterOp("probe", func(*OpContext) error {
		ahead = max(ahead, opened-reached) // this pass's own region included
		reached++
		return nil
	})
	runToEnd(t, e, dgl.NewFlow("spin").Var("i", "0").WhileLoop("$i < "+strconv.Itoa(passes)).
		Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"})).
		Step("one", dgl.Op("probe", nil)).Flow())
	want := []int{1, 2, 4, 8, 16}
	for n := 31; n < passes; n += blockSize {
		want = append(want, blockSize)
	}
	if reached != passes || fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("%d passes ran in blocks of %v, want %d in %v", reached, sizes, passes, want)
	}
	if ahead > blockSize {
		t.Errorf("%d regions were open ahead of the pass running, want at most a block of %d", ahead, blockSize)
	}
}
