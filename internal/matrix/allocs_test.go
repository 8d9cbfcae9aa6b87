package matrix

import (
	"strconv"
	"testing"

	"datagridflow/internal/dgl"
)

// TestEngineStepAllocs guards what one step of a flow costs end to end —
// Run, scope, interpolation, the DGMS operation with its permission
// check, event, provenance record and metrics, the status tree — so that
// re-deriving canonical keys (namespace paths split and re-joined per
// lookup, a label map and a sorted key string per metric hit) cannot
// creep back unnoticed. The flows measure 54 and 45 allocations; the
// budgets leave room for another toolchain's map and string internals
// and still sit well under what the parent commit paid.
func TestEngineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	e := newTestEngine(t)
	run := func(flow dgl.Flow) {
		ex, err := e.Run("user", flow)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run(dgl.NewFlow("seed").Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/allocs"})).
		Step("put", dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/allocs/tagged.dat", "size": "64", "resource": "disk1"})).Flow())
	seq := 0
	for _, tc := range []struct {
		name           string
		budget, parent float64
		flow           func() dgl.Flow
	}{
		{"ingest", 75, 107, func() dgl.Flow {
			seq++
			return dgl.NewFlow("one").Step("put", dgl.Op(dgl.OpIngest, map[string]string{
				"path": "/grid/allocs/" + strconv.Itoa(seq) + ".dat", "size": "64", "resource": "disk1"})).Flow()
		}},
		{"setMeta", 58, 71, func() dgl.Flow {
			return dgl.NewFlow("one").Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{
				"path": "/grid/allocs/tagged.dat", "attr": "tag", "value": "v"})).Flow()
		}},
	} {
		got := testing.AllocsPerRun(100, func() { run(tc.flow()) })
		t.Logf("one-step %s flow: %.0f allocations (budget %.0f, parent commit %.0f)", tc.name, got, tc.budget, tc.parent)
		if got > tc.budget {
			t.Errorf("one-step %s flow is over budget: is a canonical key being rebuilt per call again?", tc.name)
		}
	}
}
