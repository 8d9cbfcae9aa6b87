package ilm

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

func TestValueModelDecay(t *testing.T) {
	m := NewValueModel()
	t0 := sim.Epoch
	m.Record("/a", t0)
	m.Record("/a", t0)
	if got := m.AccessMass("/a", t0); got != 2 {
		t.Errorf("mass = %v", got)
	}
	// One half-life later the mass has halved.
	if got := m.AccessMass("/a", t0.Add(m.HalfLife)); got < 0.99 || got > 1.01 {
		t.Errorf("decayed mass = %v, want ≈1", got)
	}
	// Recording after decay compounds correctly.
	m.Record("/a", t0.Add(m.HalfLife))
	if got := m.AccessMass("/a", t0.Add(m.HalfLife)); got < 1.99 || got > 2.01 {
		t.Errorf("mass after re-access = %v, want ≈2", got)
	}
	// Unknown paths have zero mass.
	if m.AccessMass("/nope", t0) != 0 {
		t.Errorf("unknown path has mass")
	}
}

func TestValueScoring(t *testing.T) {
	m := NewValueModel()
	t0 := sim.Epoch
	// Fresh and hot data scores high.
	for i := 0; i < 10; i++ {
		m.Record("/hot", t0)
	}
	hot := m.Value("/hot", t0, t0)
	// Stale, never-accessed data scores low.
	cold := m.Value("/cold", t0.Add(-365*24*time.Hour), t0)
	if hot < 70 {
		t.Errorf("hot value = %v", hot)
	}
	if cold > 5 {
		t.Errorf("cold value = %v", cold)
	}
	if hot <= cold {
		t.Errorf("ordering violated: hot %v <= cold %v", hot, cold)
	}
	// Freshly created but unaccessed sits in between.
	mid := m.Value("/new", t0, t0)
	if mid <= cold || mid >= hot {
		t.Errorf("fresh-unaccessed value = %v not between %v and %v", mid, cold, hot)
	}
}

// Property: Value is always within [0, 100] and monotone in access count.
func TestQuickValueBounds(t *testing.T) {
	f := func(accesses uint8, ageDays uint16) bool {
		m := NewValueModel()
		t0 := sim.Epoch
		created := t0.Add(-time.Duration(ageDays) * 24 * time.Hour)
		prev := -1.0
		for i := 0; i <= int(accesses%20); i++ {
			v := m.Value("/p", created, t0)
			if v < 0 || v > 100 || v < prev {
				return false
			}
			prev = v
			m.Record("/p", t0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWindow(t *testing.T) {
	// Night window 20→06.
	night := Window{StartHour: 20, EndHour: 6}
	day := func(h int) time.Time {
		return time.Date(2005, 8, 1, h, 0, 0, 0, time.UTC) // a Monday
	}
	if night.Contains(day(12)) {
		t.Errorf("noon inside night window")
	}
	if !night.Contains(day(22)) || !night.Contains(day(3)) {
		t.Errorf("night hours outside window")
	}
	if night.Contains(day(6)) {
		t.Errorf("end hour should be exclusive")
	}
	// NextOpen from noon lands at 20:00 same day.
	next := night.NextOpen(day(12))
	if next.Hour() != 20 || next.Day() != 1 {
		t.Errorf("NextOpen = %v", next)
	}
	// Already open: unchanged.
	if got := night.NextOpen(day(22)); !got.Equal(day(22)) {
		t.Errorf("NextOpen inside window = %v", got)
	}
	// Weekend-only window.
	weekend := Window{Days: []time.Weekday{time.Saturday, time.Sunday}}
	if weekend.Contains(day(12)) { // Monday
		t.Errorf("Monday inside weekend window")
	}
	sat := weekend.NextOpen(day(12))
	if sat.Weekday() != time.Saturday {
		t.Errorf("NextOpen weekend = %v (%v)", sat, sat.Weekday())
	}
	// The zero window contains everything.
	var always Window
	if !always.Contains(day(0)) || !always.NextOpen(day(5)).Equal(day(5)) {
		t.Errorf("the zero window is not always open")
	}
	// Wrapping window with day restriction: Friday 20:00 → Saturday 03:00
	// belongs to Friday's opening.
	friNight := Window{StartHour: 20, EndHour: 6, Days: []time.Weekday{time.Friday}}
	fri22 := time.Date(2005, 8, 5, 22, 0, 0, 0, time.UTC) // Friday
	sat03 := time.Date(2005, 8, 6, 3, 0, 0, 0, time.UTC)  // Saturday small hours
	mon03 := time.Date(2005, 8, 1, 3, 0, 0, 0, time.UTC)  // Monday small hours
	if !friNight.Contains(fri22) || !friNight.Contains(sat03) {
		t.Errorf("Friday-night window misses its own hours")
	}
	if friNight.Contains(mon03) {
		t.Errorf("Monday 03:00 inside Friday-night window")
	}
}

// ilmGrid builds a grid with hot/cold tiers and a set of objects on disk.
func ilmGrid(t testing.TB, n int) (*dgms.Grid, *matrix.Engine) {
	t.Helper()
	g := dgms.New(dgms.Options{})
	for _, r := range []*vfs.Resource{
		vfs.New("gpfs", "sdsc", vfs.ParallelFS, 0),
		vfs.New("disk", "sdsc", vfs.Disk, 0),
		vfs.New("tape", "archive", vfs.Archive, 0),
	} {
		if err := g.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/data"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/grid/data/f%03d", i)
		if err := g.Ingest(g.Admin(), path, 1<<20, nil, "disk"); err != nil {
			t.Fatal(err)
		}
	}
	return g, matrix.NewEngine(g)
}

func TestPolicyPlanAndExecute(t *testing.T) {
	g, e := ilmGrid(t, 9)
	model := NewValueModel()
	now := g.Clock().Now()
	// Make f000..f002 hot, leave f003..f005 warm (fresh), f006..f008 cold
	// (backdate by forcing value via metadata instead for determinism).
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			model.Record(fmt.Sprintf("/grid/data/f%03d", i), now)
		}
	}
	// Use MetaValuer for exact control of bands.
	for i := 0; i < 9; i++ {
		v := "50"
		if i < 3 {
			v = "90"
		} else if i >= 6 {
			v = "5"
		}
		if err := g.SetMeta(g.Admin(), fmt.Sprintf("/grid/data/f%03d", i), "value", v); err != nil {
			t.Fatal(err)
		}
	}
	pol := Policy{
		Name:  "tiering",
		Owner: g.Admin(),
		Scope: "/grid/data",
		Tiers: []Tier{
			{MinValue: 70, Resource: "gpfs"},
			{MinValue: 20, Resource: "disk"},
			{MinValue: 0, Resource: "tape"},
		},
	}
	decisions, stats, err := pol.Plan(g, MetaValuer{}, now)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Examined != 9 {
		t.Errorf("examined = %d", stats.Examined)
	}
	// 3 hot move to gpfs, 3 warm stay on disk, 3 cold move to tape.
	if stats.Migrates != 6 || stats.Deletes != 0 {
		t.Errorf("stats = %+v, decisions = %+v", stats, decisions)
	}
	if stats.BytesToMove != 6<<20 {
		t.Errorf("bytes = %d", stats.BytesToMove)
	}
	// Execute the compiled flow.
	flow := pol.Compile(decisions)
	ex, err := e.Run(g.Admin(), flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	gpfs, _ := g.Resource("gpfs")
	tape, _ := g.Resource("tape")
	disk, _ := g.Resource("disk")
	if gpfs.Count() != 3 || tape.Count() != 3 || disk.Count() != 3 {
		t.Errorf("placement: gpfs=%d disk=%d tape=%d", gpfs.Count(), disk.Count(), tape.Count())
	}
	// Re-planning after execution is a fixpoint: nothing to move.
	decisions, stats, err = pol.Plan(g, MetaValuer{}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 0 {
		t.Errorf("plan not idempotent: %+v", decisions)
	}
}

func TestPolicyDelete(t *testing.T) {
	g, e := ilmGrid(t, 4)
	for i := 0; i < 4; i++ {
		v := "50"
		if i >= 2 {
			v = "1"
		}
		if err := g.SetMeta(g.Admin(), fmt.Sprintf("/grid/data/f%03d", i), "value", v); err != nil {
			t.Fatal(err)
		}
	}
	pol := Policy{
		Name: "purge", Owner: g.Admin(), Scope: "/grid/data",
		Tiers:       []Tier{{MinValue: 0, Resource: "disk"}},
		DeleteBelow: 10,
	}
	decisions, stats, err := pol.Plan(g, MetaValuer{}, g.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deletes != 2 {
		t.Errorf("deletes = %d", stats.Deletes)
	}
	ex, err := e.Run(g.Admin(), pol.Compile(decisions))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if g.Namespace().Exists("/grid/data/f003") || !g.Namespace().Exists("/grid/data/f001") {
		t.Errorf("purge hit the wrong objects")
	}
}

func TestPolicyKeepReplica(t *testing.T) {
	g, e := ilmGrid(t, 2)
	for i := 0; i < 2; i++ {
		if err := g.SetMeta(g.Admin(), fmt.Sprintf("/grid/data/f%03d", i), "value", "90"); err != nil {
			t.Fatal(err)
		}
	}
	pol := Policy{
		Name: "defensive", Owner: g.Admin(), Scope: "/grid/data",
		Tiers:       []Tier{{MinValue: 70, Resource: "gpfs"}, {MinValue: 0, Resource: "disk"}},
		KeepReplica: true,
	}
	decisions, stats, err := pol.Plan(g, MetaValuer{}, g.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replicas != 2 || stats.Migrates != 0 {
		t.Errorf("stats = %+v", stats)
	}
	ex, err := e.Run(g.Admin(), pol.Compile(decisions))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	reps, _ := g.Namespace().Replicas("/grid/data/f000")
	if len(reps) != 2 {
		t.Errorf("replicas = %v", reps)
	}
}

func TestImplodingStar(t *testing.T) {
	g, e := ilmGrid(t, 5)
	flow, err := ImplodingStar(g, g.Admin(), "/grid/data", "tape", true)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Run(g.Admin(), flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	tape, _ := g.Resource("tape")
	disk, _ := g.Resource("disk")
	if tape.Count() != 5 || disk.Count() != 0 {
		t.Errorf("imploding star placement: tape=%d disk=%d", tape.Count(), disk.Count())
	}
	// Second run is a no-op (already archived).
	flow2, err := ImplodingStar(g, g.Admin(), "/grid/data", "tape", true)
	if err != nil {
		t.Fatal(err)
	}
	if flow2.CountSteps() != 0 {
		t.Errorf("imploding star not idempotent: %d steps", flow2.CountSteps())
	}
}

func TestExplodingStar(t *testing.T) {
	g := dgms.New(dgms.Options{})
	// CERN-like topology: source plus two tiers.
	resources := []*vfs.Resource{
		vfs.New("cern", "cern", vfs.Disk, 0),
		vfs.New("fnal", "fnal", vfs.Disk, 0),
		vfs.New("in2p3", "in2p3", vfs.Disk, 0),
		vfs.New("ufl", "ufl", vfs.Disk, 0),
		vfs.New("caltech", "caltech", vfs.Disk, 0),
	}
	for _, r := range resources {
		if err := g.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/cms"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := g.Ingest(g.Admin(), fmt.Sprintf("/grid/cms/run%d", i), 1<<20, nil, "cern"); err != nil {
			t.Fatal(err)
		}
	}
	e := matrix.NewEngine(g)
	flow, err := ExplodingStar(g, g.Admin(), "/grid/cms",
		[][]string{{"fnal", "in2p3"}, {"ufl", "caltech"}})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Run(g.Admin(), flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// Every object now has 5 replicas.
	for i := 0; i < 4; i++ {
		reps, _ := g.Namespace().Replicas(fmt.Sprintf("/grid/cms/run%d", i))
		if len(reps) != 5 {
			t.Errorf("run%d replicas = %d", i, len(reps))
		}
	}
	// Staging: tier-2 pulled from tier-1, so CERN's outbound traffic is
	// only the tier-1 fan-out (2 resources × 4 objects × 1 MiB), not all 4.
	cernOut := g.Network().Traffic("cern", "fnal") + g.Network().Traffic("cern", "in2p3") +
		g.Network().Traffic("cern", "ufl") + g.Network().Traffic("cern", "caltech")
	if cernOut != 8<<20 {
		t.Errorf("CERN outbound = %d bytes, want tier-1 only (8 MiB)", cernOut)
	}
	tier1Out := g.Network().Traffic("fnal", "ufl") + g.Network().Traffic("fnal", "caltech") +
		g.Network().Traffic("in2p3", "ufl") + g.Network().Traffic("in2p3", "caltech")
	if tier1Out != 8<<20 {
		t.Errorf("tier-1 outbound = %d bytes, want 8 MiB", tier1Out)
	}
}

func TestMetaValuer(t *testing.T) {
	e := namespace.Entry{Metadata: map[string]string{"value": "42.5", "prio": "7"}}
	if got := (MetaValuer{}).Value(e, time.Time{}); got != 42.5 {
		t.Errorf("default attr = %v", got)
	}
	if got := (MetaValuer{Attr: "prio"}).Value(e, time.Time{}); got != 7 {
		t.Errorf("custom attr = %v", got)
	}
	if got := (MetaValuer{Attr: "missing"}).Value(e, time.Time{}); got != 0 {
		t.Errorf("missing attr = %v", got)
	}
}

func TestModelValuer(t *testing.T) {
	m := NewValueModel()
	now := sim.Epoch
	m.Record("/x", now)
	e := namespace.Entry{Path: "/x", Created: now}
	if got := (ModelValuer{Model: m}).Value(e, now); got <= 0 {
		t.Errorf("ModelValuer = %v", got)
	}
}

func TestPlanBadScope(t *testing.T) {
	g, _ := ilmGrid(t, 1)
	pol := Policy{Name: "x", Owner: g.Admin(), Scope: "/missing"}
	if _, _, err := pol.Plan(g, MetaValuer{}, g.Clock().Now()); err == nil {
		t.Errorf("bad scope accepted")
	}
	if _, err := ImplodingStar(g, g.Admin(), "/missing", "tape", false); err == nil {
		t.Errorf("imploding star bad scope accepted")
	}
	if _, err := ExplodingStar(g, g.Admin(), "/missing", nil); err == nil {
		t.Errorf("exploding star bad scope accepted")
	}
}

func BenchmarkE6PlanLargeCollection(b *testing.B) {
	g, _ := ilmGrid(b, 2000)
	for i := 0; i < 2000; i++ {
		v := fmt.Sprint(i % 100)
		if err := g.SetMeta(g.Admin(), fmt.Sprintf("/grid/data/f%03d", i), "value", v); err != nil {
			b.Fatal(err)
		}
	}
	pol := Policy{
		Name: "bench", Owner: g.Admin(), Scope: "/grid/data",
		Tiers: []Tier{{MinValue: 70, Resource: "gpfs"}, {MinValue: 20, Resource: "disk"}, {MinValue: 0, Resource: "tape"}},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pol.Plan(g, MetaValuer{}, g.Clock().Now()); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: NextOpen always returns an instant inside the window (when
// reachable within the search horizon), and Contains is consistent with
// the window's own definition of wrap-around.
func TestQuickWindowNextOpen(t *testing.T) {
	f := func(startH, endH uint8, dayPick uint8, hourOffset uint16) bool {
		w := Window{StartHour: int(startH % 24), EndHour: int(endH % 24)}
		if dayPick%3 == 0 { // sometimes restrict to a single weekday
			w.Days = []time.Weekday{time.Weekday(dayPick % 7)}
		}
		start := sim.Epoch.Add(time.Duration(hourOffset%500) * time.Hour)
		next := w.NextOpen(start)
		if next.Before(start) {
			return false
		}
		return w.Contains(next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the tier selected for a value is always the highest band at
// or below it.
func TestQuickTargetTier(t *testing.T) {
	pol := Policy{Tiers: []Tier{
		{MinValue: 80, Resource: "a"},
		{MinValue: 40, Resource: "b"},
		{MinValue: 0, Resource: "c"},
	}}
	f := func(raw uint16) bool {
		v := float64(raw % 101)
		got := pol.targetTier(v)
		switch {
		case v >= 80:
			return got == "a"
		case v >= 40:
			return got == "b"
		default:
			return got == "c"
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
