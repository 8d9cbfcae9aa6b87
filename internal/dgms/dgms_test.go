package dgms

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

// testGrid builds a three-domain grid: sdsc (disk+parallel-fs), cern
// (disk) and archive.org (tape), with a /grid tree writable by "user".
func testGrid(t *testing.T) *Grid {
	t.Helper()
	g := New(Options{})
	for _, r := range []*vfs.Resource{
		vfs.New("sdsc-disk", "sdsc", vfs.Disk, 0),
		vfs.New("sdsc-gpfs", "sdsc", vfs.ParallelFS, 0),
		vfs.New("cern-disk", "cern", vfs.Disk, 0),
		vfs.New("tape", "archive.org", vfs.Archive, 0),
	} {
		if err := g.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/data"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegisterResource(t *testing.T) {
	g := testGrid(t)
	if err := g.RegisterResource(vfs.New("sdsc-disk", "sdsc", vfs.Disk, 0)); err == nil {
		t.Errorf("duplicate resource accepted")
	}
	if _, err := g.Resource("nope"); !errors.Is(err, ErrNoResource) {
		t.Errorf("unknown resource: %v", err)
	}
	if got := len(g.Resources()); got != 4 {
		t.Errorf("Resources = %d", got)
	}
	if got := g.ResourcesInDomain("sdsc"); len(got) != 2 {
		t.Errorf("ResourcesInDomain(sdsc) = %d", len(got))
	}
}

func TestIngestAndGet(t *testing.T) {
	g := testGrid(t)
	data := []byte("earthquake waveform")
	if err := g.Ingest("user", "/grid/data/wave.dat", int64(len(data)), data, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	e, err := g.Namespace().Lookup("/grid/data/wave.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Replicas) != 1 || e.Replicas[0].Resource != "sdsc-disk" || e.Replicas[0].Checksum.IsZero() {
		t.Errorf("replica record: %+v", e.Replicas)
	}
	got, err := g.Get("user", "", "/grid/data/wave.dat")
	if err != nil || string(got) != string(data) {
		t.Errorf("Get = %q, %v", got, err)
	}
	// Cross-domain read charges the network.
	if _, err := g.Get("user", "cern", "/grid/data/wave.dat"); err != nil {
		t.Fatal(err)
	}
	if g.Network().Traffic("sdsc", "cern") != int64(len(data)) {
		t.Errorf("cross-domain read not metered: %d", g.Network().Traffic("sdsc", "cern"))
	}
	// Clock advanced by the simulated IO.
	if !g.Clock().Now().After(sim.Epoch) {
		t.Errorf("clock did not advance")
	}
	// Meter charged the resource.
	if g.Meter().Busy("sdsc-disk") == 0 {
		t.Errorf("meter not charged")
	}
}

func TestIngestErrors(t *testing.T) {
	g := testGrid(t)
	if err := g.Ingest("user", "/grid/data/a", 1, nil, "nope"); !errors.Is(err, ErrNoResource) {
		t.Errorf("bad resource: %v", err)
	}
	if err := g.Ingest("stranger", "/grid/data/a", 1, nil, "sdsc-disk"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("no permission: %v", err)
	}
	if err := g.Ingest("user", "/grid/data/a", 1, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/data/a", 1, nil, "sdsc-disk"); !errors.Is(err, namespace.ErrExists) {
		t.Errorf("duplicate path: %v", err)
	}
	// Physical failure rolls back the logical entry.
	full := vfs.New("tiny", "sdsc", vfs.Disk, 10)
	if err := g.RegisterResource(full); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", "/grid/data/big", 100, nil, "tiny"); !errors.Is(err, vfs.ErrCapacity) {
		t.Errorf("capacity error: %v", err)
	}
	if g.Namespace().Exists("/grid/data/big") {
		t.Errorf("failed ingest left logical entry behind")
	}
	// Failure recorded in provenance.
	if n := g.Provenance().Count(provenance.Filter{Outcome: provenance.OutcomeError}); n == 0 {
		t.Errorf("no error provenance recorded")
	}
}

func TestReplicateMigrateTrim(t *testing.T) {
	g := testGrid(t)
	path := "/grid/data/set1"
	if err := g.Ingest("user", path, 1<<20, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", path, "cern-disk"); err != nil {
		t.Fatal(err)
	}
	reps, _ := g.Namespace().Replicas(path)
	if len(reps) != 2 {
		t.Fatalf("replicas = %v", reps)
	}
	// Replication moved bytes sdsc→cern.
	if g.Network().Traffic("sdsc", "cern") != 1<<20 {
		t.Errorf("replication traffic = %d", g.Network().Traffic("sdsc", "cern"))
	}
	// Checksum carried to the new replica.
	for _, r := range reps {
		if r.Checksum.IsZero() {
			t.Errorf("replica %s missing checksum", r.Resource)
		}
	}
	// Migrate sdsc→tape leaves cern + tape.
	if err := g.Migrate("user", path, "sdsc-disk", "tape"); err != nil {
		t.Fatal(err)
	}
	reps, _ = g.Namespace().Replicas(path)
	if len(reps) != 2 {
		t.Fatalf("after migrate: %v", reps)
	}
	names := map[string]bool{}
	for _, r := range reps {
		names[r.Resource] = true
	}
	if !names["cern-disk"] || !names["tape"] {
		t.Errorf("migrate placement: %v", names)
	}
	// Physical object removed from source.
	src, _ := g.Resource("sdsc-disk")
	if src.Count() != 0 {
		t.Errorf("source still holds %d objects", src.Count())
	}
	// Trim down to one replica; refuse the last.
	if err := g.Trim("user", path, "cern-disk", false); err != nil {
		t.Fatal(err)
	}
	if err := g.Trim("user", path, "tape", false); !errors.Is(err, ErrLastReplica) {
		t.Errorf("last replica trim: %v", err)
	}
	if err := g.Trim("user", path, "cern-disk", false); !errors.Is(err, ErrNoReplica) {
		t.Errorf("trim missing replica: %v", err)
	}
	// Migrate to same resource is a no-op.
	if err := g.Migrate("user", path, "tape", "tape"); err != nil {
		t.Errorf("self migrate: %v", err)
	}
	// Migrate from resource without replica fails.
	if err := g.Migrate("user", path, "cern-disk", "sdsc-disk"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("migrate without source: %v", err)
	}
	// Migrate when destination already holds a replica just trims source.
	if err := g.Replicate("user", path, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Migrate("user", path, "sdsc-disk", "tape"); err != nil {
		t.Fatal(err)
	}
	reps, _ = g.Namespace().Replicas(path)
	if len(reps) != 1 || reps[0].Resource != "tape" {
		t.Errorf("migrate onto existing replica: %v", reps)
	}
}

func TestDelete(t *testing.T) {
	g := testGrid(t)
	path := "/grid/data/tmp"
	if err := g.Ingest("user", path, 100, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", path, "tape"); err != nil {
		t.Fatal(err)
	}
	if err := g.Delete("user", path); err != nil {
		t.Fatal(err)
	}
	if g.Namespace().Exists(path) {
		t.Errorf("logical entry survived delete")
	}
	for _, name := range []string{"sdsc-disk", "tape"} {
		r, _ := g.Resource(name)
		if r.Count() != 0 {
			t.Errorf("%s still holds objects", name)
		}
	}
	if err := g.Delete("user", path); err == nil {
		t.Errorf("double delete succeeded")
	}
}

func TestGetPrefersFastReplica(t *testing.T) {
	g := testGrid(t)
	path := "/grid/data/hot"
	if err := g.Ingest("user", path, 1<<20, nil, "tape"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", path, "sdsc-gpfs"); err != nil {
		t.Fatal(err)
	}
	rep, res, err := g.pickSourceReplica(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resource != "sdsc-gpfs" || res.Class() != vfs.ParallelFS {
		t.Errorf("picked %s, want sdsc-gpfs", rep.Resource)
	}
	// Take the fast replica offline: falls back to tape.
	fast, _ := g.Resource("sdsc-gpfs")
	fast.SetOffline(true)
	rep, _, err = g.pickSourceReplica(path)
	if err != nil || rep.Resource != "tape" {
		t.Errorf("offline fallback: %v, %v", rep.Resource, err)
	}
	fast.SetOffline(false)
	// All offline → ErrNoReplica.
	tape, _ := g.Resource("tape")
	fast.SetOffline(true)
	tape.SetOffline(true)
	if _, _, err := g.pickSourceReplica(path); !errors.Is(err, ErrNoReplica) {
		t.Errorf("all offline: %v", err)
	}
}

func TestVerifyFixity(t *testing.T) {
	g := testGrid(t)
	path := "/grid/data/doc"
	data := []byte("library holdings")
	if err := g.Ingest("user", path, int64(len(data)), data, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", path, "cern-disk"); err != nil {
		t.Fatal(err)
	}
	if failed, err := g.Verify("user", path); err != nil || len(failed) != 0 {
		t.Fatalf("Verify = %v, %v", failed, err)
	}
	reps, err := g.Namespace().Replicas(path)
	if err != nil || len(reps) != 2 {
		t.Fatalf("Replicas = %v, %v", reps, err)
	}
	for _, r := range reps {
		if r.Checksum.IsZero() {
			t.Errorf("no digest recorded at write time: %+v", r)
		}
	}
	// Synthetic objects verify too (pseudo-digests are stable).
	if err := g.Ingest("user", "/grid/data/syn", 1<<20, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", "/grid/data/syn", "tape"); err != nil {
		t.Fatal(err)
	}
	if failed, err := g.Verify("user", "/grid/data/syn"); err != nil || len(failed) != 0 {
		t.Errorf("synthetic fixity failed: %v, %v", failed, err)
	}
}

func TestMetaAndSearch(t *testing.T) {
	g := testGrid(t)
	if err := g.Ingest("user", "/grid/data/a.dat", 10, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetMeta("user", "/grid/data/a.dat", "type", "waveform"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetMeta("stranger", "/grid/data/a.dat", "x", "y"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("stranger meta: %v", err)
	}
	got, err := g.Search("user", namespace.Query{
		ObjectsOnly: true,
		Conditions:  []namespace.Condition{{Attr: "type", Op: namespace.OpEq, Value: "waveform"}},
	})
	if err != nil || len(got) != 1 {
		t.Errorf("Search = %v, %v", got, err)
	}
	// A user without read permission sees nothing.
	got, err = g.Search("stranger", namespace.Query{ObjectsOnly: true})
	if err != nil || len(got) != 0 {
		t.Errorf("stranger search = %v, %v", got, err)
	}
}

func TestMoveLogical(t *testing.T) {
	g := testGrid(t)
	if err := g.Ingest("user", "/grid/data/old", 10, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Move("user", "/grid/data/old", "/grid/data/new"); err != nil {
		t.Fatal(err)
	}
	// Physical id unchanged — locating the bytes still works via replicas.
	if _, err := g.Get("user", "", "/grid/data/new"); err != nil {
		t.Errorf("Get after move: %v", err)
	}
	if err := g.Move("stranger", "/grid/data/new", "/grid/data/x"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("stranger move: %v", err)
	}
}

func TestEventsAndVeto(t *testing.T) {
	g := testGrid(t)
	var seen []string
	g.Bus().Subscribe(After, func(ev Event) error {
		seen = append(seen, string(ev.Type)+":"+ev.Path)
		return nil
	}, EventIngest, EventReplicate)
	if err := g.Ingest("user", "/grid/data/e1", 5, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", "/grid/data/e1", "tape"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "ingest:/grid/data/e1" {
		t.Errorf("events = %v", seen)
	}
	// Before handler vetoes deletes.
	g.Bus().Subscribe(Before, func(ev Event) error {
		return fmt.Errorf("retention policy forbids delete")
	}, EventDelete)
	err := g.Delete("user", "/grid/data/e1")
	if !errors.Is(err, ErrVetoed) {
		t.Errorf("veto: %v", err)
	}
	if !g.Namespace().Exists("/grid/data/e1") {
		t.Errorf("vetoed delete still removed the object")
	}
}

func TestBusOrderingPolicies(t *testing.T) {
	b := NewBus()
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		b.Subscribe(After, func(Event) error {
			order = append(order, i)
			return nil
		})
	}
	if err := b.Publish(Event{Type: EventIngest, Phase: After}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("subscription order = %v", order)
	}
	order = nil
	b.SetDeliveryOrder(OrderReverse, 0)
	_ = b.Publish(Event{Type: EventIngest, Phase: After})
	if fmt.Sprint(order) != "[3 2 1]" {
		t.Errorf("reverse order = %v", order)
	}
	// Shuffled order is deterministic for a fixed seed.
	b.SetDeliveryOrder(OrderShuffled, 7)
	order = nil
	_ = b.Publish(Event{Type: EventIngest, Phase: After})
	first := fmt.Sprint(order)
	b.SetDeliveryOrder(OrderShuffled, 7)
	order = nil
	_ = b.Publish(Event{Type: EventIngest, Phase: After})
	if fmt.Sprint(order) != first {
		t.Errorf("shuffled order not reproducible: %v vs %v", first, order)
	}
}

func TestBusSubscribeFilterAndErrors(t *testing.T) {
	b := NewBus()
	calls := 0
	id := b.Subscribe(After, func(Event) error {
		calls++
		return errors.New("handler failed")
	}, EventIngest)
	_ = b.Publish(Event{Type: EventDelete, Phase: After})  // filtered out
	_ = b.Publish(Event{Type: EventIngest, Phase: Before}) // wrong phase
	_ = b.Publish(Event{Type: EventIngest, Phase: After})
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
	b.Unsubscribe(id)
	b.Unsubscribe(999) // unknown id ignored
	if len(b.subs) != 0 {
		t.Errorf("%d subscriptions left", len(b.subs))
	}
	_ = b.Publish(Event{Type: EventIngest, Phase: After})
	if calls != 1 {
		t.Errorf("unsubscribed handler ran")
	}
}

func TestProvenanceTrail(t *testing.T) {
	g := testGrid(t)
	path := "/grid/data/audited"
	if err := g.Ingest("user", path, 50, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", path, "cern-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Migrate("user", path, "sdsc-disk", "tape"); err != nil {
		t.Fatal(err)
	}
	recs := g.Provenance().Query(provenance.Filter{TargetPrefix: path, Outcome: provenance.OutcomeOK})
	var actions []string
	for _, r := range recs {
		actions = append(actions, r.Action)
	}
	// ingest, replicate, then migrate (which itself records replicate+trim).
	want := []string{"ingest", "replicate", "replicate", "trim", "migrate"}
	if fmt.Sprint(actions) != fmt.Sprint(want) {
		t.Errorf("provenance actions = %v, want %v", actions, want)
	}
	// Timestamps are monotone non-decreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Errorf("provenance time went backwards at %d", i)
		}
	}
}

func TestCollectionOps(t *testing.T) {
	g := testGrid(t)
	if err := g.CreateCollectionAll("stranger", "/grid/deep/a/b"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("stranger mkdir -p: %v", err)
	}
	if err := g.CreateCollectionAll("user", "/grid/deep/a/b"); err != nil {
		t.Fatal(err)
	}
	if !g.Namespace().Exists("/grid/deep/a/b") {
		t.Errorf("mkdir -p failed")
	}
}

func TestChecksumOnIngestDisabled(t *testing.T) {
	off := false
	g := New(Options{ChecksumOnIngest: &off})
	if err := g.RegisterResource(vfs.New("d", "x", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(g.Admin(), "/grid/a", 10, nil, "d"); err != nil {
		t.Fatal(err)
	}
	reps, _ := g.Namespace().Replicas("/grid/a")
	if !reps[0].Checksum.IsZero() {
		t.Errorf("checksum recorded despite option off")
	}
}

func TestUserDomain(t *testing.T) {
	g := testGrid(t)
	if d := g.userDomain("alice@sdsc"); d != "sdsc" {
		t.Errorf("userDomain = %q", d)
	}
	if d := g.userDomain("alice"); d != "" {
		t.Errorf("userDomain bare = %q", d)
	}
}

func TestSimulatedTimeAccounting(t *testing.T) {
	// 1 GiB to tape at 30 MiB/s should take ≈ 34 s + 30 s mount; check the
	// virtual clock reflects the archive's slowness.
	g := testGrid(t)
	start := g.Clock().Now()
	if err := g.Ingest("user", "/grid/data/big", 1<<30, nil, "tape"); err != nil {
		t.Fatal(err)
	}
	elapsed := g.Clock().Now().Sub(start)
	if elapsed < time.Minute {
		t.Errorf("tape ingest too fast: %v", elapsed)
	}
}

// allocsGrid is a grid on the virtual clock whose provenance store
// retains every record, or, closed, is offered every record and retains
// none, with one resource "d" and the collection /grid.
func allocsGrid(t *testing.T, retain bool) *Grid {
	prov := provenance.NewMemory()
	if !retain {
		prov.Close()
	}
	g := New(Options{Clock: sim.NewVirtualClock(sim.Epoch), Provenance: prov})
	if err := g.RegisterResource(vfs.New("d", "x", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestIngestDeleteAllocs holds a grid operation to what it keeps: the
// namespace node and its name, and the size written out for the event.
// The first replica lives in the node, the physical object by value in
// the resource's map and its checksum as 16 bytes in both, where each
// was an allocation of its own. The events' details are carried inline
// and the provenance record's copied into the store's slab, so a
// retaining store costs what a closed one does.
func TestIngestDeleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const budget, parent = 4, 6
	for _, retain := range []bool{false, true} {
		g := allocsGrid(t, retain)
		got := testing.AllocsPerRun(100, func() {
			if err := g.Ingest(g.Admin(), "/grid/o.dat", 1024, nil, "d"); err != nil {
				t.Fatal(err)
			}
			if err := g.Delete(g.Admin(), "/grid/o.dat"); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ingest + delete of a synthetic object, provenance retained %v: %.0f allocations (budget %d, parent commit %d)", retain, got, budget, parent)
		if got > budget {
			t.Errorf("ingest + delete allocates %.0f with provenance retained %v, over the budget of %d", got, retain, budget)
		}
	}
}

// TestSetMetaAllocs: re-tagging an object — the permission check, the
// namespace write of an attribute it already has, the before and after
// events and the provenance record — allocates nothing, whether the
// store retains the record or not.
func TestSetMetaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for _, retain := range []bool{false, true} {
		g := allocsGrid(t, retain)
		if err := g.Ingest(g.Admin(), "/grid/o.dat", 1024, nil, "d"); err != nil {
			t.Fatal(err)
		}
		if err := g.SetMeta(g.Admin(), "/grid/o.dat", "tag", "v0"); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := g.SetMeta(g.Admin(), "/grid/o.dat", "tag", "v1"); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("re-tagging an object, provenance retained %v: %.0f allocations (parent commit 2)", retain, got)
		if got != 0 {
			t.Errorf("re-tagging an object allocates %.0f times with provenance retained %v, want 0", got, retain)
		}
		if recs := g.Provenance().Query(provenance.Filter{Action: "meta.set"}); retain && (len(recs) == 0 || !reflect.DeepEqual(recs[len(recs)-1].Detail, provenance.Attrs{{Key: "attr", Value: "tag"}, {Key: "value", Value: "v1"}})) {
			t.Errorf("the retained meta.set records read %+v", recs)
		}
	}
}

func BenchmarkIngest(b *testing.B) {
	g := New(Options{})
	if err := g.RegisterResource(vfs.New("d", "x", vfs.Disk, 0)); err != nil {
		b.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Ingest(g.Admin(), fmt.Sprintf("/grid/o%d", i), 1<<20, nil, "d"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicate(b *testing.B) {
	g := New(Options{})
	_ = g.RegisterResource(vfs.New("src", "a", vfs.Disk, 0))
	_ = g.RegisterResource(vfs.New("dst", "b", vfs.Disk, 0))
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := g.Ingest(g.Admin(), fmt.Sprintf("/grid/o%d", i), 1<<20, nil, "src"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Replicate(g.Admin(), fmt.Sprintf("/grid/o%d", i), "dst"); err != nil {
			b.Fatal(err)
		}
	}
}
