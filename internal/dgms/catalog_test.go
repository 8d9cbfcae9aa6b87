package dgms

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/vfs"
)

// TestIngestAfterMoveKeepsBothCopies: a move leaves physical ids alone,
// so the copies of a moved object still carry its old path. A new object
// ingested or replicated under that old path, on the same resources,
// must get copies of its own and leave the moved object's untouched.
func TestIngestAfterMoveKeepsBothCopies(t *testing.T) {
	g := testGrid(t)
	const a, b = "/grid/data/a.dat", "/grid/data/b.dat"
	if err := g.Ingest("user", a, 3, []byte("old"), "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", a, "cern-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Move("user", a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest("user", a, 3, []byte("new"), "sdsc-disk"); err != nil {
		t.Fatalf("ingest under a moved object's old path: %v", err)
	}
	if err := g.Replicate("user", a, "cern-disk"); err != nil {
		t.Fatalf("replicate under a moved object's old path: %v", err)
	}

	cern, _ := g.Resource("cern-disk")
	if err := g.Replicate("user", a, "cern-disk"); !errors.Is(err, dgferr.ErrExists) || cern.Count() != 2 {
		t.Errorf("a second copy on one resource: %v, and the resource holds %d objects; want an exists error and 2", err, cern.Count())
	}

	ids := map[string]string{}
	for path, want := range map[string]string{a: "new", b: "old"} {
		reps, err := g.Namespace().Replicas(path)
		if err != nil || len(reps) != 2 {
			t.Fatalf("%s: replicas %+v, %v", path, reps, err)
		}
		for _, rep := range reps {
			key := rep.Resource + ":" + rep.PhysicalID
			if other, ok := ids[key]; ok {
				t.Errorf("%s and %s share the physical copy %s", other, path, key)
			}
			ids[key] = path
			res, err := g.Resource(rep.Resource)
			if err != nil {
				t.Fatal(err)
			}
			if data, _, err := res.Get(rep.PhysicalID); err != nil || string(data) != want {
				t.Errorf("%s on %s reads %q, %v; want %q", path, key, data, err, want)
			}
		}
		failed, err := g.Verify("user", path)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range failed {
			t.Errorf("%s fails fixity on %s", path, res)
		}
	}

	for _, path := range []string{a, b} {
		if err := g.Delete("user", path); err != nil {
			t.Fatalf("delete %s: %v", path, err)
		}
	}
	for _, name := range []string{"sdsc-disk", "cern-disk"} {
		res, _ := g.Resource(name)
		if n := res.Count(); n != 0 {
			t.Errorf("%s holds %d objects after both were deleted", name, n)
		}
	}
	if s := g.Namespace().Stats(); s.Objects != 0 {
		t.Errorf("namespace stats after the deletes: %+v", s)
	}
	if _, err := g.Namespace().Lookup(a); err == nil {
		t.Errorf("%s still listed", a)
	}
}

// TestCatalogFootprint holds what a catalogued object costs to the bytes
// its records take: 50 000 synthetic objects with one replica each,
// measured as the live heap they add. An object has no bytes, so all of
// it is bookkeeping — the namespace node, its entry in the collection's
// children map, its path and its entry in the resource's map.
func TestCatalogFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const objects, budget = 50000, 260
	prov := provenance.NewMemory()
	prov.Close()
	g := New(Options{Provenance: prov})
	if err := g.RegisterResource(vfs.New("d", "x", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/pre"); err != nil {
		t.Fatal(err)
	}
	grown := heapGrowth(func() {
		for i := 0; i < objects; i++ {
			if err := g.Ingest(g.Admin(), "/grid/pre/"+strconv.Itoa(i)+".dat", 1024, nil, "d"); err != nil {
				t.Fatal(err)
			}
		}
	})
	runtime.KeepAlive(g)
	if s := g.Namespace().Stats(); s.Objects != objects {
		t.Fatalf("stats %+v, want %d objects", s, objects)
	}
	per := grown / objects
	t.Logf("a catalogued object takes %d bytes (parent commit: 434)", per)
	if per > budget {
		t.Errorf("a catalogued object takes %d bytes, over the budget of %d", per, budget)
	}
}

// TestCatalogKeepsNoCallerBuffer: a networked request's strings are cut
// from its payload, so an object the catalog kept by the caller's
// strings — owner, path, physical id, resource key — would keep the
// whole payload alive. Once the caller drops it, the buffer must go.
func TestCatalogKeepsNoCallerBuffer(t *testing.T) {
	g := testGrid(t)
	// Ingest once with the caller's own strings, so the buffer is not
	// the first to name the user or the resources.
	if err := g.Ingest("user", "/grid/data/warm", 1, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		buf := "user|/grid/data/new/a.dat|sdsc-disk|cern-disk|" + strings.Repeat("b", 1<<20)
		runtime.SetFinalizer(unsafe.StringData(buf), func(*byte) { close(collected) })
		f := strings.Split(buf[:strings.LastIndexByte(buf, '|')], "|")
		user, path, disk, other := f[0], f[1], f[2], f[3]
		if err := g.CreateCollectionAll(user, namespace.Parent(path)); err != nil {
			t.Fatal(err)
		}
		if err := g.Ingest(user, path, 1, nil, disk); err != nil {
			t.Fatal(err)
		}
		if err := g.Replicate(user, path, other); err != nil {
			t.Fatal(err)
		}
	}()
	if !collectedAfterGC(collected) {
		t.Fatal("a 1 MB request the caller dropped is still reachable after GC")
	}
	reps, err := g.Namespace().Replicas("/grid/data/new/a.dat")
	if err != nil || len(reps) != 2 || reps[0].PhysicalID != "/grid/data/new/a.dat" || reps[1].Resource != "cern-disk" {
		t.Fatalf("replicas %+v, %v", reps, err)
	}
}

// heapGrowth returns how much more heap is live after fn than before it.
func heapGrowth(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// collectedAfterGC runs the collector until done is closed, or gives up.
func collectedAfterGC(done <-chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}
