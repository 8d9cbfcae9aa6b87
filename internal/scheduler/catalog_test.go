package scheduler

import (
	"slices"
	"testing"

	"datagridflow/internal/vdata"
)

// The broker's virtual-data catalog is a vdata.Catalog; these tests hold
// it to the contract the broker relies on, recording derivations through
// Execute and looking them up under the key Execute files them by.

// derivationKey is the key Execute records a task's derivation under.
func derivationKey(b *Broker, op string, inputs ...string) string {
	return vdata.Key(op, inputs, nil, b.user)
}

// lookupOutputs returns the outputs of the derivation of op over inputs,
// and whether one is recorded.
func lookupOutputs(b *Broker, op string, inputs ...string) ([]string, bool) {
	ent, ok := b.catalog.Lookup(b.user, derivationKey(b, op, inputs...))
	return ent.Outputs, ok
}

func execute(t *testing.T, b *Broker, task *Task) {
	t.Helper()
	if _, err := b.Execute(task, CostBased, ""); err != nil {
		t.Fatal(err)
	}
}

func TestCatalog(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/a", 1<<20, "sdsc-disk")
	ingest(t, g, "/grid/in/b", 1<<20, "sdsc-disk")
	execute(t, b, &Task{Name: "t", Transformation: "fft", CPUSeconds: 1,
		Inputs: []string{"/grid/in/a", "/grid/in/b"}, Output: "/grid/in/out", OutputSize: 1024})
	// Input order irrelevant.
	if out, ok := lookupOutputs(b, "fft", "/grid/in/b", "/grid/in/a"); !ok || !slices.Equal(out, []string{"/grid/in/out"}) {
		t.Errorf("Lookup = %q, %v", out, ok)
	}
	if _, ok := lookupOutputs(b, "fft", "/grid/in/a"); ok {
		t.Errorf("a subset of the inputs found the derivation")
	}
	if _, ok := lookupOutputs(b, "other", "/grid/in/a", "/grid/in/b"); ok {
		t.Errorf("transformation not part of key")
	}
	if n := b.catalog.Len(); n != 1 {
		t.Errorf("Len = %d", n)
	}
	if n, err := b.catalog.Invalidate(g.Admin(), "/grid/in/out"); n != 1 || err != nil {
		t.Errorf("Invalidate = %d, %v", n, err)
	}
	if _, ok := lookupOutputs(b, "fft", "/grid/in/a", "/grid/in/b"); ok {
		t.Errorf("Invalidate failed")
	}
	if n, err := b.catalog.Invalidate(g.Admin(), "/never-recorded"); n != 0 || err != nil {
		t.Errorf("Invalidate of an unknown output = %d, %v", n, err)
	}
}

// Regression: re-recording a derivation against a new output path used
// to leave the old path pointing at the live key, so deleting the *old*
// path invalidated the *current* derivation.
func TestCatalogRerecordRetiresStaleReverseEntry(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/raw", 1<<20, "sdsc-disk")
	task := &Task{Name: "t", Transformation: "fft", CPUSeconds: 1,
		Inputs: []string{"/grid/in/raw"}, Output: "/grid/in/v1", OutputSize: 1024}
	execute(t, b, task)
	task.Output = "/grid/in/v2"
	execute(t, b, task)

	if n, err := b.catalog.Invalidate(g.Admin(), "/grid/in/v1"); n != 0 || err != nil {
		t.Fatalf("invalidating the retired path = %d, %v; want 0", n, err)
	}
	out, ok := lookupOutputs(b, "fft", "/grid/in/raw")
	if !ok || !slices.Equal(out, []string{"/grid/in/v2"}) {
		t.Fatalf("invalidating the retired path killed the live derivation: got %q, %v", out, ok)
	}
	// The live derivation still serves its task.
	execute(t, b, task)
	if executed, skipped := b.Stats(); executed != 2 || skipped != 1 {
		t.Fatalf("rerun of the live derivation: executed %d, skipped %d; want 2, 1", executed, skipped)
	}

	if n, err := b.catalog.Invalidate(g.Admin(), "/grid/in/v2"); n != 1 || err != nil {
		t.Fatalf("invalidating the live path = %d, %v; want 1", n, err)
	}
	if _, ok := lookupOutputs(b, "fft", "/grid/in/raw"); ok {
		t.Fatal("invalidating the live path left the derivation recorded")
	}
	if n := b.catalog.Len(); n != 0 {
		t.Fatalf("catalog not empty after invalidation: %d entries", n)
	}
}

// Regression: two derivations sharing an output path used to leave a
// dangling entry after Invalidate — only the last-recorded key was
// removed.
func TestCatalogSharedOutputInvalidatesAllKeys(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/a", 1<<20, "sdsc-disk")
	ingest(t, g, "/grid/in/b", 1<<20, "sdsc-disk")
	execute(t, b, &Task{Name: "t", Transformation: "fft", CPUSeconds: 1,
		Inputs: []string{"/grid/in/a"}, Output: "/grid/in/shared", OutputSize: 1024})
	// The output is deleted without invalidating fft's derivation, and
	// a second derivation writes the same path.
	if err := g.Delete(g.Admin(), "/grid/in/shared"); err != nil {
		t.Fatal(err)
	}
	execute(t, b, &Task{Name: "t", Transformation: "wavelet", CPUSeconds: 1,
		Inputs: []string{"/grid/in/b"}, Output: "/grid/in/shared", OutputSize: 1024})
	if n := b.catalog.Len(); n != 2 {
		t.Fatalf("expected 2 derivations, got %d", n)
	}

	if n, err := b.catalog.Invalidate(g.Admin(), "/grid/in/shared"); n != 2 || err != nil {
		t.Fatalf("invalidating the shared output = %d, %v; want 2", n, err)
	}
	if _, ok := lookupOutputs(b, "fft", "/grid/in/a"); ok {
		t.Fatal("fft derivation dangled after its output was invalidated")
	}
	if _, ok := lookupOutputs(b, "wavelet", "/grid/in/b"); ok {
		t.Fatal("wavelet derivation dangled after its output was invalidated")
	}
	if n := b.catalog.Len(); n != 0 {
		t.Fatalf("catalog not empty after shared-output invalidation: %d entries", n)
	}
}

// Input order must not change the derivation key, and invalidation is
// idempotent on unknown outputs.
func TestCatalogKeyCanonicalization(t *testing.T) {
	g, b := testRig(t)
	ingest(t, g, "/grid/in/a", 1<<20, "sdsc-disk")
	ingest(t, g, "/grid/in/b", 1<<20, "sdsc-disk")
	task := &Task{Name: "t", Transformation: "merge", CPUSeconds: 1,
		Inputs: []string{"/grid/in/b", "/grid/in/a"}, Output: "/grid/in/m", OutputSize: 1024}
	execute(t, b, task)
	reordered := *task
	reordered.Inputs = []string{"/grid/in/a", "/grid/in/b"}
	execute(t, b, &reordered)
	if executed, skipped := b.Stats(); executed != 1 || skipped != 1 {
		t.Fatalf("input order changed the derivation key: executed %d, skipped %d", executed, skipped)
	}
	if n, err := b.catalog.Invalidate(g.Admin(), "/grid/in/never-recorded"); n != 0 || err != nil {
		t.Fatalf("Invalidate of an unknown output = %d, %v", n, err)
	}
	execute(t, b, &reordered)
	if executed, skipped := b.Stats(); executed != 1 || skipped != 2 {
		t.Fatalf("invalidating an unknown output disturbed the catalog: executed %d, skipped %d", executed, skipped)
	}
}
