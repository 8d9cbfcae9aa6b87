package dgms

import (
	"errors"
	"slices"
	"testing"

	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
)

func TestRegisterInPlace(t *testing.T) {
	g := testGrid(t)
	disk, _ := g.Resource("sdsc-disk")
	// Legacy data written outside the grid.
	if _, err := disk.Put("hpss/archive/0042", 9, []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterInPlace("user", "/grid/data/onboarded", "sdsc-disk", "hpss/archive/0042"); err != nil {
		t.Fatal(err)
	}
	e, err := g.Namespace().Lookup("/grid/data/onboarded")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 9 || len(e.Replicas) != 1 || e.Replicas[0].PhysicalID != "hpss/archive/0042" {
		t.Errorf("entry = %+v", e)
	}
	if e.Replicas[0].Checksum.IsZero() {
		t.Errorf("fixity digest not recorded at registration")
	}
	// No second physical object appeared.
	if disk.Count() != 1 {
		t.Errorf("register copied data: %d objects", disk.Count())
	}
	// Reads and verification work against the foreign physical id.
	data, err := g.Get("user", "", "/grid/data/onboarded")
	if err != nil || string(data) != "old bytes" {
		t.Errorf("Get = %q, %v", data, err)
	}
	if failed, err := g.Verify("user", "/grid/data/onboarded"); err != nil || len(failed) != 0 {
		t.Errorf("Verify = %v, %v", failed, err)
	}
	// Error paths.
	if err := g.RegisterInPlace("user", "/grid/data/x", "nope", "id"); !errors.Is(err, ErrNoResource) {
		t.Errorf("bad resource: %v", err)
	}
	if err := g.RegisterInPlace("user", "/grid/data/x", "sdsc-disk", "missing"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("missing physical: %v", err)
	}
	if err := g.RegisterInPlace("stranger", "/grid/data/x", "sdsc-disk", "hpss/archive/0042"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("stranger: %v", err)
	}
	if err := g.RegisterInPlace("user", "/grid/data/onboarded", "sdsc-disk", "hpss/archive/0042"); !errors.Is(err, namespace.ErrExists) {
		t.Errorf("duplicate path: %v", err)
	}
	// Provenance recorded.
	if n := g.Provenance().Count(provenance.Filter{Action: "register", Outcome: provenance.OutcomeOK}); n != 1 {
		t.Errorf("register provenance = %d", n)
	}
}

func TestReplicateFromExplicitSource(t *testing.T) {
	g := testGrid(t)
	path := "/grid/data/staged"
	if err := g.Ingest("user", path, 1<<20, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate("user", path, "cern-disk"); err != nil {
		t.Fatal(err)
	}
	g.Network().Reset()
	// Pin the source to cern: traffic must flow cern→archive.org even
	// though sdsc would be picked automatically (same class, earlier).
	if err := g.ReplicateFrom("user", path, "cern-disk", "tape"); err != nil {
		t.Fatal(err)
	}
	if got := g.Network().Traffic("cern", "archive.org"); got != 1<<20 {
		t.Errorf("pinned-source traffic = %d", got)
	}
	if got := g.Network().Traffic("sdsc", "archive.org"); got != 0 {
		t.Errorf("auto source used despite pin: %d", got)
	}
	// Pinned source without a replica fails.
	if err := g.ReplicateFrom("user", path, "sdsc-gpfs", "tape"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("pin without replica: %v", err)
	}
	// Pinned source offline fails.
	cern, _ := g.Resource("cern-disk")
	cern.SetOffline(true)
	if err := g.ReplicateFrom("user", path, "cern-disk", "sdsc-gpfs"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("pin offline: %v", err)
	}
	cern.SetOffline(false)
}

func TestAccessEventPublished(t *testing.T) {
	g := testGrid(t)
	if err := g.Ingest("user", "/grid/data/read-me", 10, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	var events []Event
	g.Bus().Subscribe(After, func(ev Event) error {
		events = append(events, ev)
		return nil
	}, EventAccess)
	if _, err := g.Get("user", "cern", "/grid/data/read-me"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("access events = %d", len(events))
	}
	ev := events[0]
	if ev.Path != "/grid/data/read-me" || ev.User != "user" ||
		!slices.Contains(ev.Details(), provenance.Attr{Key: "resource", Value: "sdsc-disk"}) ||
		!slices.Contains(ev.Details(), provenance.Attr{Key: "domain", Value: "cern"}) {
		t.Errorf("event = %+v", ev)
	}
	// Failed reads publish nothing.
	if _, err := g.Get("stranger", "", "/grid/data/read-me"); err == nil {
		t.Fatal("stranger read allowed")
	}
	if len(events) != 1 {
		t.Errorf("failed read published an access event")
	}
}

func TestPhaseString(t *testing.T) {
	if Before.String() != "before" || After.String() != "after" {
		t.Errorf("phase names wrong")
	}
}

func TestGetErrorPaths(t *testing.T) {
	g := testGrid(t)
	// Unknown path.
	if _, err := g.Get("user", "", "/grid/data/none"); err == nil {
		t.Errorf("missing object read")
	}
	// Permission denied.
	if err := g.Ingest("user", "/grid/data/p", 10, nil, "sdsc-disk"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Get("stranger", "", "/grid/data/p"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("stranger get: %v", err)
	}
	// All replicas offline.
	disk, _ := g.Resource("sdsc-disk")
	disk.SetOffline(true)
	if _, err := g.Get("user", "", "/grid/data/p"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("offline get: %v", err)
	}
	disk.SetOffline(false)
}

// TestVerifyDetectsCorruption: a damaged replica fails verification and
// its intact sibling passes — an empty object too, which has no byte for
// the damage to flip.
func TestVerifyDetectsCorruption(t *testing.T) {
	g := testGrid(t)
	for _, o := range []struct {
		path string
		data []byte
	}{
		{"/grid/data/rotting", []byte("bytes")},
		{"/grid/data/empty", []byte{}},
	} {
		if err := g.Ingest("user", o.path, int64(len(o.data)), o.data, "sdsc-disk"); err != nil {
			t.Fatal(err)
		}
		if err := g.Replicate("user", o.path, "cern-disk"); err != nil {
			t.Fatal(err)
		}
		cern, _ := g.Resource("cern-disk")
		if err := cern.Corrupt(o.path); err != nil {
			t.Fatal(err)
		}
		failed, err := g.Verify("user", o.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(failed) != 1 || failed[0] != "cern-disk" {
			t.Errorf("%s: failed replicas = %v, want only cern-disk's", o.path, failed)
		}
	}
	// Verify denied without read permission.
	if _, err := g.Verify("stranger", "/grid/data/rotting"); !errors.Is(err, namespace.ErrDenied) {
		t.Errorf("stranger verify: %v", err)
	}
}
