package workload

import (
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

func TestGeneratorsDeterministic(t *testing.T) {
	a := SCEC(sim.NewRand(1), 2, 5)
	b := SCEC(sim.NewRand(1), 2, 5)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lens = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Size != b[i].Size {
			t.Errorf("seeded generation diverged at %d", i)
		}
	}
	c := SCEC(sim.NewRand(2), 2, 5)
	same := true
	for i := range a {
		if a[i].Size != c[i].Size {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds gave identical sizes")
	}
}

func TestGeneratorShapes(t *testing.T) {
	r := sim.NewRand(42)
	scec := SCEC(r, 3, 4)
	if len(scec) != 12 || !strings.HasPrefix(scec[0].Path, "/grid/scec/run000/") {
		t.Errorf("scec = %d files, first %s", len(scec), scec[0].Path)
	}
	if scec[0].Meta["experiment"] != "TeraShake" {
		t.Errorf("scec meta = %v", scec[0].Meta)
	}
	hosp := Hospitals(r, 3, 10)
	if len(hosp) != 3 {
		t.Fatalf("hospitals = %d", len(hosp))
	}
	for domain, specs := range hosp {
		if len(specs) != 10 {
			t.Errorf("%s has %d records", domain, len(specs))
		}
		if !strings.Contains(specs[0].Path, domain) {
			t.Errorf("path %s missing domain %s", specs[0].Path, domain)
		}
	}
	cms := CMSRuns(r, 5)
	if len(cms) != 5 || !strings.HasSuffix(cms[0].Path, ".root") {
		t.Errorf("cms = %+v", cms[0])
	}
	lib := LibraryDocs(r, 5)
	if len(lib) != 5 || lib[0].Meta["collection"] != "ucsd-libraries" {
		t.Errorf("library = %+v", lib[0])
	}
	// CMS files are much larger than library docs on average.
	if TotalBytes(cms)/int64(len(cms)) < TotalBytes(lib)/int64(len(lib)) {
		t.Errorf("size ordering: cms %d < lib %d", TotalBytes(cms), TotalBytes(lib))
	}
	if TotalBytes(nil) != 0 {
		t.Errorf("TotalBytes(nil) != 0")
	}
}

func TestIngest(t *testing.T) {
	g := dgms.New(dgms.Options{})
	if err := g.RegisterResource(vfs.New("disk", "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	specs := SCEC(sim.NewRand(7), 1, 3)
	if err := Ingest(g, g.Admin(), "disk", specs); err != nil {
		t.Fatal(err)
	}
	stats := g.Namespace().Stats()
	if stats.Objects != 3 {
		t.Errorf("objects = %d", stats.Objects)
	}
	// Metadata attached and queryable.
	got, err := g.Namespace().Search(namespace.Query{
		ObjectsOnly: true,
		Conditions:  []namespace.Condition{{Attr: "experiment", Op: namespace.OpEq, Value: "TeraShake"}},
	})
	if err != nil || len(got) != 3 {
		t.Errorf("metadata query = %d, %v", len(got), err)
	}
	// Bad resource errors.
	if err := Ingest(g, g.Admin(), "nope", specs[:1]); err == nil {
		t.Errorf("bad resource accepted")
	}
}

func TestAccessTrace(t *testing.T) {
	r := sim.NewRand(5)
	paths := []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"}
	trace := AccessTrace(r, paths, 2000, time.Minute, 1.3)
	if len(trace) != 2000 {
		t.Fatalf("trace len = %d", len(trace))
	}
	counts := map[string]int{}
	var total time.Duration
	for _, a := range trace {
		counts[a.Path]++
		if a.Gap < 0 {
			t.Fatalf("negative gap")
		}
		total += a.Gap
	}
	// Zipf: the hottest path dominates the coldest.
	if counts[paths[0]] <= counts[paths[len(paths)-1]]*2 {
		t.Errorf("popularity not skewed: %v", counts)
	}
	// Mean interarrival near a minute (loose band).
	mean := total / 2000
	if mean < 30*time.Second || mean > 2*time.Minute {
		t.Errorf("mean gap = %v", mean)
	}
	// Degenerate inputs.
	if AccessTrace(r, nil, 10, time.Second, 1.2) != nil {
		t.Errorf("empty paths should yield nil")
	}
	if AccessTrace(r, paths, 0, time.Second, 1.2) != nil {
		t.Errorf("zero accesses should yield nil")
	}
	// Determinism.
	t1 := AccessTrace(sim.NewRand(9), paths, 50, time.Second, 1.2)
	t2 := AccessTrace(sim.NewRand(9), paths, 50, time.Second, 1.2)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
}

func TestReplay(t *testing.T) {
	g := dgms.New(dgms.Options{})
	if err := g.RegisterResource(vfs.New("disk", "x", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	specs := LibraryDocs(sim.NewRand(1), 4)
	if err := Ingest(g, g.Admin(), "disk", specs); err != nil {
		t.Fatal(err)
	}
	paths := []string{specs[0].Path, specs[1].Path}
	trace := AccessTrace(sim.NewRand(2), paths, 20, time.Minute, 1.2)
	start := g.Clock().Now()
	service, err := Replay(g, g.Admin(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if service <= 0 {
		t.Errorf("service time = %v", service)
	}
	if elapsed := g.Clock().Now().Sub(start); service >= elapsed {
		t.Errorf("service time %v should be a fraction of the %v elapsed", service, elapsed)
	}
	// Missing path aborts.
	bad := []Access{{Path: "/nope", Gap: 0}}
	if _, err := Replay(g, g.Admin(), bad); err == nil {
		t.Errorf("missing path accepted")
	}
}
