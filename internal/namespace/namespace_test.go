package namespace

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"datagridflow/internal/sim"
)

func newNS(t *testing.T) *Namespace {
	t.Helper()
	ns := New("admin")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ns.MkCollectionAll("/home/scec/runs", "scec-admin", "sdsc", sim.Epoch))
	must(ns.MkCollectionAll("/home/library", "librarian", "ucsd", sim.Epoch))
	must(ns.CreateObject("/home/scec/runs/wave1.dat", "scientist", "sdsc", 1<<20, sim.Epoch))
	must(ns.CreateObject("/home/scec/runs/wave2.dat", "scientist", "sdsc", 2<<20, sim.Epoch))
	must(ns.CreateObject("/home/library/book.pdf", "librarian", "ucsd", 4096, sim.Epoch))
	return ns
}

func TestCleanPath(t *testing.T) {
	good := map[string]string{
		"/":           "/",
		"/a":          "/a",
		"/a/b/c":      "/a/b/c",
		"/a//b/":      "/a/b",
		"/./a/./b":    "/a/b",
		"//":          "/",
		"/a/b/../c/x": "", // rejected below
	}
	for in, want := range good {
		got, err := CleanPath(in)
		if strings.Contains(in, "..") {
			if err == nil {
				t.Errorf("CleanPath(%q) should reject '..'", in)
			}
			continue
		}
		if err != nil || got != want {
			t.Errorf("CleanPath(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "relative", "a/b"} {
		if _, err := CleanPath(bad); !errors.Is(err, ErrBadPath) {
			t.Errorf("CleanPath(%q) = %v, want ErrBadPath", bad, err)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	if Parent("/a/b/c") != "/a/b" || Parent("/a") != "/" || Parent("/") != "/" {
		t.Errorf("Parent wrong")
	}
	if Base("/a/b/c") != "c" || Base("/") != "" {
		t.Errorf("Base wrong")
	}
	parts, err := SplitPath("/x/y")
	if err != nil || len(parts) != 2 || parts[0] != "x" {
		t.Errorf("SplitPath = %v, %v", parts, err)
	}
	parts, err = SplitPath("/")
	if err != nil || parts != nil {
		t.Errorf("SplitPath(/) = %v, %v", parts, err)
	}
}

func TestLookupAndList(t *testing.T) {
	ns := newNS(t)
	e, err := ns.Lookup("/home/scec/runs/wave1.dat")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 1<<20 {
		t.Errorf("Lookup = %+v", e)
	}
	if kind, owner, domain := recorded(t, ns, e.Path); kind != KindObject || owner != "scientist" || domain != "sdsc" {
		t.Errorf("recorded kind %v, owner %q, domain %q", kind, owner, domain)
	}
	if !ns.Exists("/home/scec") || ns.Exists("/nope") {
		t.Errorf("Exists wrong")
	}
	if _, err := ns.Lookup("/no/such"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup missing: %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	ns := newNS(t)
	if err := ns.CreateObject("/home/library/book.pdf", "x", "d", 1, sim.Epoch); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate object: %v", err)
	}
	if err := ns.CreateObject("/home/library/book.pdf/sub", "x", "d", 1, sim.Epoch); !errors.Is(err, ErrNotCollection) {
		t.Errorf("object as parent: %v", err)
	}
	if err := ns.CreateObject("/x", "u", "d", -5, sim.Epoch); !errors.Is(err, ErrBadPath) {
		t.Errorf("negative size: %v", err)
	}
	if err := ns.CreateObject("/", "u", "d", 5, sim.Epoch); !errors.Is(err, ErrBadPath) {
		t.Errorf("object at root: %v", err)
	}
	// MkCollectionAll through an object fails.
	if err := ns.MkCollectionAll("/home/library/book.pdf/deep", "x", "d", sim.Epoch); !errors.Is(err, ErrNotCollection) {
		t.Errorf("MkCollectionAll through object: %v", err)
	}
	// MkCollectionAll landing exactly on an object fails.
	if err := ns.MkCollectionAll("/home/library/book.pdf", "x", "d", sim.Epoch); !errors.Is(err, ErrNotCollection) {
		t.Errorf("MkCollectionAll onto object: %v", err)
	}
}

func TestRemove(t *testing.T) {
	ns := newNS(t)
	if err := ns.Remove("/home/scec/runs"); !errors.Is(err, ErrNotObject) {
		t.Errorf("Remove collection via Remove: %v", err)
	}
	if err := ns.Remove("/home/scec/runs/wave1.dat"); err != nil {
		t.Fatal(err)
	}
	if ns.Exists("/home/scec/runs/wave1.dat") {
		t.Errorf("object still exists after Remove")
	}
}

func TestMove(t *testing.T) {
	ns := newNS(t)
	if err := ns.AddReplica("/home/scec/runs/wave1.dat", Replica{Resource: "disk1", PhysicalID: "p1"}); err != nil {
		t.Fatal(err)
	}
	if err := ns.Move("/home/scec/runs/wave1.dat", "/home/library/wave1.dat"); err != nil {
		t.Fatal(err)
	}
	if ns.Exists("/home/scec/runs/wave1.dat") {
		t.Errorf("source still present")
	}
	reps, err := ns.Replicas("/home/library/wave1.dat")
	if err != nil || len(reps) != 1 || reps[0].Resource != "disk1" {
		t.Errorf("replicas did not travel: %v, %v", reps, err)
	}
	// Moving a collection into itself is rejected.
	if err := ns.Move("/home", "/home/sub"); !errors.Is(err, ErrBadPath) {
		t.Errorf("move into self: %v", err)
	}
	if err := ns.Move("/home/library", "/home/scec/runs/wave2.dat/x"); !errors.Is(err, ErrNotCollection) {
		t.Errorf("move under object: %v", err)
	}
	if err := ns.Move("/home/library/book.pdf", "/home/library/wave1.dat"); !errors.Is(err, ErrExists) {
		t.Errorf("move onto existing: %v", err)
	}
	// Destination under a missing collection fails.
	if err := ns.Move("/home/library/book.pdf", "/nonexistent/book.pdf"); !errors.Is(err, ErrNotFound) {
		t.Errorf("move to missing parent: %v", err)
	}
}

func TestMoveCollectionSubtree(t *testing.T) {
	ns := newNS(t)
	if err := ns.Move("/home/scec", "/home/scec2"); err != nil {
		t.Fatal(err)
	}
	if !ns.Exists("/home/scec2/runs/wave1.dat") {
		t.Errorf("subtree lost in move")
	}
}

func TestReplicas(t *testing.T) {
	ns := newNS(t)
	path := "/home/scec/runs/wave1.dat"
	if err := ns.AddReplica(path, Replica{Resource: "disk1", PhysicalID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := ns.AddReplica(path, Replica{Resource: "tape1", PhysicalID: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := ns.AddReplica(path, Replica{Resource: "disk1", PhysicalID: "c"}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate resource replica: %v", err)
	}
	reps, _ := ns.Replicas(path)
	if len(reps) != 2 {
		t.Fatalf("Replicas = %v", reps)
	}
	if err := ns.RemoveReplica(path, "disk1"); err != nil {
		t.Fatal(err)
	}
	if err := ns.RemoveReplica(path, "disk1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("remove missing replica: %v", err)
	}
	reps, _ = ns.Replicas(path)
	if len(reps) != 1 || reps[0].Resource != "tape1" {
		t.Errorf("after remove: %v", reps)
	}
	if _, err := ns.Replicas("/home/scec/runs"); !errors.Is(err, ErrNotObject) {
		t.Errorf("Replicas on collection: %v", err)
	}
	if err := ns.AddReplica("/home/scec/runs", Replica{Resource: "r"}); !errors.Is(err, ErrNotObject) {
		t.Errorf("AddReplica on collection: %v", err)
	}
}

func TestMetadata(t *testing.T) {
	ns := newNS(t)
	path := "/home/scec/runs/wave1.dat"
	if err := ns.SetMeta(path, "experiment", "TeraShake"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ns.GetMeta(path, "experiment")
	if err != nil || !ok || v != "TeraShake" {
		t.Errorf("GetMeta = %q, %v, %v", v, ok, err)
	}
	if err := ns.SetMeta("/missing", "a", "b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetMeta missing: %v", err)
	}
	// Entry views must be copies.
	_ = ns.SetMeta(path, "k", "v")
	e, _ := ns.Lookup(path)
	e.Metadata["k"] = "tampered"
	e2, _ := ns.Lookup(path)
	if e2.Metadata["k"] != "v" {
		t.Errorf("Lookup leaked internal map")
	}
}

func TestWalk(t *testing.T) {
	ns := newNS(t)
	var paths []string
	err := ns.walk("/", func(n *node, path string) error {
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/", "/home", "/home/library", "/home/library/book.pdf",
		"/home/scec", "/home/scec/runs", "/home/scec/runs/wave1.dat", "/home/scec/runs/wave2.dat"}
	if strings.Join(paths, ";") != strings.Join(want, ";") {
		t.Errorf("walk order:\n got %v\nwant %v", paths, want)
	}
	// Abort propagates.
	sentinel := errors.New("stop")
	err = ns.walk("/", func(*node, string) error { return sentinel })
	if err != sentinel {
		t.Errorf("walk abort = %v", err)
	}
}

func TestStats(t *testing.T) {
	ns := newNS(t)
	_ = ns.AddReplica("/home/library/book.pdf", Replica{Resource: "r1"})
	if s := ns.Stats(); s.Objects != 3 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestPermissions(t *testing.T) {
	ns := newNS(t)
	// Owner of an entry always has own.
	if err := ns.Check("/home/scec/runs/wave1.dat", "scientist", PermOwn); err != nil {
		t.Errorf("owner check: %v", err)
	}
	// Stranger has nothing.
	if err := ns.Check("/home/scec/runs/wave1.dat", "stranger", PermRead); !errors.Is(err, ErrDenied) {
		t.Errorf("stranger: %v", err)
	}
	// Grant read on an ancestor; inherited below.
	if err := ns.SetPermission("/home/scec", "collab", PermRead); err != nil {
		t.Fatal(err)
	}
	if err := ns.Check("/home/scec/runs/wave2.dat", "collab", PermRead); err != nil {
		t.Errorf("inherited read: %v", err)
	}
	if err := ns.Check("/home/scec/runs/wave2.dat", "collab", PermWrite); !errors.Is(err, ErrDenied) {
		t.Errorf("read does not imply write: %v", err)
	}
	// Deeper explicit revoke wins over inherited grant.
	if err := ns.SetPermission("/home/scec/runs", "collab", PermNone); err != nil {
		t.Fatal(err)
	}
	if err := ns.Check("/home/scec/runs/wave2.dat", "collab", PermRead); !errors.Is(err, ErrDenied) {
		t.Errorf("revoke should win: %v", err)
	}
	// But sibling paths unaffected.
	if err := ns.Check("/home/scec", "collab", PermRead); err != nil {
		t.Errorf("sibling read lost: %v", err)
	}
	// Admin owns the root and so the root itself.
	if p, _ := ns.Permission("/", "admin"); p != PermOwn {
		t.Errorf("admin root perm = %v", p)
	}
	// Perm helpers.
	if !PermOwn.Allows(PermRead) || PermRead.Allows(PermWrite) {
		t.Errorf("Allows ordering wrong")
	}
	for _, p := range []Perm{PermNone, PermRead, PermWrite, PermOwn, Perm(9)} {
		if p.String() == "" {
			t.Errorf("empty perm name")
		}
	}
}

func TestSearch(t *testing.T) {
	ns := newNS(t)
	_ = ns.SetMeta("/home/scec/runs/wave1.dat", "stage", "raw")
	_ = ns.SetMeta("/home/scec/runs/wave2.dat", "stage", "processed")

	got, err := ns.Search(Query{Conditions: []Condition{{Attr: "stage", Op: OpEq, Value: "raw"}}})
	if err != nil || len(got) != 1 || got[0].Path != "/home/scec/runs/wave1.dat" {
		t.Errorf("Search stage=raw: %v, %v", got, err)
	}
	got, _ = ns.Search(Query{ObjectsOnly: true, Conditions: []Condition{{Attr: "size", Op: OpGt, Value: "1000000"}}})
	if len(got) != 2 {
		t.Errorf("size query: %v", got)
	}
	got, _ = ns.Search(Query{ObjectsOnly: true, Conditions: []Condition{{Attr: "name", Op: OpSuffix, Value: ".pdf"}}})
	if len(got) != 1 || got[0].Path != "/home/library/book.pdf" {
		t.Errorf("suffix query: %v", got)
	}
	got, _ = ns.Search(Query{Scope: "/home/scec", ObjectsOnly: true})
	if len(got) != 2 {
		t.Errorf("scoped query: %v", got)
	}
	got, _ = ns.Search(Query{ObjectsOnly: true, Limit: 1})
	if len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
	got, _ = ns.Search(Query{Conditions: []Condition{{Attr: "stage", Op: OpExists}}})
	if len(got) != 2 {
		t.Errorf("exists query: %v", got)
	}
	got, _ = ns.Search(Query{Conditions: []Condition{{Attr: "owner", Op: OpEq, Value: "librarian"}, {Attr: "kind", Op: OpEq, Value: "object"}}})
	if len(got) != 1 {
		t.Errorf("AND query: %v", got)
	}
	if _, err := ns.Search(Query{Conditions: []Condition{{Attr: "name", Op: "bogus"}}}); err == nil {
		t.Errorf("bogus operator accepted")
	}
	if _, err := ns.Search(Query{Scope: "/missing"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad scope: %v", err)
	}
	// Prefix & contains & ne & le/ge/lt coverage.
	ops := []Condition{
		{Attr: "path", Op: OpPrefix, Value: "/home/scec"},
		{Attr: "path", Op: OpContains, Value: "runs"},
		{Attr: "name", Op: OpNe, Value: "wave1.dat"},
		{Attr: "size", Op: OpGe, Value: "2097152"},
		{Attr: "size", Op: OpLe, Value: "2097152"},
	}
	got, err = ns.Search(Query{ObjectsOnly: true, Conditions: ops})
	if err != nil || len(got) != 1 || got[0].Path != "/home/scec/runs/wave2.dat" {
		t.Errorf("compound query: %v, %v", got, err)
	}
	got, _ = ns.Search(Query{ObjectsOnly: true, Conditions: []Condition{{Attr: "size", Op: OpLt, Value: "5000"}}})
	if len(got) != 1 {
		t.Errorf("lt query: %v", got)
	}
}

// Property: MkCollectionAll is idempotent and Lookup finds every prefix.
func TestQuickMkAll(t *testing.T) {
	f := func(raw []byte) bool {
		// Build a random but valid path of 1-6 short components.
		if len(raw) == 0 {
			return true
		}
		var parts []string
		for i, b := range raw {
			if i >= 6 {
				break
			}
			parts = append(parts, fmt.Sprintf("c%d", b%16))
		}
		p := "/" + strings.Join(parts, "/")
		ns := New("admin")
		if err := ns.MkCollectionAll(p, "u", "d", sim.Epoch); err != nil {
			return false
		}
		if err := ns.MkCollectionAll(p, "u", "d", sim.Epoch); err != nil {
			return false // idempotent
		}
		cur := ""
		for _, part := range parts {
			cur += "/" + part
			if !ns.Exists(cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CleanPath is idempotent.
func TestQuickCleanIdempotent(t *testing.T) {
	f := func(s string) bool {
		p, err := CleanPath("/" + s)
		if err != nil {
			return true // rejected inputs are fine
		}
		p2, err := CleanPath(p)
		return err == nil && p2 == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookupDeep(b *testing.B) {
	ns := New("admin")
	path := "/a/b/c/d/e/f/g/h"
	if err := ns.MkCollectionAll(path, "u", "d", sim.Epoch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ns.Lookup(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchMeta(b *testing.B) {
	ns := New("admin")
	if err := ns.MkCollectionAll("/data", "u", "d", sim.Epoch); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("/data/f%04d", i)
		if err := ns.CreateObject(p, "u", "d", int64(i), sim.Epoch); err != nil {
			b.Fatal(err)
		}
		if i%10 == 0 {
			_ = ns.SetMeta(p, "hot", "true")
		}
	}
	q := Query{ObjectsOnly: true, Conditions: []Condition{{Attr: "hot", Op: OpEq, Value: "true"}}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := ns.Search(q)
		if err != nil || len(got) != 100 {
			b.Fatalf("got %d, %v", len(got), err)
		}
	}
}

func TestWildcardPermission(t *testing.T) {
	ns := newNS(t)
	if err := ns.SetPermission("/home/library", Wildcard, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := ns.Check("/home/library/book.pdf", "anyone-at-all", PermRead); err != nil {
		t.Errorf("wildcard read: %v", err)
	}
	if err := ns.Check("/home/library/book.pdf", "anyone-at-all", PermWrite); !errors.Is(err, ErrDenied) {
		t.Errorf("wildcard should not grant write: %v", err)
	}
	// A specific same-depth grant beats the wildcard.
	if err := ns.SetPermission("/home/library", "vip", PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := ns.Check("/home/library/book.pdf", "vip", PermWrite); err != nil {
		t.Errorf("specific grant overridden by wildcard: %v", err)
	}
	// A deeper wildcard revoke closes the subtree to strangers.
	if err := ns.SetPermission("/home/library/book.pdf", Wildcard, PermNone); err != nil {
		t.Fatal(err)
	}
	if err := ns.Check("/home/library/book.pdf", "anyone-at-all", PermRead); !errors.Is(err, ErrDenied) {
		t.Errorf("deep wildcard revoke ignored: %v", err)
	}
}

// recorded returns the kind, owner and domain the node at path records,
// which an Entry does not carry.
func recorded(t *testing.T, ns *Namespace, path string) (EntryKind, string, string) {
	t.Helper()
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	n, err := ns.resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	return n.kind, n.who.owner, n.who.domain
}
