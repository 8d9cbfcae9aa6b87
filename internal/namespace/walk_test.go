package namespace

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"datagridflow/internal/sim"
)

// aclNS is the tree the permission table walks:
//
//	/                      owner admin
//	/proj                  owner lead    alice=read  *=read
//	/proj/data             owner admin   alice=write *=none
//	/proj/data/raw         owner admin   alice=none
//	/proj/data/raw/x.dat   owner carol   carol=none
//	/proj/data/pub         owner admin   *=read
func aclNS(t *testing.T) *Namespace {
	t.Helper()
	ns := New("admin")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ns.MkCollectionAll("/proj", "lead", "sdsc", sim.Epoch))
	must(ns.MkCollectionAll("/proj/data/raw", "admin", "sdsc", sim.Epoch))
	must(ns.MkCollectionAll("/proj/data/pub", "admin", "sdsc", sim.Epoch))
	must(ns.CreateObject("/proj/data/raw/x.dat", "carol", "sdsc", 1, sim.Epoch))
	must(ns.SetPermission("/proj", "alice", PermRead))
	must(ns.SetPermission("/proj", Wildcard, PermRead))
	must(ns.SetPermission("/proj/data", "alice", PermWrite))
	must(ns.SetPermission("/proj/data", Wildcard, PermNone))
	must(ns.SetPermission("/proj/data/raw", "alice", PermNone))
	must(ns.SetPermission("/proj/data/raw/x.dat", "carol", PermNone))
	must(ns.SetPermission("/proj/data/pub", Wildcard, PermRead))
	return ns
}

// TestPermissionTable pins the ACL inheritance rule the path walk now
// carries: it passes unchanged on the slice-of-ancestors implementation.
func TestPermissionTable(t *testing.T) {
	ns := aclNS(t)
	for _, tc := range []struct {
		why, path, user string
		want            Perm
		err             error
	}{
		{"owner short-circuit beats an explicit none on the entry", "/proj/data/raw/x.dat", "carol", PermOwn, nil},
		{"owner of a collection", "/proj", "lead", PermOwn, nil},
		{"ownership is not inherited; the wildcard chain applies", "/proj/data", "lead", PermNone, nil},
		{"explicit grant", "/proj", "alice", PermRead, nil},
		{"deepest explicit grant wins; named beats * at the same depth", "/proj/data", "alice", PermWrite, nil},
		{"* at the same depth applies to everyone else, and none revokes", "/proj/data", "bob", PermNone, nil},
		{"the shallower * still holds above the revoke", "/proj", "bob", PermRead, nil},
		{"a deeper none revokes", "/proj/data/raw", "alice", PermNone, nil},
		{"and the revoke is inherited below", "/proj/data/raw/x.dat", "alice", PermNone, nil},
		{"a deeper * overrides a shallower named grant", "/proj/data/pub", "alice", PermRead, nil},
		{"no grant anywhere on the path", "/", "bob", PermNone, nil},
		{"the root's owner", "/", "admin", PermOwn, nil},
		{"an unclean path names the same entry", "//proj/./data/", "alice", PermWrite, nil},
		{"missing leaf", "/proj/missing", "alice", PermNone, ErrNotFound},
		{"missing intermediate", "/proj/missing/deeper", "alice", PermNone, ErrNotFound},
		{"walk through an object", "/proj/data/raw/x.dat/y", "carol", PermNone, ErrNotCollection},
		{"relative path", "proj", "alice", PermNone, ErrBadPath},
		{"dot-dot", "/proj/../proj", "alice", PermNone, ErrBadPath},
	} {
		got, err := ns.Permission(tc.path, tc.user)
		if got != tc.want || !errors.Is(err, tc.err) {
			t.Errorf("%s: Permission(%q, %q) = %v, %v; want %v, %v", tc.why, tc.path, tc.user, got, err, tc.want, tc.err)
		}
		if tc.err != nil {
			if err := ns.Check(tc.path, tc.user, PermNone); !errors.Is(err, tc.err) {
				t.Errorf("%s: Check(%q) = %v, want %v", tc.why, tc.path, err, tc.err)
			}
			continue
		}
		if err := ns.Check(tc.path, tc.user, tc.want); err != nil {
			t.Errorf("%s: Check(%q, %q, %v) = %v", tc.why, tc.path, tc.user, tc.want, err)
		}
		if tc.want < PermOwn {
			err := ns.Check(tc.path, tc.user, tc.want+1)
			if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), tc.path) {
				t.Errorf("%s: Check(%q, %q, %v) = %v, want ErrDenied quoting the path", tc.why, tc.path, tc.user, tc.want+1, err)
			}
		}
	}
}

// TestUncleanPathsNameOneNode pins what the in-place walk must keep:
// every spelling of a path resolves to one node, and each operation's
// errors quote the path they always quoted — the caller's own spelling
// where the operation resolves it directly, the cleaned one where it
// cleans first, the cleaned parent where a creator cannot reach it.
func TestUncleanPathsNameOneNode(t *testing.T) {
	ns := New("admin")
	if err := ns.MkCollectionAll("//a/./b/", "u", "d", sim.Epoch); err != nil {
		t.Fatal(err)
	}
	spellings := []string{"//a/./b/", "/a/b/", "/a/b"}
	for i, p := range spellings {
		if err := ns.SetMeta(p, "k", p); err != nil {
			t.Fatal(err)
		}
		for _, q := range spellings {
			if v, ok, err := ns.GetMeta(q, "k"); err != nil || !ok || v != p {
				t.Errorf("SetMeta(%q) then GetMeta(%q) = %q, %v, %v", p, q, v, ok, err)
			}
			if e, err := ns.Lookup(q); err != nil || e.Path != "/a/b" {
				t.Errorf("Lookup(%q) = %q, %v; want /a/b", q, e.Path, err)
			}
		}
		obj := p + "/./o" + string(rune('0'+i))
		if err := ns.CreateObject(obj, "u", "d", 1, sim.Epoch); err != nil {
			t.Fatalf("CreateObject(%q): %v", obj, err)
		}
	}
	if got := ns.Stats().Objects; got != 3 {
		t.Errorf("%d objects under /a/b, want 3", got)
	}
	if err := ns.Move("/a/b//o0", "//a/moved/"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Remove("/a/./moved"); err != nil {
		t.Fatal(err)
	}

	const raw = "//a/./missing/"
	quotes := func(op string, err, class error, quoted string) {
		t.Helper()
		if !errors.Is(err, class) || !strings.HasSuffix(err.Error(), ": "+quoted) {
			t.Errorf("%s: %v; want %v quoting %q", op, err, class, quoted)
		}
	}
	quotes("SetMeta", ns.SetMeta(raw, "k", "v"), ErrNotFound, raw)
	_, _, err := ns.GetMeta(raw, "k")
	quotes("GetMeta", err, ErrNotFound, raw)
	quotes("SetPermission", ns.SetPermission(raw, "u", PermRead), ErrNotFound, raw)
	quotes("Check", ns.Check(raw, "u", PermRead), ErrNotFound, raw)
	_, err = ns.Lookup(raw)
	quotes("Lookup", err, ErrNotFound, "/a/missing")
	_, err = ns.Replicas(raw)
	quotes("Replicas", err, ErrNotFound, "/a/missing")
	quotes("Remove", ns.Remove(raw), ErrNotFound, "/a/missing")
	quotes("Remove through an object", ns.Remove("/a/b/o1//x"), ErrNotCollection, "/a/b/o1/x")
	quotes("CreateObject", ns.CreateObject(raw+"x", "u", "d", 1, sim.Epoch), ErrNotFound, "/a/missing")
	quotes("CreateObject under an object", ns.CreateObject("/a/b/o1//x", "u", "d", 1, sim.Epoch), ErrNotCollection, "/a/b/o1")
	quotes("CreateObject twice", ns.CreateObject("/a/b//o1", "u", "d", 1, sim.Epoch), ErrExists, "/a/b/o1")
	quotes("Move from", ns.Move(raw, "/a/c"), ErrNotFound, "/a/missing")
	quotes("Move to", ns.Move("/a/b/o1", raw+"x"), ErrNotFound, "/a/missing")
	quotes("Move onto", ns.Move("/a/b/o1", "/a/b//o2"), ErrExists, "/a/b/o2")
}

// TestNodesDoNotPinCallerBuffers: CleanPath hands a canonical argument
// back untouched, so the component a creator files a node under is a
// substring of the caller's string. The node must own a copy, or one
// small object keeps a whole decoded request document reachable.
func TestNodesDoNotPinCallerBuffers(t *testing.T) {
	ns := New("admin")
	doc := strings.Repeat("x", 1<<16) + "/grid/home/a.dat" + strings.Repeat("y", 1<<16)
	within := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(doc)))
		return p >= lo && p < lo+uintptr(len(doc))
	}
	if err := ns.MkCollectionAll(doc[1<<16:1<<16+10], "u", "d", sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := ns.CreateObject(doc[1<<16:1<<16+16], "u", "d", 1, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := ns.MkCollectionAll(doc[1<<16:1<<16+5]+"/sub", "u", "d", sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := ns.Move("/grid/sub", doc[1<<16:1<<16+10]+"/sub"); err != nil {
		t.Fatal(err)
	}
	var check func(path string, n *node)
	check = func(path string, n *node) {
		for key, c := range n.children() {
			if within(key) {
				t.Errorf("%s/%s: the node's name aliases the caller's buffer", path, key)
			}
			check(path+"/"+key, c)
		}
	}
	check("", ns.root)
	if got := ns.Stats(); got.Objects != 1 {
		t.Errorf("stats = %+v, want 1 object", got)
	}
}

// TestPathHandlingAllocs holds the namespace to the tentpole's budget on
// a clean 4-component path: a lookup is a walk and nothing else. The
// figures in the messages are what the Split/Join/ancestors
// implementation paid for the same calls.
func TestPathHandlingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const path = "/grid/home/user/file.dat"
	ns := New("admin")
	if err := ns.MkCollectionAll(Parent(path), "user", "d", sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := ns.CreateObject(path, "user", "d", 1, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := ns.SetMeta(path, "tag", "v0"); err != nil {
		t.Fatal(err)
	}
	rep := Replica{Resource: "disk", PhysicalID: path}
	if err := ns.AddReplica(path, rep); err != nil {
		t.Fatal(err)
	}
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		budget float64
		parent string
		run    func()
	}{
		{"Check", 0, "9", func() { fail(ns.Check(path, "stranger-with-no-grant", PermNone)) }},
		{"Check(Parent)", 0, "12", func() { fail(ns.Check(Parent(path), "user", PermWrite)) }},
		{"SetMeta on an existing attribute", 0, "9", func() { fail(ns.SetMeta(path, "tag", "v1")) }},
		{"GetMeta", 0, "9", func() { _, _, err := ns.GetMeta(path, "tag"); fail(err) }},
		{"RemoveReplica+AddReplica", 0, "26", func() {
			fail(ns.RemoveReplica(path, rep.Resource))
			fail(ns.AddReplica(path, rep))
		}},
		// What is left is the node and its own copy of the last
		// component: the entry itself, not the path.
		{"Remove+CreateObject", 2, "51", func() {
			fail(ns.Remove(path))
			fail(ns.CreateObject(path, "user", "d", 1, sim.Epoch))
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f (parent commit: %s)", tc.name, got, tc.budget, tc.parent)
		} else {
			t.Logf("%s: %.0f allocations (parent commit: %s)", tc.name, got, tc.parent)
		}
	}
}

// TestCreateObjectAllocs: an object costs its node and its own copy of
// its name. Metadata comes with the first SetMeta, as one pair slice,
// so the untagged objects of a large collection never carry any.
func TestCreateObjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	ns, paths := objectsNS(t, false)
	next := 0
	got := testing.AllocsPerRun(len(paths)-1, func() {
		if err := ns.CreateObject(paths[next], "user", "d", 1024, sim.Epoch); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// The growth of the collection's children map rounds away over the run.
	t.Logf("CreateObject: %.0f allocations (parent commit: 3)", got)
	if got > 2 {
		t.Errorf("CreateObject allocates %.0f, want the node and its name: is metadata allocated at creation again?", got)
	}
	next = 0
	got = testing.AllocsPerRun(len(paths)-1, func() {
		if err := ns.SetMeta(paths[next], "tag", "v"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("the first SetMeta on an object: %.0f allocations (parent commit: 2, a map and its bucket)", got)
	if got != 1 {
		t.Errorf("the first SetMeta on an object allocates %.0f, want 1: the one pair", got)
	}
}

// objectsNS is a namespace with the collection /grid/work and the paths
// of 201 objects in it — AllocsPerRun's warm-up call takes one too —
// created when create is set.
func objectsNS(t *testing.T, create bool) (*Namespace, []string) {
	t.Helper()
	ns := New("admin")
	if err := ns.MkCollectionAll("/grid/work", "user", "d", sim.Epoch); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 201)
	for i := range paths {
		paths[i] = "/grid/work/" + strconv.Itoa(i) + ".dat"
		if create {
			if err := ns.CreateObject(paths[i], "user", "d", 1024, sim.Epoch); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ns, paths
}

// TestAddReplicaAllocs: an object's first replica is kept in its node,
// so it costs nothing; a second spills the list to the heap, once.
func TestAddReplicaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	ns, paths := objectsNS(t, true)
	for _, tc := range []struct {
		which    string
		resource string
		want     float64
	}{
		{"first", "disk", 0},
		{"second", "tape", 1},
	} {
		next := 0
		got := testing.AllocsPerRun(len(paths)-1, func() {
			if err := ns.AddReplica(paths[next], Replica{Resource: tc.resource, PhysicalID: paths[next]}); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("the %s replica of an object: %.0f allocations (parent commit: 1)", tc.which, got)
		if got != tc.want {
			t.Errorf("the %s replica of an object allocates %.0f, want %.0f", tc.which, got, tc.want)
		}
	}
}

// TestStatsAllocs: counting the tree copies no entry, path or name
// list, so it costs nothing however many objects there are.
func TestStatsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	ns, paths := objectsNS(t, true)
	for _, p := range paths {
		if err := ns.SetMeta(p, "tag", "v"); err != nil {
			t.Fatal(err)
		}
		if err := ns.AddReplica(p, Replica{Resource: "disk"}); err != nil {
			t.Fatal(err)
		}
	}
	var s Stats
	got := testing.AllocsPerRun(20, func() { s = ns.Stats() })
	t.Logf("Stats over %d objects: %.0f allocations (parent commit: 809)", s.Objects, got)
	if got != 0 || s.Objects != len(paths) {
		t.Errorf("Stats = %+v in %.0f allocations, want %d objects in none", s, got, len(paths))
	}
}

// TestMetadataOfUntaggedEntries: an entry whose metadata map was never
// made answers every metadata question as an empty map would — before
// any SetMeta, and across a move.
func TestMetadataOfUntaggedEntries(t *testing.T) {
	ns := New("admin")
	for _, dir := range []string{"/grid/a", "/grid/b"} {
		if err := ns.MkCollectionAll(dir, "user", "d", sim.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/grid/a/never.dat", "/grid/a/moving.dat", "/grid/a/tagged.dat"} {
		if err := ns.CreateObject(p, "user", "d", 1, sim.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.SetMeta("/grid/a/tagged.dat", "tag", "v"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Move("/grid/a/moving.dat", "/grid/b/moved.dat"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/grid/a/never.dat", "/grid/b/moved.dat", "/grid/b"} {
		if v, ok, err := ns.GetMeta(p, "tag"); v != "" || ok || err != nil {
			t.Errorf("GetMeta(%s) = %q, %v, %v", p, v, ok, err)
		}
		if e, err := ns.Lookup(p); err != nil || e.Metadata != nil {
			t.Errorf("Lookup(%s).Metadata = %v, %v; want nil", p, e.Metadata, err)
		}
	}
	for _, tc := range []struct {
		cond Condition
		want string
	}{
		{Condition{Attr: "tag", Op: OpExists}, "/grid/a/tagged.dat"},
		{Condition{Attr: "tag", Op: OpEq, Value: "v"}, "/grid/a/tagged.dat"},
		{Condition{Attr: "tag", Op: OpNe, Value: "v"}, ""},
	} {
		got, err := ns.Search(Query{Scope: "/grid", ObjectsOnly: true, Conditions: []Condition{tc.cond}})
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, e := range got {
			paths = append(paths, e.Path)
		}
		if strings.Join(paths, ",") != tc.want {
			t.Errorf("Search(%+v) = %v, want %q", tc.cond, paths, tc.want)
		}
	}
	// The moved object is taggable where it now lives.
	if err := ns.SetMeta("/grid/b/moved.dat", "tag", "late"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ns.GetMeta("/grid/b/moved.dat", "tag"); !ok || v != "late" {
		t.Errorf("GetMeta after the first SetMeta on a moved object = %q, %v", v, ok)
	}
}
