package namespace

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/sim"
)

// refNS is the namespace the compact nodes replaced, kept as the
// reference they are held to: a node of 224 bytes that holds its name,
// owner, domain and times as given, its replicas as Replica values and
// its children and grants as maps of its own.
type refNS struct{ root *refNode }

type refNode struct {
	name     string
	kind     EntryKind
	owner    string
	domain   string
	size     int64
	created  time.Time
	meta     []metaPair
	replicas []Replica
	replica0 [1]Replica
	children map[string]*refNode
	acl      map[string]Perm
}

func newRefNS(admin string) *refNS {
	return &refNS{root: &refNode{name: "/", kind: KindCollection, owner: admin,
		children: make(map[string]*refNode), acl: map[string]Perm{admin: PermOwn}}}
}

func (n *refNode) metaIndex(attr string) (int, bool) {
	i := sort.Search(len(n.meta), func(i int) bool { return n.meta[i].key >= attr })
	return i, i < len(n.meta) && n.meta[i].key == attr
}

func (n *refNode) entry(path string) Entry {
	e := Entry{Path: path, Size: n.size, Created: n.created}
	if len(n.meta) > 0 {
		e.Metadata = make(map[string]string, len(n.meta))
		for _, p := range n.meta {
			e.Metadata[p.key] = p.value
		}
	}
	if len(n.replicas) > 0 {
		e.Replicas = append([]Replica(nil), n.replicas...)
	}
	return e
}

func (ns *refNS) descend(clean string, visit func(*refNode)) (parent *refNode, name string, n *refNode, err error) {
	n = ns.root
	for i := 1; i < len(clean); {
		if visit != nil {
			visit(n)
		}
		if n.kind != KindCollection {
			return nil, "", nil, ErrNotCollection
		}
		end := len(clean)
		if j := strings.IndexByte(clean[i:], '/'); j >= 0 {
			end = i + j
		}
		parent, name = n, clean[i:end]
		if n = parent.children[name]; n == nil {
			if end < len(clean) {
				return nil, "", nil, ErrNotFound
			}
			return parent, name, nil, nil
		}
		i = end + 1
	}
	if visit != nil {
		visit(n)
	}
	return parent, name, n, nil
}

func (ns *refNS) find(clean, quote string, visit func(*refNode)) (parent *refNode, name string, n *refNode, err error) {
	parent, name, n, err = ns.descend(clean, visit)
	if err == nil && n == nil {
		err = ErrNotFound
	}
	if err != nil {
		return nil, "", nil, fmt.Errorf("%w: %s", err, quote)
	}
	return parent, name, n, nil
}

func (ns *refNS) resolve(path string) (*refNode, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	_, _, n, err := ns.find(clean, path, nil)
	return n, err
}

func (ns *refNS) createAt(clean string, n *refNode) error {
	parent, name, existing, err := ns.descend(clean, nil)
	if err != nil {
		return fmt.Errorf("%w: %s", err, Parent(clean))
	}
	if existing != nil {
		return fmt.Errorf("%w: %s", ErrExists, clean)
	}
	n.name = strings.Clone(name)
	parent.children[n.name] = n
	return nil
}

func (ns *refNS) MkCollectionAll(path, owner, domain string, now time.Time) error {
	parts, err := SplitPath(path)
	if err != nil {
		return err
	}
	cur := ns.root
	for _, part := range parts {
		if cur.kind != KindCollection {
			return fmt.Errorf("%w: %s", ErrNotCollection, part)
		}
		next, ok := cur.children[part]
		if !ok {
			next = &refNode{name: part, kind: KindCollection, owner: owner, domain: domain, created: now, children: make(map[string]*refNode)}
			cur.children[part] = next
		}
		cur = next
	}
	if cur.kind != KindCollection {
		return fmt.Errorf("%w: %s", ErrNotCollection, path)
	}
	return nil
}

func (ns *refNS) CreateObject(path, owner, domain string, size int64, now time.Time) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	if clean == "/" {
		return fmt.Errorf("%w: cannot create object at /", ErrBadPath)
	}
	if size < 0 {
		return fmt.Errorf("%w: negative size", ErrBadPath)
	}
	return ns.createAt(clean, &refNode{kind: KindObject, owner: owner, domain: domain, size: size, created: now})
}

func (ns *refNS) Lookup(path string) (Entry, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return Entry{}, err
	}
	_, _, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return Entry{}, err
	}
	return n.entry(clean), nil
}

func (ns *refNS) walk(root string, fn func(n *refNode, path string) error) error {
	clean, err := CleanPath(root)
	if err != nil {
		return err
	}
	_, _, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return err
	}
	return refWalkNode(n, clean, fn)
}

func refWalkNode(n *refNode, path string, fn func(n *refNode, path string) error) error {
	if err := fn(n, path); err != nil {
		return err
	}
	if n.kind != KindCollection {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	base := strings.TrimSuffix(path, "/")
	for _, name := range names {
		if err := refWalkNode(n.children[name], base+"/"+name, fn); err != nil {
			return err
		}
	}
	return nil
}

func (ns *refNS) Remove(path string) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	parent, name, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return err
	}
	if n.kind != KindObject {
		return fmt.Errorf("%w: %s", ErrNotObject, clean)
	}
	delete(parent.children, name)
	return nil
}

func (ns *refNS) Move(src, dst string) error {
	cs, err := CleanPath(src)
	if err != nil {
		return err
	}
	cd, err := CleanPath(dst)
	if err != nil {
		return err
	}
	if cs == "/" || cd == "/" {
		return fmt.Errorf("%w: cannot move the root", ErrBadPath)
	}
	if cd == cs || strings.HasPrefix(cd, cs+"/") {
		return fmt.Errorf("%w: cannot move %s into itself", ErrBadPath, cs)
	}
	srcParent, srcName, n, err := ns.find(cs, cs, nil)
	if err != nil {
		return err
	}
	dstParent, dstName, existing, err := ns.descend(cd, nil)
	if err != nil {
		return fmt.Errorf("%w: %s", err, Parent(cd))
	}
	if existing != nil {
		return fmt.Errorf("%w: %s", ErrExists, cd)
	}
	delete(srcParent.children, srcName)
	n.name = strings.Clone(dstName)
	dstParent.children[n.name] = n
	return nil
}

func (ns *refNS) objectNode(path string) (*refNode, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	_, _, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return nil, err
	}
	if n.kind != KindObject {
		return nil, fmt.Errorf("%w: %s", ErrNotObject, clean)
	}
	return n, nil
}

func (ns *refNS) AddReplica(path string, rep Replica) error {
	n, err := ns.objectNode(path)
	if err != nil {
		return err
	}
	for _, r := range n.replicas {
		if r.Resource == rep.Resource {
			return fmt.Errorf("%w: replica of %s on %s", ErrExists, path, rep.Resource)
		}
	}
	if n.replicas == nil {
		n.replicas = n.replica0[:0]
	}
	n.replicas = append(n.replicas, rep)
	return nil
}

func (ns *refNS) RemoveReplica(path, resource string) error {
	n, err := ns.objectNode(path)
	if err != nil {
		return err
	}
	for i, r := range n.replicas {
		if r.Resource == resource {
			n.replicas = slices.Delete(n.replicas, i, i+1)
			return nil
		}
	}
	return fmt.Errorf("%w: replica of %s on %s", ErrNotFound, path, resource)
}

func (ns *refNS) Replicas(path string) ([]Replica, error) {
	n, err := ns.objectNode(path)
	if err != nil {
		return nil, err
	}
	return append([]Replica(nil), n.replicas...), nil
}

func (ns *refNS) FirstReplica(path string) (Replica, bool, error) {
	n, err := ns.objectNode(path)
	if err != nil || len(n.replicas) == 0 {
		return Replica{}, false, err
	}
	return n.replicas[0], true, nil
}

func (ns *refNS) SetMeta(path, attr, value string) error {
	n, err := ns.resolve(path)
	if err != nil {
		return err
	}
	i, ok := n.metaIndex(attr)
	if !ok {
		n.meta = slices.Insert(n.meta, i, metaPair{key: attr})
	}
	n.meta[i].value = value
	return nil
}

func (ns *refNS) SetPermission(path, user string, p Perm) error {
	n, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if n.acl == nil {
		n.acl = make(map[string]Perm)
	}
	n.acl[user] = p
	return nil
}

func (ns *refNS) Permission(path, user string) (Perm, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return PermNone, err
	}
	eff := PermNone
	_, _, n, err := ns.find(clean, path, func(a *refNode) {
		if p, ok := a.acl[user]; ok {
			eff = p
		} else if p, ok := a.acl[Wildcard]; ok {
			eff = p
		}
	})
	if err != nil {
		return PermNone, err
	}
	if n.owner == user {
		return PermOwn, nil
	}
	return eff, nil
}

func (ns *refNS) Stats() Stats {
	var s Stats
	var count func(n *refNode)
	count = func(n *refNode) {
		if n.kind == KindObject {
			s.Objects++
			return
		}
		for _, c := range n.children {
			count(c)
		}
	}
	count(ns.root)
	return s
}

func (n *refNode) attr(name, path string) (string, bool) {
	switch name {
	case "name":
		return Base(path), true
	case "path":
		return path, true
	case "owner":
		return n.owner, true
	case "domain":
		return n.domain, true
	case "kind":
		return n.kind.String(), true
	case "size":
		return strconv.FormatInt(n.size, 10), true
	}
	if i, ok := n.metaIndex(name); ok {
		return n.meta[i].value, true
	}
	return "", false
}

func (ns *refNS) Search(q Query) ([]Entry, error) {
	scope := q.Scope
	if scope == "" {
		scope = "/"
	}
	var out []Entry
	err := ns.walk(scope, func(n *refNode, path string) error {
		if q.ObjectsOnly && n.kind != KindObject {
			return nil
		}
		for _, c := range q.Conditions {
			ok, err := c.test(n.attr(c.Attr, path))
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out = append(out, n.entry(path))
		if q.Limit > 0 && len(out) >= q.Limit {
			return errStopWalk
		}
		return nil
	})
	if err != nil && err != errStopWalk {
		return nil, err
	}
	return out, nil
}

// utcEntries returns the reference's entries with their times read as
// UTC instants, which is how the namespace gives them back.
func utcEntries(es []Entry) []Entry {
	for i := range es {
		es[i].Created = es[i].Created.UTC()
		for j := range es[i].Replicas {
			es[i].Replicas[j].StoredAt = es[i].Replicas[j].StoredAt.UTC()
		}
	}
	return es
}

// FuzzNamespaceMatchesReference drives the namespace and the reference
// through one sequence of creates, mkdir -p, moves, removes, replica
// adds and removes, metadata writes and grants taken from the fuzzer's
// bytes, and after each holds every answer to the reference's: the
// operation's error, then Lookup, the walk, Search, Stats, Replicas,
// FirstReplica and Permission. Times are given in two zones and as the
// zero Time; they come back as the same instants in UTC. Run as a plain
// test it replays the seed corpus.
func FuzzNamespaceMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6},
		{0, 3, 0, 5, 3, 1, 5, 3, 2, 5, 3, 3, 6, 3, 0, 2, 3, 4, 5, 3, 1},
		{1, 2, 0, 0, 4, 1, 5, 4, 0, 5, 4, 1, 5, 4, 2, 6, 4, 1, 7, 4, 3, 3, 4, 6},
		{0, 1, 9, 2, 1, 7, 8, 1, 1, 9, 5, 2, 10, 0, 0, 4, 2, 3, 11, 8, 0, 7, 6, 6},
		{1, 5, 0, 0, 6, 0, 5, 6, 2, 5, 6, 0, 5, 6, 5, 6, 6, 2, 6, 6, 0, 6, 6, 5, 8, 6, 1},
		// three replicas, then the first removed, then the middle one
		{0, 6, 2, 5, 6, 0, 5, 6, 1, 5, 6, 2, 6, 6, 0, 6, 6, 2, 5, 6, 3},
		// a grant before the second replica, on an object moved twice
		{1, 1, 0, 0, 4, 2, 9, 4, 1, 5, 4, 0, 5, 4, 1, 3, 1, 2, 3, 2, 1, 6, 5, 0, 5, 5, 2},
	} {
		f.Add(seed)
	}
	paths := []string{"/a", "/a/b", "/c", "/a/o1", "/a/b/o2", "/c/o3", "/o4", "//a/./o1", "/a/b/", "/a/o1/x", "/", "rel", "/a/../c"}
	users := []string{"admin", "u1", "u2@sdsc", Wildcard}
	resources := []string{"disk", "tape", "gpfs", ""}
	attrs := []string{"tag", "run", "size", "owner"}
	values := []string{"", "v", "10", "9"}
	ops := []QueryOp{OpEq, OpNe, OpExists, OpPrefix, OpGt}
	zones := []*time.Location{time.UTC, time.FixedZone("PDT", -7*3600)}
	f.Fuzz(func(t *testing.T, prog []byte) {
		ns, ref := New("admin"), newRefNS("admin")
		for step := 0; len(prog) >= 3; step++ {
			op, a, b := prog[0], int(prog[1]), int(prog[2])
			prog = prog[3:]
			path, other := paths[a%len(paths)], paths[b%len(paths)]
			user := users[(a+b)%len(users)]
			now := sim.Epoch.Add(time.Duration(step) * time.Second).In(zones[b%len(zones)])
			if b%5 == 4 {
				now = time.Time{}
			}
			var got, want error
			switch op % 11 {
			case 0:
				got, want = ns.CreateObject(path, user, "d"+strconv.Itoa(b%2), int64(b)-2, now), ref.CreateObject(path, user, "d"+strconv.Itoa(b%2), int64(b)-2, now)
			case 1:
				got, want = ns.MkCollectionAll(path, user, "d", now), ref.MkCollectionAll(path, user, "d", now)
			case 3:
				got, want = ns.Move(path, other), ref.Move(path, other)
			case 4:
				got, want = ns.Remove(path), ref.Remove(path)
			case 5:
				rep := Replica{Resource: resources[b%len(resources)], PhysicalID: other, StoredAt: now}
				rep.Checksum[0] = byte(b)
				got, want = ns.AddReplica(path, rep), ref.AddReplica(path, rep)
			case 6:
				got, want = ns.RemoveReplica(path, resources[b%len(resources)]), ref.RemoveReplica(path, resources[b%len(resources)])
			case 7:
				got, want = ns.SetMeta(path, attrs[b%len(attrs)], values[b/4%len(values)]), ref.SetMeta(path, attrs[b%len(attrs)], values[b/4%len(values)])
			case 9:
				got, want = ns.SetPermission(path, user, Perm(b%4)), ref.SetPermission(path, user, Perm(b%4))
			default: // 2, 8 and 10 name no operation; the seeds above keep these codes
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d, op %d on %q, %q: %v; the reference: %v", step, op%11, path, other, got, want)
			}
			q := Query{Scope: paths[b%3], ObjectsOnly: a%2 == 0, Limit: b % 3,
				Conditions: []Condition{{Attr: attrs[a%len(attrs)], Op: ops[b%len(ops)], Value: values[a%len(values)]}}}
			sameAnswers(t, step, ns, ref, paths, users, q)
		}
	})
}

// sameAnswers fails t unless every read of ns answers as ref does.
func sameAnswers(t *testing.T, step int, ns *Namespace, ref *refNS, paths, users []string, q Query) {
	t.Helper()
	check := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %s = %+v, %v\nthe reference: %+v, %v", step, what, got, gotErr, want, wantErr)
		}
	}
	// Each node's kind, owner and domain, which no Entry carries, are
	// compared beside the walk's entries.
	var walked, refWalked []Entry
	var who, refWho []string
	err := ns.walk("/", func(n *node, path string) error {
		walked = append(walked, n.entry(path))
		who = append(who, fmt.Sprint(n.kind, n.who.owner, n.who.domain))
		return nil
	})
	refErr := ref.walk("/", func(n *refNode, path string) error {
		refWalked = append(refWalked, n.entry(path))
		refWho = append(refWho, fmt.Sprint(n.kind, n.owner, n.domain))
		return nil
	})
	check("walk(/)", walked, utcEntries(refWalked), err, refErr)
	check("kind, owner and domain", who, refWho, nil, nil)
	check("Stats", ns.Stats(), ref.Stats(), nil, nil)
	got, err := ns.Search(q)
	want, refErr := ref.Search(q)
	check(fmt.Sprintf("Search(%+v)", q), got, utcEntries(want), err, refErr)
	for _, p := range paths {
		e, err := ns.Lookup(p)
		refE, refErr := ref.Lookup(p)
		check("Lookup("+p+")", e, utcEntries([]Entry{refE})[0], err, refErr)
		reps, err := ns.Replicas(p)
		refReps, refErr := ref.Replicas(p)
		check("Replicas("+p+")", reps, utcEntries([]Entry{{Replicas: refReps}})[0].Replicas, err, refErr)
		first, ok, err := ns.FirstReplica(p)
		refFirst, refOK, refErr := ref.FirstReplica(p)
		refFirst.StoredAt = refFirst.StoredAt.UTC()
		check("FirstReplica("+p+")", []any{first, ok}, []any{refFirst, refOK}, err, refErr)
		for _, u := range users {
			perm, err := ns.Permission(p, u)
			refPerm, refErr := ref.Permission(p, u)
			check("Permission("+p+", "+u+")", perm, refPerm, err, refErr)
		}
	}
}
