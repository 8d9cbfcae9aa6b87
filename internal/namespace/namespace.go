package namespace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/vfs"
)

// Replica records one physical copy of a logical object: which logical
// resource holds it and under which physical id, plus the fixity digest
// recorded when it was written.
type Replica struct {
	// Resource is the logical resource name holding the copy.
	Resource string
	// PhysicalID is the object id within that resource's store.
	PhysicalID string
	// Checksum is the MD5 recorded at write time; the zero value means
	// it was never computed.
	Checksum vfs.Digest
	// StoredAt is when the replica was created (simulated time), in UTC.
	StoredAt time.Time
}

// EntryKind distinguishes collections from data objects.
type EntryKind uint8

// Entry kinds.
const (
	KindCollection EntryKind = iota
	KindObject
)

// String returns "collection" or "object".
func (k EntryKind) String() string {
	if k == KindCollection {
		return "collection"
	}
	return "object"
}

// Entry is a read-only view of a namespace node, returned by lookups and
// listings. Maps and slices are copies; mutating them does not affect the
// namespace. Times are in UTC.
type Entry struct {
	Path     string
	Size     int64 // objects only
	Created  time.Time
	Metadata map[string]string
	Replicas []Replica // objects only
}

// node is one entry of the tree. It does not hold its own name: the
// children map of its collection does. An object's name there is a
// suffix of its clean path as the namespace copied it, which NewObject
// hands back for the caller to keep as the object's physical id.
type node struct {
	kind     EntryKind
	who      *principal // interned (owner, domain)
	size     int64
	created  vfs.Stamp
	meta     []metaPair // sorted by key; nil until the first SetMeta: most entries are never tagged
	replica0 replica    // the first replica; there is none while its res is nil
	ext      *nodeExt   // every collection's; an object's once it is granted or given a second replica
}

// nodeExt is what most objects never need. A collection's is allocated
// together with its node.
type nodeExt struct {
	children map[string]*node // collections only
	acl      map[string]Perm  // explicit grants; inherited from ancestors
	more     []replica        // the replicas after the first, in order; on one until there are two
	one      [1]replica
}

// principal is an (owner, domain) pair, interned per namespace.
type principal struct{ owner, domain string }

// replica is a Replica as a node keeps it: the resource name interned,
// the time as a stamp.
type replica struct {
	res *string
	id  string
	sum vfs.Digest
	at  vfs.Stamp
}

func (r *replica) export() Replica {
	return Replica{Resource: *r.res, PhysicalID: r.id, Checksum: r.sum, StoredAt: r.at.Time()}
}

// children returns a collection's children; an object has none.
func (n *node) children() map[string]*node {
	if n.ext == nil {
		return nil
	}
	return n.ext.children
}

// grants returns n's explicit grants, nil when it has none.
func (n *node) grants() map[string]Perm {
	if n.ext == nil {
		return nil
	}
	return n.ext.acl
}

// extension returns n's nodeExt, allocating it on first use.
func (n *node) extension() *nodeExt {
	if n.ext == nil {
		n.ext = &nodeExt{}
	}
	return n.ext
}

// replicaCount returns how many replicas n has.
func (n *node) replicaCount() int {
	switch {
	case n.replica0.res == nil:
		return 0
	case n.ext == nil:
		return 1
	default:
		return 1 + len(n.ext.more)
	}
}

// replicaAt returns n's i'th replica, for i below replicaCount.
func (n *node) replicaAt(i int) *replica {
	if i == 0 {
		return &n.replica0
	}
	return &n.ext.more[i-1]
}

// replicas returns n's replica records, nil when it has none.
func (n *node) replicas() []Replica {
	k := n.replicaCount()
	if k == 0 {
		return nil
	}
	out := make([]Replica, k)
	for i := range out {
		out[i] = n.replicaAt(i).export()
	}
	return out
}

// metaPair is one user-defined metadata attribute of a node.
type metaPair struct{ key, value string }

// metaIndex returns the index of attr in n.meta, or where it would go,
// and whether it is there.
func (n *node) metaIndex(attr string) (int, bool) {
	i := sort.Search(len(n.meta), func(i int) bool { return n.meta[i].key >= attr })
	return i, i < len(n.meta) && n.meta[i].key == attr
}

// getMeta returns the value of attr and whether it is set.
func (n *node) getMeta(attr string) (string, bool) {
	if i, ok := n.metaIndex(attr); ok {
		return n.meta[i].value, true
	}
	return "", false
}

func (n *node) entry(path string) Entry {
	e := Entry{
		Path:     path,
		Size:     n.size,
		Created:  n.created.Time(),
		Replicas: n.replicas(),
	}
	if len(n.meta) > 0 {
		e.Metadata = make(map[string]string, len(n.meta))
		for _, p := range n.meta {
			e.Metadata[p.key] = p.value
		}
	}
	return e
}

// Namespace is the thread-safe logical namespace tree.
type Namespace struct {
	mu   sync.RWMutex
	root *node
	// principals and resources intern what nodes point at: each distinct
	// (owner, domain) pair and replica resource name is copied once, when
	// first seen, and kept for the namespace's life.
	principals map[principal]*principal
	resources  map[string]*string
}

// New returns a namespace containing only the root collection, owned by
// the given administrator.
func New(admin string) *Namespace {
	ns := &Namespace{principals: make(map[principal]*principal), resources: make(map[string]*string)}
	ns.root = ns.newCollection(admin, "", time.Time{})
	ns.root.ext.acl = map[string]Perm{admin: PermOwn}
	return ns
}

// principal returns the interned (owner, domain) pair. Caller must hold
// the write lock.
func (ns *Namespace) principal(owner, domain string) *principal {
	if p := ns.principals[principal{owner, domain}]; p != nil {
		return p
	}
	p := &principal{strings.Clone(owner), strings.Clone(domain)}
	ns.principals[*p] = p
	return p
}

// resource returns the interned resource name. Caller must hold the
// write lock.
func (ns *Namespace) resource(name string) *string {
	if p := ns.resources[name]; p != nil {
		return p
	}
	p := new(string)
	*p = strings.Clone(name)
	ns.resources[*p] = p
	return p
}

// descend walks the canonical path clean from the root, one component
// at a time by index, and returns the node it names, the collection
// holding it and the name it is held under (nil and "" for the root).
// When only the last component is missing, n is nil and parent and name
// say where it would go, so lookups, creators and removers share one
// walk. The errors are the bare ErrNotFound (a missing intermediate) and
// ErrNotCollection (a walk through an object); callers wrap them with
// the path they quote. visit, when non-nil, sees every node on the way
// down, root first. Caller must hold at least RLock.
func (ns *Namespace) descend(clean string, visit func(*node)) (parent *node, name string, n *node, err error) {
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
		if n = parent.ext.children[name]; n == nil {
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

// find is descend for an entry that must exist; errors quote the path
// the caller was given.
func (ns *Namespace) find(clean, quote string, visit func(*node)) (parent *node, name string, n *node, err error) {
	parent, name, n, err = ns.descend(clean, visit)
	if err == nil && n == nil {
		err = ErrNotFound
	}
	if err != nil {
		return nil, "", nil, fmt.Errorf("%w: %s", err, quote)
	}
	return parent, name, n, nil
}

// resolve walks to the node at path, which need not be clean. Caller
// must hold at least RLock.
func (ns *Namespace) resolve(path string) (*node, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	_, _, n, err := ns.find(clean, path, nil)
	return n, err
}

// insert files n under parent as name, in a copy of its own. Names are
// copied at creation only and never on lookup: CleanPath returns a
// canonical argument untouched, so name is a substring of whatever the
// caller passed — an interpolated parameter, a decoded request document
// — and the tree must not keep that whole buffer alive.
func (parent *node) insert(name string, n *node) {
	parent.ext.children[strings.Clone(name)] = n
}

// freeName is the walk NewObject and Move share: it finds the
// parent collection of clean and the name it is free under there.
// Caller must hold the write lock.
func (ns *Namespace) freeName(clean string) (parent *node, name string, err error) {
	parent, name, existing, err := ns.descend(clean, nil)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %s", err, Parent(clean))
	}
	if existing != nil {
		return nil, "", fmt.Errorf("%w: %s", ErrExists, clean)
	}
	return parent, name, nil
}

// newCollection returns an empty collection, allocated with its
// nodeExt. Caller must hold the write lock.
func (ns *Namespace) newCollection(owner, domain string, now time.Time) *node {
	c := &struct {
		n node
		x nodeExt
	}{}
	c.x.children = make(map[string]*node)
	c.n = node{kind: KindCollection, who: ns.principal(owner, domain), created: vfs.StampOf(now), ext: &c.x}
	return &c.n
}

// MkCollectionAll creates a collection and any missing ancestors, like
// `mkdir -p`. Existing collections along the way are left untouched.
func (ns *Namespace) MkCollectionAll(path, owner, domain string, now time.Time) error {
	parts, err := SplitPath(path)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur := ns.root
	for _, part := range parts {
		if cur.kind != KindCollection {
			return fmt.Errorf("%w: %s", ErrNotCollection, part)
		}
		next, ok := cur.ext.children[part]
		if !ok {
			next = ns.newCollection(owner, domain, now)
			cur.insert(part, next)
		}
		cur = next
	}
	if cur.kind != KindCollection {
		return fmt.Errorf("%w: %s", ErrNotCollection, path)
	}
	return nil
}

// CreateObject registers a logical data object. The parent collection must
// exist. The object starts with no replicas; the DGMS adds one per
// physical copy it writes.
func (ns *Namespace) CreateObject(path, owner, domain string, size int64, now time.Time) error {
	_, err := ns.NewObject(path, owner, domain, size, now)
	return err
}

// NewObject is CreateObject returning the object's clean path in the
// namespace's own copy, the one its name in the tree is cut from. A
// caller that keeps the path — as a replica's physical id, as a
// resource's key — shares that copy instead of keeping the buffer path
// may have been cut from.
func (ns *Namespace) NewObject(path, owner, domain string, size int64, now time.Time) (string, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return "", err
	}
	if clean == "/" {
		return "", fmt.Errorf("%w: cannot create object at /", ErrBadPath)
	}
	if size < 0 {
		return "", fmt.Errorf("%w: negative size", ErrBadPath)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	parent, name, err := ns.freeName(clean)
	if err != nil {
		return "", err
	}
	own := strings.Clone(clean)
	parent.ext.children[own[len(own)-len(name):]] = &node{
		kind:    KindObject,
		who:     ns.principal(owner, domain),
		size:    size,
		created: vfs.StampOf(now),
	}
	return own, nil
}

// Lookup returns the entry at path.
func (ns *Namespace) Lookup(path string) (Entry, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return Entry{}, err
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	_, _, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return Entry{}, err
	}
	return n.entry(clean), nil
}

// Exists reports whether path names a collection or object.
func (ns *Namespace) Exists(path string) bool {
	_, err := ns.Lookup(path)
	return err == nil
}

// walk visits every node under root (depth-first, children in name
// order), calling fn with each and its path. Returning a non-nil error
// from fn aborts the walk and is returned.
func (ns *Namespace) walk(root string, fn func(n *node, path string) error) error {
	clean, err := CleanPath(root)
	if err != nil {
		return err
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	_, _, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return err
	}
	return walkNode(n, clean, fn)
}

func walkNode(n *node, path string, fn func(n *node, path string) error) error {
	if err := fn(n, path); err != nil {
		return err
	}
	if n.kind != KindCollection {
		return nil
	}
	children := n.children()
	names := make([]string, 0, len(children))
	for name := range children {
		names = append(names, name)
	}
	sort.Strings(names)
	base := path
	if base == "/" {
		base = ""
	}
	for _, name := range names {
		if err := walkNode(children[name], base+"/"+name, fn); err != nil {
			return err
		}
	}
	return nil
}

// Remove deletes the object at path.
func (ns *Namespace) Remove(path string) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	parent, name, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return err
	}
	if n.kind != KindObject {
		return fmt.Errorf("%w: %s", ErrNotObject, clean)
	}
	delete(parent.ext.children, name)
	return nil
}

// Move renames src to dst (both full paths). The destination parent must
// exist and dst must not. Replicas, metadata and ACLs travel with the
// node: this is the data-virtualization property — physical storage is
// untouched by logical reorganization.
func (ns *Namespace) Move(src, dst string) error {
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
	ns.mu.Lock()
	defer ns.mu.Unlock()
	srcParent, srcName, n, err := ns.find(cs, cs, nil)
	if err != nil {
		return err
	}
	dstParent, dstName, err := ns.freeName(cd)
	if err != nil {
		return err
	}
	delete(srcParent.ext.children, srcName)
	dstParent.insert(dstName, n)
	return nil
}

// AddReplica appends a replica record to the object at path. Duplicate
// (resource) entries are rejected: the grid keeps at most one replica of
// an object per logical resource. The resource name is interned; the
// physical id is kept as given, so a caller whose id is cut from a larger
// buffer passes a copy — NewObject's path is one.
func (ns *Namespace) AddReplica(path string, rep Replica) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, err := ns.objectNode(path)
	if err != nil {
		return err
	}
	k := n.replicaCount()
	for i := 0; i < k; i++ {
		if *n.replicaAt(i).res == rep.Resource {
			return fmt.Errorf("%w: replica of %s on %s", ErrExists, path, rep.Resource)
		}
	}
	r := replica{res: ns.resource(rep.Resource), id: rep.PhysicalID, sum: rep.Checksum, at: vfs.StampOf(rep.StoredAt)}
	if k == 0 {
		n.replica0 = r
		return nil
	}
	x := n.extension()
	if x.more == nil {
		x.more = x.one[:0]
	}
	x.more = append(x.more, r)
	return nil
}

// RemoveReplica deletes the replica on the named resource.
func (ns *Namespace) RemoveReplica(path, resource string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, err := ns.objectNode(path)
	if err != nil {
		return err
	}
	for i := 0; i < n.replicaCount(); i++ {
		if *n.replicaAt(i).res != resource {
			continue
		}
		switch {
		case n.replicaCount() == 1:
			n.replica0 = replica{}
		case i == 0:
			n.replica0 = n.ext.more[0]
			n.ext.more = slices.Delete(n.ext.more, 0, 1)
		default:
			n.ext.more = slices.Delete(n.ext.more, i-1, i)
		}
		return nil
	}
	return fmt.Errorf("%w: replica of %s on %s", ErrNotFound, path, resource)
}

// Replicas returns the replica records of the object at path.
func (ns *Namespace) Replicas(path string) ([]Replica, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	n, err := ns.objectNode(path)
	if err != nil {
		return nil, err
	}
	return n.replicas(), nil
}

// FirstReplica returns the first replica record of the object at path,
// and false when it has none: a caller that removes each replica it is
// handed walks them all without a copy of the list.
func (ns *Namespace) FirstReplica(path string) (Replica, bool, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	n, err := ns.objectNode(path)
	if err != nil || n.replicaCount() == 0 {
		return Replica{}, false, err
	}
	return n.replica0.export(), true, nil
}

func (ns *Namespace) objectNode(path string) (*node, error) {
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

// SetMeta sets one user-defined metadata attribute on the entry at path.
// Unlike names and owners, the attribute and its value are kept as
// given, not copied: a copy per re-tag would cost the engine_dag flow
// some 32 allocations an op. A caller whose strings are cut from a
// larger buffer keeps that buffer alive as long as the tag stands.
func (ns *Namespace) SetMeta(path, attr, value string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
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

// GetMeta returns one metadata attribute and whether it is set.
func (ns *Namespace) GetMeta(path, attr string) (string, bool, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	n, err := ns.resolve(path)
	if err != nil {
		return "", false, err
	}
	v, ok := n.getMeta(attr)
	return v, ok, nil
}

// Stats summarizes the namespace.
type Stats struct {
	Objects int
}

// Stats counts the whole tree, in no particular order and without
// copying an entry.
func (ns *Namespace) Stats() Stats {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	var s Stats
	ns.root.count(&s)
	return s
}

func (n *node) count(s *Stats) {
	if n.kind == KindObject {
		s.Objects++
		return
	}
	for _, c := range n.children() {
		c.count(s)
	}
}
