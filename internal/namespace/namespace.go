package namespace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Replica records one physical copy of a logical object: which logical
// resource holds it and under which physical id, plus the fixity digest
// recorded when it was written.
type Replica struct {
	// Resource is the logical resource name holding the copy.
	Resource string
	// PhysicalID is the object id within that resource's store.
	PhysicalID string
	// Checksum is the MD5 recorded at write time ("" if never computed).
	Checksum string
	// StoredAt is when the replica was created (simulated time).
	StoredAt time.Time
}

// EntryKind distinguishes collections from data objects.
type EntryKind int

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
// namespace.
type Entry struct {
	Path     string
	Kind     EntryKind
	Owner    string
	Domain   string // owning administrative domain
	Size     int64  // objects only
	Created  time.Time
	Metadata map[string]string
	Replicas []Replica // objects only
}

type node struct {
	name     string
	kind     EntryKind
	owner    string
	domain   string
	size     int64
	created  time.Time
	meta     map[string]string // nil until the first SetMeta: most entries are never tagged
	replicas []Replica
	children map[string]*node // collections only
	acl      map[string]Perm  // explicit grants; inherited from ancestors
}

func (n *node) entry(path string) Entry {
	e := Entry{
		Path:    path,
		Kind:    n.kind,
		Owner:   n.owner,
		Domain:  n.domain,
		Size:    n.size,
		Created: n.created,
	}
	if len(n.meta) > 0 {
		e.Metadata = make(map[string]string, len(n.meta))
		for k, v := range n.meta {
			e.Metadata[k] = v
		}
	}
	if len(n.replicas) > 0 {
		e.Replicas = append([]Replica(nil), n.replicas...)
	}
	return e
}

// Namespace is the thread-safe logical namespace tree.
type Namespace struct {
	mu   sync.RWMutex
	root *node
}

// New returns a namespace containing only the root collection, owned by
// the given administrator.
func New(admin string) *Namespace {
	return &Namespace{root: &node{
		name:     "/",
		kind:     KindCollection,
		owner:    admin,
		children: make(map[string]*node),
		acl:      map[string]Perm{admin: PermOwn},
	}}
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

// insert files n under parent as name. The name is cloned, at creation
// only and never on lookup: CleanPath returns a canonical argument
// untouched, so name is a substring of whatever the caller passed — an
// interpolated parameter, a decoded request document — and a node must
// not keep that whole buffer alive.
func (parent *node) insert(name string, n *node) {
	n.name = strings.Clone(name)
	parent.children[n.name] = n
}

// createAt is the shared body of MkCollection and CreateObject: one walk
// finds the parent collection and the free name, then n goes in.
func (ns *Namespace) createAt(clean string, n *node) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	parent, name, existing, err := ns.descend(clean, nil)
	if err != nil {
		return fmt.Errorf("%w: %s", err, Parent(clean))
	}
	if existing != nil {
		return fmt.Errorf("%w: %s", ErrExists, clean)
	}
	parent.insert(name, n)
	return nil
}

// MkCollection creates a collection at path; the parent must exist.
func (ns *Namespace) MkCollection(path, owner, domain string, now time.Time) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	if clean == "/" {
		return fmt.Errorf("%w: /", ErrExists)
	}
	return ns.createAt(clean, newCollection(owner, domain, now))
}

func newCollection(owner, domain string, now time.Time) *node {
	return &node{
		kind:     KindCollection,
		owner:    owner,
		domain:   domain,
		created:  now,
		children: make(map[string]*node),
	}
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
		next, ok := cur.children[part]
		if !ok {
			next = newCollection(owner, domain, now)
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
	return ns.createAt(clean, &node{
		kind:    KindObject,
		owner:   owner,
		domain:  domain,
		size:    size,
		created: now,
	})
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

// List returns the entries directly inside the collection at path, sorted
// by name.
func (ns *Namespace) List(path string) ([]Entry, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	_, _, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return nil, err
	}
	if n.kind != KindCollection {
		return nil, fmt.Errorf("%w: %s", ErrNotCollection, clean)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Entry, 0, len(names))
	base := clean
	if base == "/" {
		base = ""
	}
	for _, name := range names {
		out = append(out, n.children[name].entry(base+"/"+name))
	}
	return out, nil
}

// Walk visits every entry under root (depth-first, children in name
// order), calling fn with each. Returning a non-nil error from fn aborts
// the walk and is returned.
func (ns *Namespace) Walk(root string, fn func(Entry) error) error {
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

func walkNode(n *node, path string, fn func(Entry) error) error {
	if err := fn(n.entry(path)); err != nil {
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
	base := path
	if base == "/" {
		base = ""
	}
	for _, name := range names {
		if err := walkNode(n.children[name], base+"/"+name, fn); err != nil {
			return err
		}
	}
	return nil
}

// Remove deletes the object at path. Collections need RemoveCollection.
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
	delete(parent.children, name)
	return nil
}

// RemoveCollection deletes the collection at path. Unless recursive is
// set, the collection must be empty.
func (ns *Namespace) RemoveCollection(path string, recursive bool) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	if clean == "/" {
		return fmt.Errorf("%w: cannot remove /", ErrBadPath)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	parent, name, n, err := ns.find(clean, clean, nil)
	if err != nil {
		return err
	}
	if n.kind != KindCollection {
		return fmt.Errorf("%w: %s", ErrNotCollection, clean)
	}
	if !recursive && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, clean)
	}
	delete(parent.children, name)
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
	dstParent, dstName, existing, err := ns.descend(cd, nil)
	if err != nil {
		return fmt.Errorf("%w: %s", err, Parent(cd))
	}
	if existing != nil {
		return fmt.Errorf("%w: %s", ErrExists, cd)
	}
	delete(srcParent.children, srcName)
	dstParent.insert(dstName, n)
	return nil
}

// AddReplica appends a replica record to the object at path. Duplicate
// (resource) entries are rejected: the grid keeps at most one replica of
// an object per logical resource.
func (ns *Namespace) AddReplica(path string, rep Replica) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, err := ns.objectNode(path)
	if err != nil {
		return err
	}
	for _, r := range n.replicas {
		if r.Resource == rep.Resource {
			return fmt.Errorf("%w: replica of %s on %s", ErrExists, path, rep.Resource)
		}
	}
	n.replicas = append(n.replicas, rep)
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
	for i, r := range n.replicas {
		if r.Resource == resource {
			n.replicas = append(n.replicas[:i], n.replicas[i+1:]...)
			return nil
		}
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
	return append([]Replica(nil), n.replicas...), nil
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
func (ns *Namespace) SetMeta(path, attr, value string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if n.meta == nil {
		n.meta = make(map[string]string)
	}
	n.meta[attr] = value
	return nil
}

// DeleteMeta removes a metadata attribute; removing a missing attribute
// is a no-op.
func (ns *Namespace) DeleteMeta(path, attr string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, err := ns.resolve(path)
	if err != nil {
		return err
	}
	delete(n.meta, attr)
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
	v, ok := n.meta[attr]
	return v, ok, nil
}

// Stats summarizes the namespace.
type Stats struct {
	Collections int
	Objects     int
	TotalBytes  int64
	Replicas    int
}

// Stats walks the whole tree and returns aggregate counts.
func (ns *Namespace) Stats() Stats {
	var s Stats
	_ = ns.Walk("/", func(e Entry) error {
		if e.Kind == KindCollection {
			s.Collections++
		} else {
			s.Objects++
			s.TotalBytes += e.Size
			s.Replicas += len(e.Replicas)
		}
		return nil
	})
	return s
}
