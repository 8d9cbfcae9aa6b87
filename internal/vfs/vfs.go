// Package vfs simulates the physical storage resources a datagrid
// federates: spinning disk, parallel file systems and tape archives.
//
// Each Resource is a flat blob store with a performance/cost profile.
// Operations return the simulated duration they would take on that class
// of hardware, which callers charge to a sim.Clock or sim.Meter. Objects
// may carry real bytes (examples, checksum tests) or be synthetic —
// size-only records standing in for the multi-terabyte files of the
// paper's production deployments that we obviously cannot materialize.
package vfs

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"datagridflow/internal/dgferr"
)

// Class identifies the kind of physical storage system a resource models.
type Class int

// Storage classes, ordered roughly by access speed.
const (
	// Memory models a RAM cache or staging buffer.
	Memory Class = iota
	// ParallelFS models a high-performance parallel file system (GPFS/Lustre).
	ParallelFS
	// Disk models commodity spinning disk.
	Disk
	// Archive models a tape silo or deep archive with long mount latency.
	Archive
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Memory:
		return "memory"
	case ParallelFS:
		return "parallel-fs"
	case Disk:
		return "disk"
	case Archive:
		return "archive"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Profile is the performance and cost model of a storage class.
type Profile struct {
	// ReadBW and WriteBW are sustained bandwidths in bytes/second.
	ReadBW, WriteBW float64
	// Latency is the fixed per-operation cost (seek, tape mount, ...).
	Latency time.Duration
	// DollarsPerGBMonth is the retention cost used by ILM policies.
	DollarsPerGBMonth float64
}

// DefaultProfile returns the built-in profile for a class. The figures are
// 2005-era: commodity disk ~60 MB/s, GPFS-class parallel FS ~400 MB/s,
// tape ~30 MB/s with a 30 s mount penalty but 20× cheaper retention.
func DefaultProfile(c Class) Profile {
	switch c {
	case Memory:
		return Profile{ReadBW: 2 << 30, WriteBW: 2 << 30, Latency: 100 * time.Microsecond, DollarsPerGBMonth: 50}
	case ParallelFS:
		return Profile{ReadBW: 500 << 20, WriteBW: 400 << 20, Latency: 2 * time.Millisecond, DollarsPerGBMonth: 3}
	case Disk:
		return Profile{ReadBW: 80 << 20, WriteBW: 60 << 20, Latency: 5 * time.Millisecond, DollarsPerGBMonth: 1}
	case Archive:
		return Profile{ReadBW: 20 << 20, WriteBW: 30 << 20, Latency: 30 * time.Second, DollarsPerGBMonth: 0.05}
	default:
		return Profile{ReadBW: 1 << 20, WriteBW: 1 << 20, Latency: time.Second, DollarsPerGBMonth: 1}
	}
}

// Sentinel errors returned by Resource operations. Each wraps its dgferr
// class so callers can match against the public taxonomy.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = dgferr.Mark(dgferr.ErrNotFound, "vfs: object not found")
	// ErrExists reports an id collision on Put.
	ErrExists = dgferr.Mark(dgferr.ErrExists, "vfs: object already exists")
	// ErrCapacity reports that the resource is full.
	ErrCapacity = dgferr.Mark(dgferr.ErrCapacity, "vfs: resource capacity exceeded")
	// ErrOffline reports an operation against a resource taken offline.
	// Transient (dgferr.ErrResourceDown): retry policies wait it out.
	ErrOffline = dgferr.Mark(dgferr.ErrResourceDown, "vfs: resource offline")
)

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	ID        string
	Size      int64
	Synthetic bool // true when no real bytes are held
	StoredAt  time.Time
}

type object struct {
	info      ObjectInfo
	data      []byte // nil for synthetic objects
	checksum  string // computed lazily
	corrupted bool   // synthetic bit-rot marker
}

// Resource is one simulated physical storage system. It is safe for
// concurrent use.
type Resource struct {
	name    string
	domain  string
	class   Class
	profile Profile

	mu       sync.RWMutex
	offline  bool
	capacity int64
	used     int64
	objects  map[string]*object
	reads    int64
	writes   int64
}

// New creates a resource with the default profile for its class.
// capacity <= 0 means unlimited.
func New(name, domain string, class Class, capacity int64) *Resource {
	return &Resource{
		name:     name,
		domain:   domain,
		class:    class,
		profile:  DefaultProfile(class),
		capacity: capacity,
		objects:  make(map[string]*object),
	}
}

// NewWithProfile creates a resource with an explicit profile.
func NewWithProfile(name, domain string, class Class, capacity int64, p Profile) *Resource {
	r := New(name, domain, class, capacity)
	r.profile = p
	return r
}

// Name returns the resource's unique name.
func (r *Resource) Name() string { return r.name }

// Domain returns the administrative domain that owns the resource.
func (r *Resource) Domain() string { return r.domain }

// Class returns the storage class.
func (r *Resource) Class() Class { return r.class }

// Profile returns the performance/cost profile.
func (r *Resource) Profile() Profile { return r.profile }

// Capacity returns the configured capacity in bytes (0 = unlimited).
func (r *Resource) Capacity() int64 { return r.capacity }

// Used returns the bytes currently stored.
func (r *Resource) Used() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.used
}

// Free returns remaining capacity; for unlimited resources it returns a
// very large number so comparisons still work.
func (r *Resource) Free() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.capacity <= 0 {
		return 1 << 62
	}
	return r.capacity - r.used
}

// SetOffline marks the resource offline (true) or online (false);
// operations against an offline resource fail with ErrOffline. Experiments
// use this for failure injection.
func (r *Resource) SetOffline(off bool) {
	r.mu.Lock()
	r.offline = off
	r.mu.Unlock()
}

// Offline reports whether the resource is offline.
func (r *Resource) Offline() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.offline
}

func (r *Resource) writeTime(size int64) time.Duration {
	return r.profile.Latency + time.Duration(float64(size)/r.profile.WriteBW*float64(time.Second))
}

func (r *Resource) readTime(size int64) time.Duration {
	return r.profile.Latency + time.Duration(float64(size)/r.profile.ReadBW*float64(time.Second))
}

// ReadTime predicts the duration of reading size bytes without touching
// any object — schedulers use it to price candidate placements.
func (r *Resource) ReadTime(size int64) time.Duration { return r.readTime(size) }

// WriteTime predicts the duration of writing size bytes.
func (r *Resource) WriteTime(size int64) time.Duration { return r.writeTime(size) }

// Put stores an object. data may be nil, in which case the object is
// synthetic and only size is tracked. When data is non-nil its length must
// equal size. The returned duration is the simulated write time.
func (r *Resource) Put(id string, size int64, data []byte, now time.Time) (time.Duration, error) {
	if size < 0 {
		return 0, fmt.Errorf("vfs: negative size %d for %q", size, id)
	}
	if data != nil && int64(len(data)) != size {
		return 0, fmt.Errorf("vfs: size %d does not match data length %d for %q", size, len(data), id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offline {
		return 0, fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	if _, ok := r.objects[id]; ok {
		return 0, fmt.Errorf("%w: %s on %s", ErrExists, id, r.name)
	}
	if r.capacity > 0 && r.used+size > r.capacity {
		return 0, fmt.Errorf("%w: %s needs %d, free %d", ErrCapacity, r.name, size, r.capacity-r.used)
	}
	var stored []byte
	if data != nil {
		stored = make([]byte, len(data))
		copy(stored, data)
	}
	r.objects[id] = &object{
		info: ObjectInfo{ID: id, Size: size, Synthetic: data == nil, StoredAt: now},
		data: stored,
	}
	r.used += size
	r.writes++
	return r.writeTime(size), nil
}

// Get retrieves an object's bytes (nil for synthetic objects) plus the
// simulated read time.
func (r *Resource) Get(id string) ([]byte, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offline {
		return nil, 0, fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	o, ok := r.objects[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	var out []byte
	if o.data != nil {
		out = make([]byte, len(o.data))
		copy(out, o.data)
	}
	r.reads++
	return out, r.readTime(o.info.Size), nil
}

// Delete removes an object; the simulated duration is one latency unit.
func (r *Resource) Delete(id string) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offline {
		return 0, fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	o, ok := r.objects[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	delete(r.objects, id)
	r.used -= o.info.Size
	return r.profile.Latency, nil
}

// Stat returns metadata about an object without charging read time.
func (r *Resource) Stat(id string) (ObjectInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o, ok := r.objects[id]
	if !ok {
		return ObjectInfo{}, false
	}
	return o.info, true
}

// Checksum returns the MD5 of the object's content as a hex string, plus
// the simulated time of the full read it implies. Synthetic objects get a
// deterministic pseudo-checksum derived from (id, size), which preserves
// the fixity-verification behaviour (same object ⇒ same digest; a
// different replica id or size ⇒ different digest).
func (r *Resource) Checksum(id string) (string, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offline {
		return "", 0, fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	o, ok := r.objects[id]
	if !ok {
		return "", 0, fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	if o.checksum == "" {
		o.checksum = computeChecksum(o)
	}
	r.reads++
	return o.checksum, r.readTime(o.info.Size), nil
}

func computeChecksum(o *object) string {
	data := o.data
	if data == nil {
		// The pseudo-content: id, size and the corruption mark. The buffer
		// stays on the stack for any id short of ~100 bytes.
		msg := make([]byte, 0, 128)
		msg = append(msg, o.info.ID...)
		msg = binary.BigEndian.AppendUint64(msg, uint64(o.info.Size))
		if o.corrupted {
			msg = append(msg, "corrupted"...)
		}
		data = msg
	}
	sum := md5.Sum(data)
	var text [2 * md5.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// Corrupt silently damages the stored object — the bit-rot failure mode
// fixity verification exists to catch. Real data has its first byte
// flipped; synthetic objects are marked corrupted, which perturbs their
// pseudo-digest. Any cached checksum is invalidated so the next Checksum
// reflects the damage.
func (r *Resource) Corrupt(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.objects[id]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	if o.data != nil {
		o.data[0] ^= 0xFF
	} else {
		o.corrupted = true
	}
	o.checksum = ""
	return nil
}

// List returns the ids of all stored objects, sorted.
func (r *Resource) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.objects))
	for id := range r.objects {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored objects.
func (r *Resource) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.objects)
}

// Stats reports cumulative read/write operation counts.
func (r *Resource) Stats() (reads, writes int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.reads, r.writes
}

// RetentionCost returns the dollars charged for keeping the currently
// stored bytes for the given duration, using the class's $/GB-month rate.
// ILM policies compare this across classes when deciding migrations.
func (r *Resource) RetentionCost(d time.Duration) float64 {
	const gbMonth = float64(30*24) * float64(time.Hour)
	r.mu.RLock()
	used := float64(r.used)
	r.mu.RUnlock()
	return used / float64(1<<30) * r.profile.DollarsPerGBMonth * (float64(d) / gbMonth)
}
