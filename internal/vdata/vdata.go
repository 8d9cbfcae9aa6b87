// Package vdata is the distributed virtual-data plane: a durable,
// tenant-scoped catalog of memoized derivations (docs/VDATA.md).
//
// The paper's §2.3 virtual-data scenario — "if the required output data
// is already available, it need not be derived again" — is realized
// here for the real engine: a pure DGL step's (transformation, sorted
// inputs, parameter bindings, tenant) tuple hashes to a derivation key;
// the first execution publishes the step's result under that key, and
// every later execution of the same derivation skips the work and
// grafts the memoized result. Entries persist through the store's
// group-committed writer (store.GroupFile) and survive restart; over
// the wire's vdata verb any peer's derivation is visible fleet-wide
// (docs/WIRE.md).
package vdata

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

// Entry is one memoized derivation: the canonical key, the tuple it
// hashes, the declared outputs, and the step result value the engine
// grafts on a hit.
type Entry struct {
	Key     string            `json:"key"`
	Tenant  string            `json:"tenant"`
	Op      string            `json:"op"`
	Inputs  []string          `json:"inputs,omitempty"`
	Params  map[string]string `json:"params,omitempty"`
	Outputs []string          `json:"outputs,omitempty"`
	Result  string            `json:"result,omitempty"`
	// Peer names the peer that first derived the entry, so a grafted
	// cross-peer hit keeps its provenance and vdata-locality placement
	// can route future pure subflows to the holder.
	Peer string `json:"peer,omitempty"`
	Unix int64  `json:"unix,omitempty"`
}

// Key derives the canonical derivation key for (transformation, inputs,
// parameter bindings, tenant). Input order is irrelevant — the same
// data through the same code under the same bindings is the same
// derivation — and the tenant is part of the tuple, so no tenant can
// ever observe (or poison) another tenant's derivations.
func Key(op string, inputs []string, params map[string]string, tenant string) string {
	sorted := append([]string(nil), inputs...)
	sort.Strings(sorted)
	kvs := make([]string, 0, len(params))
	for k, v := range params {
		kvs = append(kvs, k+"\x01"+v)
	}
	sort.Strings(kvs)
	h := sha256.Sum256([]byte(op + "\x00" + tenant + "\x00" +
		strings.Join(sorted, "\x00") + "\x00\x02" + strings.Join(kvs, "\x00")))
	return hex.EncodeToString(h[:16])
}

// record is one line of the catalog log: a publish ("put") or an
// invalidation ("del").
type record struct {
	Op    string `json:"op"`
	Entry *Entry `json:"entry,omitempty"`
	Key   string `json:"key,omitempty"`
}

// Stats is the catalog's shape, served by the wire "vdata" verb and
// printed by `dgfctl vdata stats`.
type Stats struct {
	Entries       int    `json:"entries"`
	Tenants       int    `json:"tenants"`
	Publishes     uint64 `json:"publishes"`
	Invalidations uint64 `json:"invalidations"`
	ReplayRecords int    `json:"replay_records"`
	Durable       bool   `json:"durable"`
}

// Catalog is the derivation catalog. All reads and writes are safe for
// concurrent use; a durable catalog appends every mutation through a
// group-committed log and replays it on open (a put may be younger than
// the last sync when the process dies: see Publish).
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// byOutput maps tenant-scoped output paths to the keys that derived
	// them, for invalidation by path. A set per output: two derivations
	// may share an output path (see internal/scheduler/virtualdata.go).
	byOutput map[string]map[string]struct{}

	log  *store.GroupFile // nil: memory-only (1.7 degradation, tests)
	reg  *obs.Registry
	peer string
	// announce, when set (SetAnnounce), is called after each successful
	// Publish with the new derivation key — the hook the wire peer uses
	// to advertise holdings to the lookup registry.
	announce func(key string)

	publishes     uint64
	invalidations uint64
	replayed      int
}

// LogName is the catalog log's file name inside its directory.
const LogName = "vdata.log"

// Open opens (creating if needed) the catalog in dir, replaying its
// log. An empty dir opens a memory-only catalog — memoization without
// durability, the same degradation a 1.7-only fleet gets.
func Open(dir string, reg *obs.Registry) (*Catalog, error) {
	if reg == nil {
		reg = obs.Default()
	}
	c := &Catalog{
		entries:  make(map[string]*Entry),
		byOutput: make(map[string]map[string]struct{}),
		reg:      reg,
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vdata: %w", err)
	}
	path := filepath.Join(dir, LogName)
	if err := c.replay(path); err != nil {
		return nil, err
	}
	log, err := store.OpenGroupFile(path)
	if err != nil {
		return nil, err
	}
	log.SetObs(reg)
	c.log = log
	c.gauge()
	return c, nil
}

// replay loads the catalog log, applying puts and dels in order. A
// torn tail (crash mid-append) is tolerated: the partial line is
// skipped and the next append overwrites nothing — the log is
// append-only, so the torn bytes are simply dead.
func (c *Catalog) replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("vdata: replay %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			continue // torn or foreign line: skip, keep replaying
		}
		switch r.Op {
		case "put":
			if r.Entry != nil && r.Entry.Key != "" {
				c.applyPut(r.Entry)
			}
		case "del":
			c.applyDel(r.Key)
		}
		c.replayed++
	}
	return sc.Err()
}

// SetPeer names this catalog's peer; published entries carry it so
// remote grafts keep their origin.
func (c *Catalog) SetPeer(name string) {
	c.mu.Lock()
	c.peer = name
	c.mu.Unlock()
}

// SetAnnounce installs a hook called (outside the catalog lock) after
// each successful Publish with the new derivation key. The wire layer
// uses it to announce holdings fleet-wide (docs/VDATA.md); nil removes
// the hook.
func (c *Catalog) SetAnnounce(fn func(key string)) {
	c.mu.Lock()
	c.announce = fn
	c.mu.Unlock()
}

// Peer returns the configured peer name.
func (c *Catalog) Peer() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.peer
}

func outputKey(tenant, output string) string { return tenant + "\x00" + output }

// applyPut updates the in-memory index only (replay and Publish share
// it). Caller holds mu or is single-threaded (replay).
func (c *Catalog) applyPut(e *Entry) {
	if old := c.entries[e.Key]; old != nil {
		for _, out := range old.Outputs {
			ok := outputKey(old.Tenant, out)
			if set := c.byOutput[ok]; set != nil {
				delete(set, e.Key)
				if len(set) == 0 {
					delete(c.byOutput, ok)
				}
			}
		}
	}
	cp := *e
	c.entries[e.Key] = &cp
	for _, out := range e.Outputs {
		ok := outputKey(e.Tenant, out)
		set := c.byOutput[ok]
		if set == nil {
			set = make(map[string]struct{})
			c.byOutput[ok] = set
		}
		set[e.Key] = struct{}{}
	}
}

func (c *Catalog) applyDel(key string) {
	e := c.entries[key]
	if e == nil {
		return
	}
	for _, out := range e.Outputs {
		ok := outputKey(e.Tenant, out)
		if set := c.byOutput[ok]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(c.byOutput, ok)
			}
		}
	}
	delete(c.entries, key)
}

// Lookup returns the entry for key if it is recorded for tenant. A key
// recorded under a different tenant is invisible: the tenant is part of
// the key derivation, but the check here makes cross-tenant probing of
// stolen keys fail too.
func (c *Catalog) Lookup(tenant, key string) (Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.entries[key]
	if e == nil || e.Tenant != tenant {
		return Entry{}, false
	}
	return *e, true
}

// Publish indexes a derivation and (when the catalog has a log) writes
// it to the log without waiting for the sync: a put is a memo, not a
// promise — one lost to a crash costs one recomputation — so it rides
// the log's next sync, or its linger (store.GroupFile.SyncSoon).
// Invalidate, whose loss would be wrong output, still waits. The
// entry's Peer defaults to the catalog's peer name.
func (c *Catalog) Publish(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("vdata: publish: empty key")
	}
	c.mu.Lock()
	if e.Peer == "" {
		e.Peer = c.peer
	}
	line, err := json.Marshal(record{Op: "put", Entry: &e})
	if err != nil {
		c.mu.Unlock()
		return err
	}
	log := c.log
	announce := c.announce
	c.applyPut(&e)
	c.publishes++
	c.reg.Counter("vdata_publishes_total").Inc()
	c.gaugeLocked()
	c.mu.Unlock()
	if log != nil {
		if _, err := log.Write(line); err != nil {
			return fmt.Errorf("vdata: publish: %w", err)
		}
		log.SyncSoon()
	}
	if announce != nil {
		announce(e.Key)
	}
	return nil
}

// Invalidate removes derivations for tenant by key or by output path
// (every derivation that declared the path), returning how many were
// dropped. Each drop is logged durably, so invalidations survive
// restart too.
func (c *Catalog) Invalidate(tenant, target string) (int, error) {
	c.mu.Lock()
	var keys []string
	if e := c.entries[target]; e != nil && e.Tenant == tenant {
		keys = append(keys, target)
	}
	for k := range c.byOutput[outputKey(tenant, target)] {
		if e := c.entries[k]; e != nil && e.Tenant == tenant {
			keys = append(keys, k)
		}
	}
	var lines [][]byte
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		line, err := json.Marshal(record{Op: "del", Key: k})
		if err != nil {
			c.mu.Unlock()
			return 0, err
		}
		lines = append(lines, line)
		c.applyDel(k)
		c.invalidations++
		c.reg.Counter("vdata_invalidations_total").Inc()
	}
	log := c.log
	c.gaugeLocked()
	c.mu.Unlock()
	for _, line := range lines {
		if log != nil {
			if err := log.Append(line); err != nil {
				return len(lines), fmt.Errorf("vdata: invalidate: %w", err)
			}
		}
	}
	return len(lines), nil
}

// Stats returns the catalog's shape.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tenants := make(map[string]struct{}, 8)
	for _, e := range c.entries {
		tenants[e.Tenant] = struct{}{}
	}
	return Stats{
		Entries:       len(c.entries),
		Tenants:       len(tenants),
		Publishes:     c.publishes,
		Invalidations: c.invalidations,
		ReplayRecords: c.replayed,
		Durable:       c.log != nil,
	}
}

// Len returns the number of recorded derivations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Keys returns every recorded derivation key (for registry
// re-announcement after restart).
func (c *Catalog) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c *Catalog) gauge() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.gaugeLocked()
}

func (c *Catalog) gaugeLocked() {
	c.reg.Gauge("vdata_entries").Set(int64(len(c.entries)))
}

// Close syncs and closes the catalog log.
func (c *Catalog) Close() error {
	c.mu.Lock()
	log := c.log
	c.log = nil
	c.mu.Unlock()
	if log != nil {
		return log.Close()
	}
	return nil
}
