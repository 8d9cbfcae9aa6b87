// Package vdata is the distributed virtual-data plane: a durable,
// tenant-scoped catalog of memoized derivations (docs/VDATA.md).
//
// The paper's §2.3 virtual-data scenario — "if the required output data
// is already available, it need not be derived again" — is realized
// here, for the matrix engine's pure steps and the scheduler's broker
// alike: a derivation's (transformation, sorted inputs, parameter
// bindings, tenant) tuple hashes to a derivation key; the first
// execution publishes the result under that key, and every later
// execution of the same derivation skips the work and grafts the
// memoized result. Entries persist as binary frames through the store's
// group-committed writer (store.GroupFile) and survive restart; over
// the wire's vdata verb, which carries an entry in the same binary form
// (AppendEntry), any peer's derivation is visible fleet-wide
// (docs/WIRE.md).
package vdata

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
	"datagridflow/internal/store"
)

// Entry is one memoized derivation: the canonical key, the tuple it
// hashes, the declared outputs, and the step result value the engine
// grafts on a hit.
type Entry struct {
	Key     string
	Tenant  string
	Op      string
	Inputs  []string
	Params  map[string]string
	Outputs []string
	Result  string
	// Peer names the peer that first derived the entry, so a grafted
	// cross-peer hit keeps its provenance and vdata-locality placement
	// can route future pure subflows to the holder.
	Peer string
	Unix int64
}

// Entry field numbers: the one binary form of an entry, written by
// AppendEntry into a log frame (codec.MsgVdata) or a wire message.
// Frozen: new fields append, numbers are never reused (docs/CODEC.md §8).
const (
	fKey    = 1 // str
	fTenant = 2 // sym
	fOp     = 3 // sym
	fInput  = 4 // repeated str
	fParam  = 5 // repeated msg {1: name sym, 2: value str}, in name order
	fOutput = 6 // repeated str
	fResult = 7 // str
	fPeer   = 8 // sym
	fUnix   = 9 // zigzag varint; absent = 0
	// fDel marks a log frame as a del of fKey; only the log writes it.
	fDel = 10 // varint bool
)

// AppendEntry writes e's fields into the message enc is encoding. Params
// are written in name order, so an entry always encodes to the same
// bytes.
func AppendEntry(enc *codec.Encoder, e *Entry) {
	enc.Str(fKey, e.Key)
	enc.Sym(fTenant, e.Tenant)
	enc.Sym(fOp, e.Op)
	for _, in := range e.Inputs {
		appendElem(enc, fInput, in)
	}
	if len(e.Params) > 0 {
		var scratch [8]string // up to 8 names sort without an allocation
		names := scratch[:0]
		for k := range e.Params {
			names = append(names, k)
		}
		slices.Sort(names)
		for _, k := range names {
			enc.Msg(fParam, func(enc *codec.Encoder) {
				enc.Sym(1, k)
				enc.Str(2, e.Params[k])
			})
		}
	}
	for _, out := range e.Outputs {
		appendElem(enc, fOutput, out)
	}
	enc.Str(fResult, e.Result)
	enc.Sym(fPeer, e.Peer)
	if e.Unix != 0 {
		enc.Int(fUnix, e.Unix)
	}
}

// appendElem writes s as one element of a repeated string field. Unlike
// Encoder.Str it writes an empty s too, as an empty bytes field: an
// element's absence would drop it from the list.
func appendElem(enc *codec.Encoder, num int, s string) {
	if s == "" {
		enc.EndBlob(enc.BeginBlob(num))
		return
	}
	enc.Str(num, s)
}

// DecodeEntry reads an entry's fields from d, up to the end of the
// message d is positioned in; unknown fields are skipped. Absent
// repeated fields decode as nil. Decode errors are d's (d.Err).
func DecodeEntry(d *codec.Decoder) Entry {
	e, _ := decodeRecord(d)
	return e
}

// decodeRecord is DecodeEntry for a log frame, which may be a del.
func decodeRecord(d *codec.Decoder) (e Entry, del bool) {
	for d.Next() {
		switch d.Field() {
		case fKey:
			e.Key = d.Str()
		case fTenant:
			e.Tenant = d.Sym()
		case fOp:
			e.Op = d.Sym()
		case fInput:
			e.Inputs = append(e.Inputs, d.Str())
		case fParam:
			var name, value string
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					name = d.Sym()
				case 2:
					value = d.Str()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			if e.Params == nil {
				e.Params = make(map[string]string)
			}
			e.Params[name] = value
		case fOutput:
			e.Outputs = append(e.Outputs, d.Str())
		case fResult:
			e.Result = d.Str()
		case fPeer:
			e.Peer = d.Sym()
		case fUnix:
			e.Unix = d.Int()
		case fDel:
			del = d.Bool()
		default:
			d.Skip()
		}
	}
	return e, del
}

// appendPut and appendDel encode one log record as a frame.
func appendPut(enc *codec.Encoder, e *Entry) {
	mark := enc.BeginFrame(codec.MsgVdata)
	AppendEntry(enc, e)
	enc.EndFrame(mark)
}

func appendDel(enc *codec.Encoder, key string) {
	mark := enc.BeginFrame(codec.MsgVdata)
	enc.Str(fKey, key)
	enc.Bool(fDel, true)
	enc.EndFrame(mark)
}

// Key derives the canonical derivation key for (transformation, inputs,
// parameter bindings, tenant). Input order is irrelevant — the same
// data through the same code under the same bindings is the same
// derivation — and the tenant is part of the tuple, so no tenant can
// ever observe (or poison) another tenant's derivations.
func Key(op string, inputs []string, params map[string]string, tenant string) string {
	var stack [8]Binding
	bs := stack[:0]
	for k, v := range params {
		bs = append(bs, Binding{k, v})
	}
	return KeyOf(op, inputs, bs, tenant)
}

// Binding is one parameter of a derivation: its name and bound value.
type Binding struct{ Name, Value string }

// KeyOf is Key over the bindings as a slice, in any order, which it
// sorts in place. The tuple is hashed from a stack buffer, so a
// derivation of a handful of inputs and bindings allocates its key and
// nothing else. The hashed bytes are
//
//	op 0x00 tenant 0x00 inputs… 0x00 0x02 bindings…
//
// with the inputs sorted and joined by 0x00, and each binding spelled
// name 0x01 value, sorted as those strings sort and joined by 0x00.
func KeyOf(op string, inputs []string, params []Binding, tenant string) string {
	var in [8]string
	sorted := append(in[:0], inputs...)
	slices.Sort(sorted)
	slices.SortFunc(params, compareBindings)
	buf := make([]byte, 0, 512)
	buf = append(append(append(append(buf, op...), 0), tenant...), 0)
	for i, s := range sorted {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, s...)
	}
	buf = append(buf, 0, 2)
	for i, b := range params {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(append(append(buf, b.Name...), 1), b.Value...)
	}
	sum := sha256.Sum256(buf)
	var key [32]byte
	hex.Encode(key[:], sum[:16])
	return string(key[:])
}

// compareBindings orders two bindings as their spelled forms, name 0x01
// value, compare, without building them: by name, unless one name is a
// prefix of the other, where what follows the shorter decides.
func compareBindings(a, b Binding) int {
	n := min(len(a.Name), len(b.Name))
	if c := strings.Compare(a.Name[:n], b.Name[:n]); c != 0 {
		return c
	}
	if len(a.Name) == len(b.Name) {
		return strings.Compare(a.Value, b.Value)
	}
	la, lb := len(a.Name)+1+len(a.Value), len(b.Name)+1+len(b.Value)
	for i := n; i < min(la, lb); i++ {
		if x, y := a.at(i), b.at(i); x != y {
			return int(x) - int(y)
		}
	}
	return la - lb
}

// at returns byte i of the binding's spelled form.
func (b Binding) at(i int) byte {
	switch {
	case i < len(b.Name):
		return b.Name[i]
	case i == len(b.Name):
		return 1
	}
	return b.Value[i-len(b.Name)-1]
}

// Stats is the catalog's shape, served by the wire "vdata" verb and
// printed by `dgfctl vdata stats`.
type Stats struct {
	Entries       int
	Tenants       int
	Publishes     uint64
	Invalidations uint64
	Durable       bool
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
	// may share an output path, and invalidating it drops both.
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

// replay loads the catalog log, applying puts and dels in order. The
// frames are walked as the store walks a segment (store.FrameFile): a
// torn final frame — a crash mid-append — is truncated away, so the next
// append starts on a frame boundary; a log that is not binary frames is
// refused untouched.
func (c *Catalog) replay(path string) error {
	var log store.FrameFile
	if _, err := log.Read(path, codec.MsgVdata, true); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("vdata: %w", err)
	}
	for i, f := range log.Frames {
		d := codec.NewFieldsDecoder(log.Buf, f.Body, f.End)
		e, del := decodeRecord(&d)
		d.Release()
		if err := d.Err(); err != nil {
			return fmt.Errorf("vdata: %s frame %d: %v: %w", path, i+1, err, dgferr.ErrInvalid)
		}
		switch {
		case del:
			c.applyDel(e.Key)
		case e.Key != "":
			c.applyPut(&e)
		}
	}
	return nil
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
// entry's Peer defaults to the catalog's peer name. A durable catalog
// refuses, with dgferr.ErrInvalid, an entry too large for one log frame
// (codec.MaxFrameBody): the log would no longer replay.
func (c *Catalog) Publish(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("vdata: publish: empty key")
	}
	c.mu.Lock()
	if e.Peer == "" {
		e.Peer = c.peer
	}
	log, announce := c.log, c.announce
	var enc *codec.Encoder
	if log != nil {
		enc = codec.GetEncoder()
		defer codec.PutEncoder(enc)
		appendPut(enc, &e)
		if enc.Len() > codec.MaxFrameBody {
			c.mu.Unlock()
			return fmt.Errorf("vdata: publish: entry %s encodes to %d bytes, over the %d-byte frame limit: %w",
				e.Key, enc.Len(), codec.MaxFrameBody, dgferr.ErrInvalid)
		}
	}
	c.applyPut(&e)
	c.publishes++
	c.reg.Counter("vdata_publishes_total").Inc()
	c.gaugeLocked()
	c.mu.Unlock()
	if log != nil {
		if _, err := log.WriteBlock(enc.Bytes(), 1); err != nil {
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
// dropped. The drops are logged in one block and synced before it
// returns, so invalidations survive restart too.
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
	log := c.log
	var enc *codec.Encoder
	if log != nil {
		enc = codec.GetEncoder()
		defer codec.PutEncoder(enc)
	}
	n := 0
	for _, k := range keys {
		if c.entries[k] == nil {
			continue // listed twice: as the target and under its output
		}
		if enc != nil {
			appendDel(enc, k)
		}
		c.applyDel(k)
		n++
		c.invalidations++
		c.reg.Counter("vdata_invalidations_total").Inc()
	}
	c.gaugeLocked()
	c.mu.Unlock()
	if n == 0 || log == nil {
		return n, nil
	}
	ticket, err := log.WriteBlock(enc.Bytes(), int64(n))
	if err == nil {
		err = log.Sync(ticket)
	}
	if err != nil {
		return n, fmt.Errorf("vdata: invalidate: %w", err)
	}
	return n, nil
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
