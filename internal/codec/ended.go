package codec

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"
	"unsafe"

	"datagridflow/internal/dgl"
)

// An ended record is what an engine keeps of an execution once it is
// terminal (docs/CODEC.md §6.6): its status tree, its final root
// variables and, for a flow that may be restarted, its request. It is
// held in memory as one string and read in place; it never reaches a
// disk or a wire. It uses no string table, so a reader can pass over a
// subtree without reading into it.
//
// A node's id extends its parent's, so the record keeps each id once:
// as how much of the parent's id it drops and the suffix it adds. A
// reader builds a node's id back from its parent's.

// Ended record field numbers (MsgEnded).
const (
	endRoot     = 1 // msg (endNode)
	endVar      = 2 // bytes, written even when empty: a root variable's name; its value follows
	endVarValue = 3 // bytes, written even when empty
	endRequest  = 4 // bytes: a MsgRequest payload, header included
)

// baseLen is the length of the base time at the start of the root's
// message: Unix seconds (8 bytes) and nanoseconds (4), little-endian;
// all zero when the root has no time.
const baseLen = 12

// An ended node message starts with a head of no tags: the id, as the
// number of bytes of the parent's id it does not share (a varint, 0 for
// a child named under its parent; the root's parent's id is empty) and
// the suffix that follows what it shares (a length and its bytes), cut
// so that the suffix holds the id's whole last segment; one byte
// holding the kind and state code
// (kind code × 8 + state code, see kinds and states) in its low five
// bits and which of the two times follow in its top two (started 32,
// finished 64), then each time present, as the zigzag varint of its
// nanoseconds from the base. Tagged fields follow it: what a usual node
// lacks, then its children.
const (
	headStarted  = 1 << 5
	headFinished = 1 << 6
)

// Ended node field numbers (nested, after the head).
const (
	enName        = 1  // bytes, written even when empty: a name that is not the id's last segment
	enKind        = 2  // bytes, a kind without a code
	enState       = 3  // bytes, a state without a code
	enStartedSec  = 4  // varint (zigzag): Unix seconds of a start too far from the base
	enStartedNs   = 5  // varint: its nanoseconds
	enFinishedSec = 6  // varint (zigzag)
	enFinishedNs  = 7  // varint
	enDelegated   = 8  // bytes
	enErr         = 9  // bytes
	enChild       = 10 // repeated msg (endNode)
)

// kinds and states are the node kinds and states the engine writes,
// coded by their index plus one; any other is written as text.
var (
	kinds  = [...]string{"flow", "step"}
	states = [...]string{"pending", "running", "succeeded", "failed", "cancelled", "skipped"}
)

// code returns the code of s in set, 0 when set does not hold it.
func code(set []string, s string) uint64 {
	for i, v := range set {
		if v == s {
			return uint64(i) + 1
		}
	}
	return 0
}

// lastSegment is the name a node of id has unless its record says
// otherwise: what follows the id's last '/'.
func lastSegment(id string) string { return id[strings.LastIndexByte(id, '/')+1:] }

// shared is how many leading bytes of its parent's id the record of the
// node id takes for it: as many as the two have in common, but none of
// id's last segment, which starts at seg, so that the suffix holds the
// node's default name.
func shared(parent, id string, seg int) int {
	n := min(len(parent), seg)
	if strings.HasPrefix(id, parent) { // a child named under its parent
		return n
	}
	for i := 0; i < n; i++ {
		if parent[i] != id[i] {
			return i
		}
	}
	return n
}

// EndedWriter writes an ended record: Begin, the status tree (the
// writer is the dgl.StatusSink a live tree walks into, its times given
// as time.Time), the root variables, the request if it is kept, and
// nothing after: the record is the encoder's bytes. The zero value is
// ready, and reusable after the next Begin.
type EndedWriter struct {
	e     *Encoder
	marks []int    // of the node messages still open
	ids   []string // their ids, read until their Close
	// The base is the root's start (or end): every time is written as
	// the nanoseconds from it, a few bytes for a run's spread.
	hasBase         bool
	baseSec, baseNs int64
}

// maxNear is how many seconds from the base a time written as
// nanoseconds from it may be: about 285 years, within an int64.
const maxNear = 9_000_000_000

// Begin starts a record in e.
func (w *EndedWriter) Begin(e *Encoder) {
	e.Begin(MsgEnded)
	w.e, w.marks = e, w.marks[:0]
	clear(w.ids)
	w.ids = w.ids[:0]
}

// Open implements dgl.StatusSink.
func (w *EndedWriter) Open(n dgl.StatusNode) {
	e := w.e
	root := len(w.marks) == 0
	if root {
		e.tag(endRoot, wtMsg)
	} else {
		e.tag(enChild, wtMsg)
	}
	w.marks = append(w.marks, e.reserve())
	if root {
		base := n.Started.Time
		if base.IsZero() {
			base = n.Finished.Time
		}
		w.hasBase, w.baseSec, w.baseNs = !base.IsZero(), 0, 0
		if w.hasBase {
			w.baseSec, w.baseNs = base.Unix(), int64(base.Nanosecond())
		}
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(w.baseSec))
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(w.baseNs))
	}
	parent := ""
	if !root {
		parent = w.ids[len(w.ids)-1]
	}
	seg := strings.LastIndexByte(n.ID, '/') + 1
	keep := shared(parent, n.ID, seg)
	e.uvarint(uint64(len(parent) - keep))
	e.uvarint(uint64(len(n.ID) - keep))
	e.buf = append(e.buf, n.ID[keep:]...)
	w.ids = append(w.ids, n.ID)
	k, st := code(kinds[:], n.Kind), code(states[:], n.State)
	head, at := byte(k<<3|st), len(e.buf)
	e.buf = append(e.buf, head)
	started, nearStart := w.near(n.Started.Time)
	if nearStart {
		head |= headStarted
		e.buf = binary.AppendVarint(e.buf, started)
	}
	finished, nearEnd := w.near(n.Finished.Time)
	if nearEnd {
		head |= headFinished
		e.buf = binary.AppendVarint(e.buf, finished)
	}
	e.buf[at] = head
	if n.Name != n.ID[seg:] { // not lastSegment(n.ID)
		w.bytes(enName, n.Name)
	}
	if k == 0 {
		e.Str(enKind, n.Kind)
	}
	if st == 0 {
		e.Str(enState, n.State)
	}
	if !nearStart {
		w.far(enStartedSec, enStartedNs, n.Started.Time)
	}
	if !nearEnd {
		w.far(enFinishedSec, enFinishedNs, n.Finished.Time)
	}
	e.Str(enDelegated, n.Delegated)
	e.Str(enErr, n.Error)
}

// near returns a time as the nanoseconds from the base, and false for
// the zero time and for one more than maxNear seconds from it.
func (w *EndedWriter) near(t time.Time) (int64, bool) {
	if t.IsZero() || !w.hasBase {
		return 0, false
	}
	ds := t.Unix() - w.baseSec
	if ds < -maxNear || ds > maxNear {
		return 0, false
	}
	return ds*1e9 + int64(t.Nanosecond()) - w.baseNs, true
}

// far writes a non-zero time near does not take, as Unix seconds and
// nanoseconds: a reader takes the instant back exactly and renders it
// as the live node would.
func (w *EndedWriter) far(sec, ns int, t time.Time) {
	if t.IsZero() {
		return
	}
	w.e.Int(sec, t.Unix())
	w.e.Uint(ns, uint64(t.Nanosecond()))
}

// bytes writes a bytes field even when s is empty.
func (w *EndedWriter) bytes(num int, s string) {
	w.e.tag(num, wtBytes)
	w.e.uvarint(uint64(len(s)))
	w.e.buf = append(w.e.buf, s...)
}

// Close implements dgl.StatusSink.
func (w *EndedWriter) Close() {
	last := len(w.marks) - 1
	w.e.patch(w.marks[last])
	w.marks = w.marks[:last]
	w.ids[last] = ""
	w.ids = w.ids[:last]
}

// Var writes one root variable, after the tree.
func (w *EndedWriter) Var(name string, value []byte) {
	w.bytes(endVar, name)
	w.e.tag(endVarValue, wtBytes)
	w.e.uvarint(uint64(len(value)))
	w.e.buf = append(w.e.buf, value...)
}

// Request writes the request the record keeps, last: its document is
// written in place, as AppendRequest writes it.
func (w *EndedWriter) Request(req *dgl.Request) {
	mark := w.e.BeginBlob(endRequest)
	AppendRequest(w.e, req)
	w.e.EndBlob(mark)
}

// endedReader reads an ended record in place, its fields straight from
// the string: no symbol table to borrow and no call per byte, so a
// status answer from a record costs about what one from a live tree
// does. The record is the engine's own, but a reader checks every
// length and wire type all the same.
type endedReader struct {
	rec string
	s   string // rec up to the end of the message being read
	pos int
	// baseSec and baseNs are the base time, as time.Unix takes it.
	baseSec, baseNs int64
	// ids holds the ids the reader built, of the nodes open on the path
	// it walks, each after its parent's: a node's stays put until the
	// reader leaves the node. It is borrowed from idBufs.
	ids []byte
	err error
}

// idBufs holds the buffers readers build ids in, so that a status
// answer from a record allocates none.
var idBufs = sync.Pool{New: func() any { return new([]byte) }}

// wire types of the ended record's fields and of its nodes' fields, by
// field number, plus one: 0 is a field this reader skips by the wire
// type its tag gives.
var (
	endWire  = [...]byte{endRoot: 1 + wtMsg, endVar: 1 + wtBytes, endVarValue: 1 + wtBytes, endRequest: 1 + wtBytes}
	nodeWire = [...]byte{enName: 1 + wtBytes, enKind: 1 + wtBytes, enState: 1 + wtBytes,
		enStartedSec: 1 + wtVarint, enStartedNs: 1 + wtVarint, enFinishedSec: 1 + wtVarint, enFinishedNs: 1 + wtVarint,
		enDelegated: 1 + wtBytes, enErr: 1 + wtBytes, enChild: 1 + wtMsg}
)

func (r *endedReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: ended record: %s at offset %d", msg, r.pos)
	}
	r.s, r.pos = "", 0
}

func (r *endedReader) uvarint() uint64 {
	if p := r.pos; p < len(r.s) {
		if b := r.s[p]; b < 0x80 {
			r.pos = p + 1
			return uint64(b)
		}
	}
	return r.uvarintLong()
}

// uvarintLong reads a varint of more than one byte.
func (r *endedReader) uvarintLong() uint64 {
	v, n := uvarintString(r.s[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

// int reads a zigzag varint.
func (r *endedReader) int() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// str reads a length and the bytes it counts, a slice of the record.
func (r *endedReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.s)-r.pos) {
		r.fail("length beyond message")
		return ""
	}
	at := r.pos
	r.pos += int(n)
	return r.s[at:r.pos]
}

// next reads the next field's tag in the current message, checks it
// against wire, and returns its number: 0 at the message's end or on an
// error. A field wire does not know is skipped.
func (r *endedReader) next(wire []byte) int {
	for r.pos < len(r.s) {
		tag := r.uvarint()
		num, wt := tag>>2, byte(tag&3)
		if num < uint64(len(wire)) && wire[num] != 0 {
			if wire[num] != 1+wt {
				r.fail("wrong wire type")
				return 0
			}
			return int(num)
		}
		r.skip(wt)
	}
	return 0
}

// enter narrows the reader to the message field just read and returns
// the enclosing message's end, for exit.
func (r *endedReader) enter() int {
	n := r.uvarint()
	if n > uint64(len(r.s)-r.pos) {
		r.fail("message beyond its parent")
		return 0
	}
	parent := len(r.s)
	r.s = r.s[:r.pos+int(n)]
	return parent
}

// exit leaves the message entered, skipping what is left of it.
func (r *endedReader) exit(parent int) {
	if r.err == nil {
		r.pos, r.s = len(r.s), r.rec[:parent]
	}
}

// open readies the reader at the record's first field.
func (r *endedReader) open(rec string) error {
	if err := checkHeader(rec, MsgEnded); err != nil {
		return err
	}
	r.rec, r.s, r.pos = rec, rec, headerLen
	return nil
}

// root positions the reader inside the root node's message, its own
// fields not yet read, and returns the record's end for exit; ok is
// false when the record holds no root.
func (r *endedReader) root(rec string) (end int, ok bool, err error) {
	if err := r.open(rec); err != nil {
		return 0, false, err
	}
	for f := r.next(endWire[:]); f != 0; f = r.next(endWire[:]) {
		if f != endRoot {
			r.skip(endWire[f] - 1)
			continue
		}
		end = r.enter()
		if len(r.s)-r.pos < baseLen {
			r.fail("root has no base")
			return 0, false, r.err
		}
		b := r.s[r.pos : r.pos+baseLen]
		r.pos += baseLen
		r.baseSec = int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
		r.baseNs = int64(uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24)
		if r.baseNs >= 1e9 {
			r.fail("base nanoseconds out of range")
			return 0, false, r.err
		}
		return end, r.err == nil, r.err
	}
	return 0, false, r.err
}

// skip passes over a field of wire type wt.
func (r *endedReader) skip(wt byte) {
	switch wt {
	case wtVarint:
		r.uvarint()
	case wtBytes, wtMsg:
		r.str()
	default:
		r.fail("unexpected symbol")
	}
}

// idParts reads the id at the start of the node message the reader has
// entered, as the record keeps it: how much of its parent's id, of
// parentLen bytes, it keeps, and the suffix it adds.
func (r *endedReader) idParts(parentLen int) (keep int, suffix string) {
	drop := r.uvarint()
	suffix = r.str()
	if drop > uint64(parentLen) {
		r.fail("id drops more than its parent's")
		return 0, ""
	}
	return parentLen - int(drop), suffix
}

// join builds the id of a node that keeps keep bytes of parent's id and
// adds suffix. It is suffix itself when it keeps nothing, and otherwise
// built in r.ids, where it stays until the caller truncates r.ids.
func (r *endedReader) join(parent string, keep int, suffix string) string {
	if keep == 0 {
		return suffix
	}
	at := len(r.ids)
	r.ids = append(append(r.ids, parent[:keep]...), suffix...)
	return unsafe.String(&r.ids[at], len(r.ids)-at)
}

// fields reads the own fields of the node message the reader has
// entered into n, after its id: its head, then its tagged fields up to
// its first child. suffix is the id's suffix, which holds the node's
// default name. It reports whether there is a child, with the reader on
// that child's message.
func (r *endedReader) fields(n *dgl.StatusNode, suffix string) (child bool) {
	if r.pos >= len(r.s) {
		r.fail("node has no head")
		return false
	}
	head := r.s[r.pos]
	r.pos++
	if k, st := head>>3&3, head&7; int(k) > len(kinds) || int(st) > len(states) {
		r.fail("unknown code")
		return false
	} else {
		if k > 0 {
			n.Kind = kinds[k-1]
		}
		if st > 0 {
			n.State = states[st-1]
		}
	}
	if head&headStarted != 0 {
		n.Started.Time = r.near(r.int())
	}
	if head&headFinished != 0 {
		n.Finished.Time = r.near(r.int())
	}
	named := false
	var started, finished [2]int64 // Unix seconds and nanoseconds, far from the base
	for f := r.next(nodeWire[:]); f != 0 && !child; {
		switch f {
		case enName:
			n.Name, named = r.str(), true
		case enKind:
			n.Kind = r.str()
		case enState:
			n.State = r.str()
		case enStartedSec:
			started[0] = r.int()
			n.Started.Time = time.Unix(started[0], started[1])
		case enStartedNs:
			started[1] = int64(r.uvarint())
			n.Started.Time = time.Unix(started[0], started[1])
		case enFinishedSec:
			finished[0] = r.int()
			n.Finished.Time = time.Unix(finished[0], finished[1])
		case enFinishedNs:
			finished[1] = int64(r.uvarint())
			n.Finished.Time = time.Unix(finished[0], finished[1])
		case enDelegated:
			n.Delegated = r.str()
		case enErr:
			n.Error = r.str()
		case enChild:
			child = true
			continue
		}
		f = r.next(nodeWire[:])
	}
	if !named {
		n.Name = lastSegment(suffix)
	}
	return child
}

// near returns the time d nanoseconds from the base.
func (r *endedReader) near(d int64) time.Time {
	if d >= 0 && d < 1e9-r.baseNs { // within the base's second: most times
		return time.Unix(r.baseSec, r.baseNs+d)
	}
	sec, ns := r.baseSec+d/1e9, r.baseNs+d%1e9
	if ns < 0 {
		sec, ns = sec-1, ns+1e9
	} else if ns >= 1e9 {
		sec, ns = sec+1, ns-1e9
	}
	return time.Unix(sec, ns)
}

// nextChild moves the reader to the next child message of the node
// message it is in, reporting false at the message's end.
func (r *endedReader) nextChild() bool {
	for f := r.next(nodeWire[:]); f != 0; f = r.next(nodeWire[:]) {
		if f == enChild {
			return true
		}
		r.skip(nodeWire[f] - 1)
	}
	return false
}

// find looks for node id — any node, when id is "" — in the subtree of
// the node message the reader has entered, whose parent's id is parent,
// and streams the subtree of the node it finds into sink. A child is
// entered only if its node's id leads to the one sought, as a live
// node's find does. The parent's id leads to id, so the ids on the way
// are id's own prefixes and none is built.
func (r *endedReader) find(id, parent string, detail bool, sink dgl.StatusSink) bool {
	keep, suffix := r.idParts(len(parent))
	if r.err != nil {
		return false
	}
	var n dgl.StatusNode
	switch {
	case id == "":
		n.ID = r.join(parent, keep, suffix)
	case strings.HasPrefix(id[keep:], suffix):
		n.ID = id[:keep+len(suffix)]
	default:
		return false
	}
	more := r.fields(&n, suffix)
	if r.err != nil {
		return false
	}
	if id == "" || n.ID == id {
		r.emit(&n, more, detail, sink)
		return true
	}
	if !leadsTo(n.ID, id) {
		return false
	}
	for ; more; more = r.nextChild() {
		end := r.enter()
		found := r.find(id, n.ID, detail, sink)
		r.exit(end)
		if found {
			return true
		}
	}
	return false
}

// leadsTo reports whether id is the node with id at or a node under it:
// a node's id extends its parent's by "/name" or, for a loop iteration,
// "[i]".
func leadsTo(at, id string) bool {
	rest, ok := strings.CutPrefix(id, at)
	return ok && (rest == "" || rest[0] == '/' || rest[0] == '[')
}

// emit streams n — the node message the reader has entered, its own
// fields read, more telling whether a child follows — into sink, and
// its children after it when detail is set.
func (r *endedReader) emit(n *dgl.StatusNode, more, detail bool, sink dgl.StatusSink) {
	sink.Open(*n)
	for ; more && detail; more = r.nextChild() {
		end := r.enter()
		r.walk(n.ID, sink)
		r.exit(end)
	}
	sink.Close()
}

// walk streams the node message the reader has entered, whose parent's
// id is parent, and its children, into sink.
func (r *endedReader) walk(parent string, sink dgl.StatusSink) {
	at := len(r.ids)
	keep, suffix := r.idParts(len(parent))
	n := dgl.StatusNode{ID: r.join(parent, keep, suffix)}
	more := r.fields(&n, suffix)
	sink.Open(n)
	for ; more; more = r.nextChild() {
		end := r.enter()
		r.walk(n.ID, sink)
		r.exit(end)
	}
	sink.Close()
	r.ids = r.ids[:at]
}

// WalkEnded streams the status subtree of node id in an ended record
// into sink — the root's when id is "" — with its children when detail
// is set. It reports false, with nothing written, when no node of the
// record has that id. The ids of the nodes below the one found are
// built in a buffer the next walk reuses: each is valid until its
// node's Close (dgl.StatusSink). Every other string it hands the sink
// is a slice of rec, or of id.
func WalkEnded(rec, id string, detail bool, sink dgl.StatusSink) (bool, error) {
	var r endedReader
	end, ok, err := r.root(rec)
	if !ok {
		return false, err
	}
	buf := idBufs.Get().(*[]byte)
	r.ids = (*buf)[:0]
	found := r.find(id, "", detail, sink)
	r.exit(end)
	*buf = r.ids[:0]
	idBufs.Put(buf)
	return found, r.err
}

// EndedRoot returns the root node of an ended record, without its
// children.
func EndedRoot(rec string) (dgl.StatusNode, error) {
	var r endedReader
	var n dgl.StatusNode
	if _, ok, err := r.root(rec); !ok {
		return n, err
	}
	_, n.ID = r.idParts(0)
	r.fields(&n, n.ID)
	return n, r.err
}

// EndedVars returns the root variables of an ended record.
func EndedVars(rec string) (map[string]string, error) {
	out := make(map[string]string)
	var r endedReader
	if err := r.open(rec); err != nil {
		return out, err
	}
	var name string
	for f := r.next(endWire[:]); f != 0; f = r.next(endWire[:]) {
		switch f {
		case endVar:
			name = r.str()
		case endVarValue:
			out[name] = r.str()
		default:
			r.skip(endWire[f] - 1)
		}
	}
	return out, r.err
}

// EndedRequest returns the request document an ended record keeps, a
// slice of rec, or "" when it keeps none.
func EndedRequest(rec string) (string, error) {
	var r endedReader
	if err := r.open(rec); err != nil {
		return "", err
	}
	for f := r.next(endWire[:]); f != 0; f = r.next(endWire[:]) {
		if f == endRequest {
			return r.str(), r.err
		}
		r.skip(endWire[f] - 1)
	}
	return "", r.err
}

// uvarintString is binary.Uvarint over a string, read where it lies:
// the value and the bytes it took, 0 bytes when s ends first and fewer
// than 0 when the value overflows 64 bits.
func uvarintString(s string) (uint64, int) {
	var x uint64
	var shift uint
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	if len(s) >= binary.MaxVarintLen64 {
		return 0, -binary.MaxVarintLen64
	}
	return 0, 0
}
