package codec

import (
	"sort"
	"time"
)

// Record is one lifecycle record of the flow-state store
// (internal/store aliases this type), stored as one binary frame
// (AppendRecordFrame).
type Record struct {
	Type string
	ID   string // execution id
	Time time.Time
	// Request holds the DGL request document (exec.start, exec.snap): the
	// codec-encoded request (RequestDoc) as raw bytes. Readers decode it
	// with DecodeRequestDoc, which also takes XML.
	Request string
	// Node is the restart-stable node path, e.g. "/pipeline/stage-in"
	// (step.done, deleg.start, deleg.done).
	Node string
	// Peer names the remote peer that completed a delegated subflow
	// (deleg.done).
	Peer string
	// Err is the final error text, empty on success (exec.end).
	Err string
	// Vars snapshots the execution's root scope variables (exec.snap).
	Vars map[string]string
	// Done lists the restart-stable node paths proven complete
	// (exec.snap) — steps, skipped steps, and whole delegated subtrees.
	Done []string
	// Paused records whether the execution was paused when the record
	// was written (exec.snap, exec.passivate); a resurrected execution
	// re-enters the paused state.
	Paused bool
	// Passivated marks a compaction-merged snapshot of a passivated
	// execution (exec.snap written by Compact): one record carries both
	// the snapshot and the passivation marker.
	Passivated bool
}

// Record types. The first five are an execution's lifecycle; the rest
// are the store's snapshots, passivation markers and tombstones. Readers
// must ignore types they do not know.
const (
	TypeExecStart  = "exec.start"
	TypeStepDone   = "step.done"
	TypeDelegStart = "deleg.start"
	TypeDelegDone  = "deleg.done"
	TypeExecEnd    = "exec.end"

	// TypeExecSnap is a self-contained snapshot: Request + Vars + Done
	// (+ Paused). Replaying a snapshot supersedes every earlier record
	// of the execution.
	TypeExecSnap = "exec.snap"
	// TypeExecPassivate marks the execution as evicted from engine
	// memory; it is always preceded by a fresh exec.snap.
	TypeExecPassivate = "exec.passivate"
	// TypeExecResurrect marks a passivated execution as resident again
	// (it is running; a crash before its exec.end must resume it).
	TypeExecResurrect = "exec.resurrect"
	// TypeExecPrune is the tombstone for Engine.Prune: compaction drops
	// every record of a pruned execution, and recovery never resurrects
	// it.
	TypeExecPrune = "exec.prune"
)

// Record field numbers (MsgRecord). Frozen: new fields append, existing
// numbers are never reused (docs/CODEC.md, "Versioning").
const (
	recType       = 1  // sym
	recID         = 2  // sym
	recTime       = 3  // zigzag varint, UnixNano; absent = zero time
	recRequest    = 4  // bytes
	recNode       = 5  // sym
	recPeer       = 6  // sym
	recErr        = 7  // bytes
	recVar        = 8  // repeated msg {1: key sym, 2: value bytes}
	recDone       = 9  // repeated sym
	recPaused     = 10 // varint bool
	recPassivated = 11 // varint bool
)

// AppendRecord encodes rec as a standalone payload (Begin layout).
func AppendRecord(e *Encoder, rec *Record) {
	e.Begin(MsgRecord)
	recordFields(e, rec)
}

// AppendRecordFrame encodes rec as a self-delimiting frame for
// append-only streams (store segments). Frames accumulate:
// several calls on one encoder build one contiguous block, written (and
// fsynced) in a single vectored append.
func AppendRecordFrame(e *Encoder, rec *Record) {
	mark := e.BeginFrame(MsgRecord)
	recordFields(e, rec)
	e.EndFrame(mark)
}

func recordFields(e *Encoder, rec *Record) {
	e.Sym(recType, rec.Type)
	e.Sym(recID, rec.ID)
	if !rec.Time.IsZero() {
		e.Int(recTime, rec.Time.UnixNano())
	}
	e.Str(recRequest, rec.Request)
	e.Sym(recNode, rec.Node)
	e.Sym(recPeer, rec.Peer)
	e.Str(recErr, rec.Err)
	if len(rec.Vars) > 0 {
		keys := make([]string, 0, len(rec.Vars))
		for k := range rec.Vars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			k := k
			e.Msg(recVar, func(e *Encoder) {
				e.Sym(1, k)
				e.Str(2, rec.Vars[k])
			})
		}
	}
	for _, n := range rec.Done {
		e.Sym(recDone, n)
	}
	e.Bool(recPaused, rec.Paused)
	e.Bool(recPassivated, rec.Passivated)
}

// DecodeRecord decodes a MsgRecord payload (Begin layout: header, then
// fields). A frame's fields are viewed where they lie with
// RecordView.DecodeFields instead. Loops over many records use a
// RecordDecoder.
func DecodeRecord(payload []byte) (Record, error) {
	var rd RecordDecoder
	return rd.Decode(payload)
}

// A RecordDecoder decodes a stream of MsgRecord payloads through one
// reused RecordView, where
// DecodeRecord would grow a fresh one for each. The zero value is ready
// to use; not safe for concurrent use.
type RecordDecoder struct {
	v RecordView
}

// Decode decodes one MsgRecord payload: view, then materialise.
func (rd *RecordDecoder) Decode(payload []byte) (Record, error) {
	if err := rd.v.Decode(payload); err != nil {
		return Record{}, err
	}
	return rd.v.Record(), nil
}

// A RecordView is one decoded MsgRecord whose byte-string fields are
// still slices of the bytes it was decoded from: walking a record into
// a view checks every tag, length and symbol reference exactly as a
// full decode does, but allocates nothing (the repeated-field and
// symbol tables are reused from record to record). Store replay views
// every record and materialises — Record, Fields, or string(v.Node()) —
// only those a later record has not superseded. A view is valid until
// the bytes under it change or the next Decode; not safe for concurrent
// use.
type RecordView struct {
	data []byte
	// src is the record's fields when they were viewed in a string
	// (DecodeFieldsString); data is nil then, and only Record reads the
	// view.
	src  string
	body span // the fields, as bounds in data (or src)

	typ, id, request, node, peer, errText span
	time                                  int64
	hasTime, paused, passivated           bool

	vars []varSpan
	done []span
	syms []span
}

type varSpan struct{ key, value span }

// Decode walks a MsgRecord payload in Begin layout.
func (v *RecordView) Decode(payload []byte) error {
	if err := checkHeader(payload, MsgRecord); err != nil {
		return err
	}
	return v.walk(payload, "", span{headerLen, len(payload)})
}

// DecodeFields walks the fields data[off:end] of a MsgRecord frame
// (Frame.Body, Frame.End) where they lie, inside a larger stream.
func (v *RecordView) DecodeFields(data []byte, off, end int) error {
	return v.walk(data, "", span{off, end})
}

// DecodeFieldsString walks a record's fields held in a string — what
// Fields returned — where they lie: Record then slices that string and
// copies nothing of it.
func (v *RecordView) DecodeFieldsString(fields string) error {
	return v.walk(nil, fields, span{0, len(fields)})
}

// walk is the one MsgRecord field walker, over data or, when data is
// nil, src.
func (v *RecordView) walk(data []byte, src string, body span) error {
	*v = RecordView{data: data, src: src, body: body, vars: v.vars[:0], done: v.done[:0], syms: v.syms[:0]}
	// The view keeps the symbol table its first walk borrowed, for every
	// record after it: it is never given back.
	d := Decoder{data: data, str: src, pos: body.off, end: body.end, syms: v.syms}
	for d.Next() {
		switch d.Field() {
		case recType:
			v.typ = d.symSpan()
		case recID:
			v.id = d.symSpan()
		case recTime:
			v.time, v.hasTime = d.Int(), true
		case recRequest:
			v.request = d.bytesSpan()
		case recNode:
			v.node = d.symSpan()
		case recPeer:
			v.peer = d.symSpan()
		case recErr:
			v.errText = d.bytesSpan()
		case recVar:
			var kv varSpan
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					kv.key = d.symSpan()
				case 2:
					kv.value = d.bytesSpan()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			v.vars = append(v.vars, kv)
		case recDone:
			v.done = append(v.done, d.symSpan())
		case recPaused:
			v.paused = d.Bool()
		case recPassivated:
			v.passivated = d.Bool()
		default:
			d.Skip()
		}
	}
	v.syms = d.syms
	return d.Err()
}

func (v *RecordView) bytes(sp span) []byte { return v.data[sp.off:sp.end] }

// Type returns the record type.
func (v *RecordView) Type() []byte { return v.bytes(v.typ) }

// ID returns the execution id.
func (v *RecordView) ID() []byte { return v.bytes(v.id) }

// Node returns the node path (step.done, deleg.*).
func (v *RecordView) Node() []byte { return v.bytes(v.node) }

// Request returns the request document (exec.start, exec.snap).
func (v *RecordView) Request() []byte { return v.bytes(v.request) }

// Paused and Passivated return the record's flags.
func (v *RecordView) Paused() bool     { return v.paused }
func (v *RecordView) Passivated() bool { return v.passivated }

// Fields copies the record's fields into one string — the form
// DecodeFieldsString views again — and returns it with the record's
// request document, a slice of it: a record kept this way, to be
// materialised later or never, costs one allocation.
func (v *RecordView) Fields() (fields, request string) {
	fields = string(v.bytes(v.body))
	if v.request.off == v.request.end {
		return fields, ""
	}
	return fields, fields[v.request.off-v.body.off : v.request.end-v.body.off]
}

// Record materialises the view. The fields are copied into one string
// and every string of the record is a slice of it — one allocation for
// them all, and nothing of the viewed bytes is retained; a view of a
// string (DecodeFieldsString) slices that string and copies nothing.
func (v *RecordView) Record() Record {
	str, base := v.src, 0
	if v.data != nil {
		str, base = string(v.bytes(v.body)), v.body.off
	}
	at := func(sp span) string {
		if sp.off == sp.end { // absent field: the zero span is not inside body
			return ""
		}
		return str[sp.off-base : sp.end-base]
	}
	rec := Record{
		Type: at(v.typ), ID: at(v.id), Request: at(v.request),
		Node: at(v.node), Peer: at(v.peer), Err: at(v.errText),
		Paused: v.paused, Passivated: v.passivated,
	}
	if v.hasTime {
		rec.Time = time.Unix(0, v.time)
	}
	if len(v.vars) > 0 {
		rec.Vars = make(map[string]string, len(v.vars))
		for _, kv := range v.vars {
			rec.Vars[at(kv.key)] = at(kv.value)
		}
	}
	if len(v.done) > 0 {
		rec.Done = make([]string, len(v.done))
		for i, sp := range v.done {
			rec.Done[i] = at(sp)
		}
	}
	return rec
}
