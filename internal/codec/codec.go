// Package codec implements the DGF binary encoding: a compact,
// length-prefixed, field-tagged serialization for lifecycle records and
// wire frame payloads. It replaces encoding/json (and encoding/xml for
// DGL documents) on the hot paths — wire frames and store segments —
// where codec cost, not I/O, bounds throughput.
//
// The format is deliberately small: varint-framed fields identified by
// (field number, wire type) tags, a per-message string table that
// deduplicates repeated keys (flow ids, step names, record types), and
// protobuf-style unknown-field skipping so old decoders read new
// messages. Every payload starts with a 3-byte header — magic 0xDF,
// format version, message type — which is also how a binary payload is
// told from text: JSON and XML payloads never start with 0xDF.
//
// The byte-level specification, including a worked hex dump, lives in
// docs/CODEC.md. Which wire frames carry which message is in
// docs/WIRE.md; the segment format is in docs/STORE.md.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic is the first byte of every binary payload and frame. It is
// outside the ASCII range, so JSON ('{') and XML ('<') payloads are
// distinguishable by their first byte alone.
const Magic byte = 0xDF

// Version is the format version carried in every header. Decoders
// reject versions they do not know; field additions do NOT bump it
// (unknown fields are skipped), only incompatible layout changes do.
const Version byte = 1

// Message types. The header's third byte names the payload's schema so
// a decoder never applies the wrong field table.
const (
	// MsgRecord is a lifecycle Record (store segments).
	MsgRecord byte = 1
	// MsgRequest is a dgl.Request (KindDGL frames).
	MsgRequest byte = 2
	// MsgResponse is a dgl.Response (KindDGL replies).
	MsgResponse byte = 3
	// MsgControl is a wire.Control (KindControl frames).
	MsgControl byte = 4
	// MsgControlResult is a wire.ControlResult (KindControl replies).
	MsgControlResult byte = 5
	// MsgBatch is a batch envelope (KindBatch frames): the submitting
	// user, its token and one request document per item.
	MsgBatch byte = 6
	// MsgBatchResult is a batch reply (KindBatch replies): ok, an error
	// and one response document per item.
	MsgBatchResult byte = 7
	// 8 and 9 were the retired delegate envelope and its reply; never
	// reused.
	// MsgReplicate is a wire.Replicate envelope (KindReplicate frames).
	MsgReplicate byte = 10
	// MsgReplicateResult is a wire.ReplicateResult (KindReplicate
	// replies).
	MsgReplicateResult byte = 11
	// MsgRoute is a wire.Route envelope (KindRoute frames).
	MsgRoute byte = 12
	// MsgRouteResult is a wire.RouteResult (KindRoute replies).
	MsgRouteResult byte = 13
	// MsgVdata is one record of the virtual-data catalog's log: a put
	// (a vdata.Entry) or a del (its key and the del flag).
	MsgVdata byte = 14
	// MsgProv is one record of the provenance log (a provenance.Record).
	MsgProv byte = 15
)

// Wire types, the low two bits of every field tag.
const (
	wtVarint byte = 0 // unsigned varint (bools are 0/1, times are zigzag)
	wtBytes  byte = 1 // uvarint length + raw bytes
	wtMsg    byte = 2 // uvarint length + nested fields (shares the string table)
	wtSym    byte = 3 // string-table entry: 0 = inline definition, n = reference
)

// ErrNotBinary reports a payload that does not start with Magic; the
// caller should fall back to the legacy (JSON/XML) decoder.
var ErrNotBinary = errors.New("codec: not a binary payload")

// ErrTorn reports a truncated trailing frame in a byte stream — the
// signature of a crash mid-write, repairable by truncating at the frame
// start (the offset NextFrame was given).
var ErrTorn = errors.New("codec: torn trailing frame")

// IsBinary reports whether a payload or file — as bytes, or held in a
// string the way Record.Request and envelope document fields hold one —
// begins with the binary header. One byte is enough: legacy JSON
// payloads start with '{' and DGL documents with '<'.
func IsBinary[T []byte | string](b T) bool {
	return len(b) > 0 && b[0] == Magic
}

// headerLen is magic + version + message type.
const headerLen = 3

// An Encoder builds binary payloads into a reusable buffer. Encoders
// are not safe for concurrent use; pool them with GetEncoder/PutEncoder
// on hot paths. One Encoder may hold several payloads back to back
// (each Begin/BeginFrame appends a fresh header and resets the string
// table); Bytes returns everything written since the last Reset.
type Encoder struct {
	buf  []byte
	syms map[string]uint32
	// strs backs the table's keys that SymBytes makes.
	strs Arena
}

// Reset drops all buffered payloads, keeping capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.syms)
}

// Bytes returns the encoded payload(s). The slice aliases the encoder's
// buffer: it is valid until the next Reset, Begin or PutEncoder.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes buffered so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Begin starts a payload: header first, fields next. The string table
// is per payload, so Begin clears it.
func (e *Encoder) Begin(msgType byte) {
	e.buf = append(e.buf, Magic, Version, msgType)
	if e.syms == nil {
		e.syms = make(map[string]uint32, 16)
	} else {
		clear(e.syms)
	}
}

// BeginFrame starts a self-delimiting frame for append-only streams
// (store segments): header, then a uvarint body length
// that EndFrame patches in. The returned mark must be passed to the
// matching EndFrame.
func (e *Encoder) BeginFrame(msgType byte) int {
	e.Begin(msgType)
	return e.reserve()
}

// EndFrame closes a frame started with BeginFrame.
func (e *Encoder) EndFrame(mark int) { e.patch(mark) }

func (e *Encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *Encoder) tag(num int, wt byte) {
	e.uvarint(uint64(num)<<2 | uint64(wt))
}

// Uint writes an unsigned varint field. Zero is the implied default and
// is omitted.
func (e *Encoder) Uint(num int, v uint64) {
	if v == 0 {
		return
	}
	e.tag(num, wtVarint)
	e.uvarint(v)
}

// Bool writes a boolean field; false is omitted.
func (e *Encoder) Bool(num int, v bool) {
	if v {
		e.tag(num, wtVarint)
		e.uvarint(1)
	}
}

// Int writes a signed (zigzag) varint field. Unlike Uint it writes
// zeros: callers that want presence semantics (Record.Time) guard
// themselves.
func (e *Encoder) Int(num int, v int64) {
	e.tag(num, wtVarint)
	e.buf = binary.AppendVarint(e.buf, v)
}

// Str writes a length-prefixed string field; empty is omitted.
func (e *Encoder) Str(num int, s string) {
	if s == "" {
		return
	}
	e.tag(num, wtBytes)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob writes a length-prefixed byte field; empty is omitted.
func (e *Encoder) Blob(num int, b []byte) {
	if len(b) == 0 {
		return
	}
	e.tag(num, wtBytes)
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// BeginBlob starts a bytes field whose content the writes that follow
// make — a whole payload, begun with Begin: the way a reply is written
// into its envelope in place instead of built apart and copied in.
// EndBlob closes it, and the field's bytes are what Blob writes for the
// same content. A payload begun inside resets the string table, so no
// Sym field of the envelope may follow the blob.
func (e *Encoder) BeginBlob(num int) int {
	e.tag(num, wtBytes)
	return e.reserve()
}

// EndBlob closes a field started with BeginBlob.
func (e *Encoder) EndBlob(mark int) { e.patch(mark) }

// Sym writes a string through the payload's string table: the first
// occurrence is written inline and assigned the next table index, later
// occurrences are one- or two-byte references. Use it for values that
// repeat within a payload (ids, step names, record types); empty is
// omitted.
func (e *Encoder) Sym(num int, s string) {
	if s == "" {
		return
	}
	e.tag(num, wtSym)
	if id, ok := e.syms[s]; ok {
		e.uvarint(uint64(id))
		return
	}
	e.define(s)
}

// SymBytes is Sym for a value held as bytes — a timestamp formatted
// into scratch: it becomes a string only if it is new to the table, and
// then one cut from the encoder's arena, which the table drops with the
// payload.
func (e *Encoder) SymBytes(num int, b []byte) {
	if len(b) == 0 {
		return
	}
	e.tag(num, wtSym)
	if id, ok := e.syms[string(b)]; ok {
		e.uvarint(uint64(id))
		return
	}
	e.define(e.strs.Cut(b))
}

// define writes s inline and gives it the next table index.
func (e *Encoder) define(s string) {
	e.uvarint(0)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	e.syms[s] = uint32(len(e.syms)) + 1
}

// Msg writes a nested message field. The nested fields share the
// payload's string table. Repeated fields are written by calling Msg
// (or any field writer) with the same number again.
func (e *Encoder) Msg(num int, fields func(*Encoder)) {
	e.tag(num, wtMsg)
	mark := e.reserve()
	fields(e)
	e.patch(mark)
}

// reserve appends a one-byte length placeholder and returns the index
// just past it (the body start).
func (e *Encoder) reserve() int {
	e.buf = append(e.buf, 0)
	return len(e.buf)
}

// patch back-fills the placeholder at mark-1 with the uvarint length of
// everything written since reserve, shifting the body right when the
// length needs more than one byte (bodies under 128 bytes — the common
// case — cost nothing).
func (e *Encoder) patch(mark int) {
	n := len(e.buf) - mark
	if n < 0x80 {
		e.buf[mark-1] = byte(n)
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(tmp[:], uint64(n))
	e.buf = append(e.buf, tmp[1:ln]...)
	copy(e.buf[mark-1+ln:], e.buf[mark:mark+n])
	copy(e.buf[mark-1:], tmp[:ln])
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a reset Encoder from the package pool.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an Encoder to the pool. The caller must not touch
// the encoder (or slices returned by Bytes) afterwards. Oversized
// buffers are dropped rather than pinned in the pool; the threshold
// must clear a full batch envelope (BatchSize requests with
// multi-kilobyte variable sets), or every batch reallocates and
// regrows its envelope from scratch.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > 4<<20 {
		return
	}
	encoderPool.Put(e)
}

// A Decoder iterates the fields of one binary payload. The usual loop:
//
//	d, err := codec.NewDecoder(payload, codec.MsgRecord)
//	for d.Next() {
//		switch d.Field() {
//		case 1:
//			rec.Type = d.Sym()
//		default:
//			d.Skip()
//		}
//	}
//	return d.Err()
//
// Errors are sticky: the first malformed byte stops iteration and every
// later accessor returns the zero value. Decoders are values — a nested
// message narrows the decoder's own window (MsgEnter/MsgExit) rather
// than spawning a child, so a decoder stays in its caller's frame. The
// symbol table is borrowed from a package pool on the first symbol the
// payload defines; a one-shot decode gives it back with Release once it
// is done, and then allocates only the strings it returns (one payload
// copy under NewDecoder, none under a string decoder) and what the
// caller builds from them.
type Decoder struct {
	// data is the payload as bytes; nil when the payload is a string
	// (newStringDecoder), which the decoder then reads in place.
	data []byte
	// str is the payload as one string — copied at NewDecoder time, or
	// the caller's own under newStringDecoder: every Str/Sym result is a
	// zero-allocation slice of it. The copy also makes returned strings
	// safe when data aliases a reused buffer (a pooled encoder's, a wire
	// frame payload released after the decode). The flip side: one retained string pins the whole
	// payload — fine for decoded messages, whose strings are most of the
	// payload anyway.
	str   string
	pos   int
	end   int
	field int
	wt    byte
	err   error
	// syms is the payload's string table: where in data each inline
	// definition sits. Spans, not strings, so a RecordView resolves
	// references without materialising anything.
	syms []span
	// table is the pooled table syms was borrowed from, which Release
	// gives back; nil when this decoder borrowed none — a copy that
	// shares its original's syms (fieldCounts) must not give that back.
	table *symTable
}

// span locates a byte string inside a decoder's data.
type span struct{ off, end int }

// A symTable is a symbol table a decoder borrows from symPool. Its
// first 16 entries live in the same allocation.
type symTable struct {
	spans []span
	first [16]span
}

var symPool = sync.Pool{New: func() any {
	t := new(symTable)
	t.spans = t.first[:0]
	return t
}}

// maxPooledSyms bounds the table a decoder gives back: one payload with
// thousands of symbols should not pin that much in the pool.
const maxPooledSyms = 1024

// Release gives back the symbol table the decoder borrowed, if it
// borrowed one. Nothing a decode returns refers to the table, so a
// caller releases once it has read what it needs — typically when the
// decode returns. The decoder must not be used after Release.
func (d *Decoder) Release() {
	t := d.table
	if t == nil {
		return
	}
	if cap(d.syms) <= maxPooledSyms {
		t.spans = d.syms[:0] // a table that grew is given back grown
		symPool.Put(t)
	}
	d.table, d.syms = nil, nil
}

// NewDecoder validates the 3-byte header and positions the decoder at
// the first field. A payload that does not start with Magic returns
// ErrNotBinary (fall back to JSON); a wrong version or message type is
// a hard error.
func NewDecoder(payload []byte, msgType byte) (Decoder, error) {
	d, err := NewDecoderTransient(payload, msgType)
	if err != nil {
		return d, err
	}
	d.str = string(payload)
	return d, nil
}

// NewDecoderTransient is NewDecoder without the up-front payload
// string copy: every Str/Sym result is a fresh per-value copy instead
// of a slice of one shared backing string. Use it for envelope
// messages whose bulk is Blob fields (batch frames and the like) —
// there the shared copy would duplicate megabytes of embedded payloads
// to back a handful of short strings.
func NewDecoderTransient(payload []byte, msgType byte) (Decoder, error) {
	if err := checkHeader(payload, msgType); err != nil {
		return Decoder{}, err
	}
	return Decoder{data: payload, pos: headerLen, end: len(payload)}, nil
}

// newStringDecoder is NewDecoder over a payload held in a string — a
// stored request document: the decoder reads the string in place and
// every Str/Sym result is a slice of it, so nothing is copied.
func newStringDecoder(payload string, msgType byte) (Decoder, error) {
	if err := checkHeader(payload, msgType); err != nil {
		return Decoder{}, err
	}
	return Decoder{str: payload, pos: headerLen, end: len(payload)}, nil
}

// checkHeader validates a payload's 3-byte header against the expected
// message type.
func checkHeader[T []byte | string](payload T, msgType byte) error {
	if !IsBinary(payload) {
		return ErrNotBinary
	}
	if len(payload) < headerLen {
		return fmt.Errorf("codec: truncated header (%d bytes)", len(payload))
	}
	if payload[1] != Version {
		return fmt.Errorf("codec: unsupported format version %d", payload[1])
	}
	if payload[2] != msgType {
		return fmt.Errorf("codec: message type %d, want %d", payload[2], msgType)
	}
	return nil
}

// Next advances to the next field, returning false at the end of the
// payload or on the first error.
func (d *Decoder) Next() bool {
	if d.err != nil || d.pos >= d.end {
		return false
	}
	v, n := d.uvarint()
	if n <= 0 {
		d.fail("bad field tag")
		return false
	}
	d.pos += n
	d.field = int(v >> 2)
	d.wt = byte(v & 3)
	return true
}

// Field returns the current field number.
func (d *Decoder) Field() int { return d.field }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("codec: %s at offset %d", msg, d.pos)
	}
	d.pos = d.end
}

// uvarint reads the uvarint at pos from the payload in whichever form
// it is held.
func (d *Decoder) uvarint() (uint64, int) {
	if d.data != nil && d.pos < d.end && d.data[d.pos] < 0x80 {
		return uint64(d.data[d.pos]), 1 // one byte: most tags and lengths
	}
	if d.data == nil {
		// A varint is at most MaxVarintLen64 bytes: that much copied to
		// the stack is all binary.Uvarint needs to see.
		var buf [binary.MaxVarintLen64]byte
		return binary.Uvarint(buf[:copy(buf[:], d.str[d.pos:d.end])])
	}
	return binary.Uvarint(d.data[d.pos:d.end])
}

func (d *Decoder) uvarintVal() uint64 {
	v, n := d.uvarint()
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return v
}

// Uint reads the current field as an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.wt != wtVarint {
		d.fail("field is not a varint")
		return 0
	}
	return d.uvarintVal()
}

// Bool reads the current field as a boolean.
func (d *Decoder) Bool() bool { return d.Uint() != 0 }

// Int reads the current field as a signed (zigzag) varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	if d.wt != wtVarint {
		d.fail("field is not a varint")
		return 0
	}
	ux, n := d.uvarint() // zigzag, as binary.Varint reads it
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

// spanVal reads a uvarint length and returns where the bytes it counts
// sit in data.
func (d *Decoder) spanVal() span {
	n := d.uvarintVal()
	if d.err != nil {
		return span{}
	}
	if n > uint64(d.end-d.pos) {
		d.fail("length beyond payload")
		return span{}
	}
	sp := span{d.pos, d.pos + int(n)}
	d.pos = sp.end
	return sp
}

// strAt materialises a span: a slice of the payload string copy — no
// per-string allocation — or, under a transient decoder (no shared
// copy), an individual copy.
func (d *Decoder) strAt(sp span) string {
	if d.str == "" {
		return string(d.data[sp.off:sp.end])
	}
	return d.str[sp.off:sp.end]
}

// Str reads the current field as a string.
func (d *Decoder) Str() string { return d.strAt(d.bytesSpan()) }

// Blob reads the current field as raw bytes. The slice aliases the
// payload; copy it to retain past the payload's lifetime. (A payload
// held in a string has no bytes to alias: the field is copied out.)
func (d *Decoder) Blob() []byte { return d.blobAt(d.bytesSpan()) }

func (d *Decoder) blobAt(sp span) []byte {
	if d.data == nil {
		return []byte(d.str[sp.off:sp.end])
	}
	return d.data[sp.off:sp.end]
}

func (d *Decoder) bytesSpan() span {
	if d.err != nil {
		return span{}
	}
	if d.wt != wtBytes {
		d.fail("field is not bytes")
		return span{}
	}
	return d.spanVal()
}

// Sym reads the current field through the string table.
func (d *Decoder) Sym() string { return d.strAt(d.symSpan()) }

// SymBlob is Sym as raw bytes, which alias the payload as Blob's do.
func (d *Decoder) SymBlob() []byte { return d.blobAt(d.symSpan()) }

func (d *Decoder) symSpan() span {
	if d.err != nil {
		return span{}
	}
	if d.wt != wtSym {
		d.fail("field is not a symbol")
		return span{}
	}
	return d.symVal()
}

func (d *Decoder) symVal() span {
	ref := d.uvarintVal()
	if d.err != nil {
		return span{}
	}
	if ref == 0 {
		sp := d.spanVal()
		if d.err != nil {
			return span{}
		}
		if d.syms == nil {
			// Borrowed with room for a typical message: growing from
			// nothing would reallocate five times on the way to 16 symbols.
			d.table = symPool.Get().(*symTable)
			d.syms = d.table.spans[:0]
		}
		d.syms = append(d.syms, sp)
		return sp
	}
	if ref > uint64(len(d.syms)) {
		d.fail("symbol reference out of range")
		return span{}
	}
	return d.syms[ref-1]
}

// MsgEnter narrows the decoder to the current field's nested message
// and returns the parent's end offset for MsgExit. The nested fields are
// read with Next on the same decoder, which shares the parent's symbol
// table, and MsgExit then restores the parent window:
//
//	end := d.MsgEnter()
//	for d.Next() { ... }
//	d.MsgExit(end)
//
// On error MsgEnter returns the parent end unchanged, so the
// Next/MsgExit sequence is still safe.
func (d *Decoder) MsgEnter() int {
	if d.err != nil {
		return d.end
	}
	if d.wt != wtMsg {
		d.fail("field is not a message")
		return d.end
	}
	n := d.uvarintVal()
	if d.err != nil {
		return d.end
	}
	if n > uint64(d.end-d.pos) {
		d.fail("message length beyond payload")
		return d.end
	}
	parent := d.end
	d.end = d.pos + int(n)
	return parent
}

// MsgExit restores the parent window after MsgEnter. Unread bytes of
// the nested message are skipped (fail() already parks pos at the
// nested end on error, which is <= parent end, so errors propagate
// unharmed).
func (d *Decoder) MsgExit(parentEnd int) {
	if d.pos < d.end {
		d.pos = d.end
	}
	d.end = parentEnd
}

// Skip discards the current field by wire type, so decoders built
// against an older schema read past fields they do not know. A skipped
// symbol still registers its inline definition: later references stay
// valid.
func (d *Decoder) Skip() {
	if d.err != nil {
		return
	}
	switch d.wt {
	case wtVarint:
		d.uvarintVal()
	case wtBytes, wtMsg:
		d.spanVal()
	case wtSym:
		d.symVal()
	}
}

// MaxFrameBody is the largest frame body a reader accepts; a longer
// length prefix is treated as corruption, not as an allocation request.
// Writers of frame streams must refuse what readers would reject.
const MaxFrameBody = 16 << 20

// A Frame locates one frame inside an in-memory stream.
type Frame struct {
	// Type is the header's message type.
	Type byte
	// Body and End bound the frame's fields: data[Body:End]. End is also
	// the offset of the next frame.
	Body, End int
}

// NextFrame parses the frame that starts at data[off:], a stream held in
// memory — a store segment, a replication block. It has three outcomes
// besides a frame: io.EOF at a clean end (off == len(data)), ErrTorn for
// a truncated trailing frame (truncate at off to repair), any other error
// for corruption. It returns where the frame's fields lie, not a copy of
// them, and allocates nothing.
func NextFrame(data []byte, off int) (Frame, error) {
	rest := data[off:]
	if len(rest) == 0 {
		return Frame{}, io.EOF
	}
	if len(rest) < headerLen {
		return Frame{}, ErrTorn
	}
	if err := checkFrameHeader(rest[0], rest[1], int64(off)); err != nil {
		return Frame{}, err
	}
	size, n := binary.Uvarint(rest[headerLen:])
	if n == 0 {
		return Frame{}, ErrTorn
	}
	if n < 0 {
		return Frame{}, fmt.Errorf("codec: uvarint overflow at offset %d", off)
	}
	if err := checkFrameSize(size, int64(off)); err != nil {
		return Frame{}, err
	}
	body := off + headerLen + n
	if size > uint64(len(data)-body) {
		return Frame{}, ErrTorn
	}
	return Frame{Type: rest[2], Body: body, End: body + int(size)}, nil
}

// NewFieldsDecoder positions a decoder at the first of the fields
// data[off:end] of a frame (Frame.Body, Frame.End) inside a larger
// stream. As under NewDecoder, every Str/Sym result is a slice of one
// copy of the fields, so nothing it returns aliases data.
func NewFieldsDecoder(data []byte, off, end int) Decoder {
	s := string(data[off:end])
	return Decoder{str: s, end: len(s)}
}

// View positions d at the fields data[off:end] of a frame (Frame.Body,
// Frame.End) and reads them where they lie: Blob and SymBlob alias data,
// and Str and Sym copy each value. A decoder keeps the symbol table it
// borrowed, so one decoder walks frame after frame on one borrow;
// Release gives it back after the last.
func (d *Decoder) View(data []byte, off, end int) {
	*d = Decoder{data: data, pos: off, end: end, syms: d.syms[:0], table: d.table}
}

func checkFrameHeader(magic, version byte, off int64) error {
	if magic != Magic {
		return fmt.Errorf("codec: bad frame magic 0x%02x at offset %d", magic, off)
	}
	if version != Version {
		return fmt.Errorf("codec: unsupported format version %d at offset %d", version, off)
	}
	return nil
}

func checkFrameSize(size uint64, off int64) error {
	if size > MaxFrameBody {
		return fmt.Errorf("codec: frame body %d bytes beyond limit at offset %d", size, off)
	}
	return nil
}
