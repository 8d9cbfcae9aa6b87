package dgl

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The writer: one append function per element type, in the field order
// of the structs, producing byte for byte what encoding/xml's
// MarshalIndent with a two-space indent produces for the tags in
// types.go. What that means in detail:
// every start tag goes on its own line, two spaces per level; an end tag
// does too unless its element holds no child element; a field without
// omitempty is written even when empty; the <variables> wrapper of a
// flow or step is always written; text and attribute values are escaped
// as xml.EscapeText does.

// marshalBufs holds the buffers documents are built in; Marshal hands
// out an exact-size copy.
var marshalBufs = sync.Pool{New: func() any { return new([]byte) }}

// Marshal renders a DGL document — a Request, Response or Flow, or a
// pointer to one — as indented XML with a header line.
func Marshal(v any) ([]byte, error) {
	bp := marshalBufs.Get().(*[]byte)
	buf, err := AppendXML((*bp)[:0], v)
	if err != nil {
		marshalBufs.Put(bp)
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	*bp = buf
	marshalBufs.Put(bp)
	return out, nil
}

// AppendXML appends the document Marshal renders for v to dst: for a
// caller that owns the buffer the document is sent from.
func AppendXML(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, xml.Header[:len(xml.Header)-1]...)
	switch d := v.(type) {
	case *Request:
		dst = appendRequest(dst, d)
	case Request:
		dst = appendRequest(dst, &d)
	case *Response:
		dst = appendResponse(dst, d)
	case Response:
		dst = appendResponse(dst, &d)
	case *Flow:
		dst = appendFlow(dst, 0, "Flow", d)
	case Flow:
		dst = appendFlow(dst, 0, "Flow", &d)
	default:
		return dst[:start], fmt.Errorf("dgl: marshal: %T is not a DGL document", v)
	}
	if len(dst)-start < len(xml.Header) {
		dst = append(dst, '\n') // a nil pointer: the header alone
	}
	return dst, nil
}

const spaces = "                                "

// line starts a new line indented for depth: two spaces a level.
func line(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}

// open starts an element on a line of its own: "<name". Attributes
// follow, then '>'.
func open(dst []byte, depth int, name string) []byte {
	return append(append(line(dst, depth), '<'), name...)
}

// end closes the element opened at depth. body is where its content
// began: an end tag goes on a line of its own when there is any, which
// for every element that ends this way means child elements.
func end(dst []byte, depth int, name string, body int) []byte {
	if len(dst) > body {
		dst = line(dst, depth)
	}
	return append(append(append(dst, "</"...), name...), '>')
}

func attr(dst []byte, name, val string) []byte {
	dst = append(append(append(dst, ' '), name...), `="`...)
	return append(escape(dst, val), '"')
}

// leaf writes <name>val</name>.
func leaf(dst []byte, depth int, name, val string) []byte {
	dst = escape(append(open(dst, depth, name), '>'), val)
	return append(append(append(dst, "</"...), name...), '>')
}

// escape appends s as xml.EscapeText writes it: the five markup
// characters and tab, newline and carriage return as references,
// U+FFFD for whatever XML does not allow.
func escape(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if class[s[i]]&cEsc == 0 {
			i++
			continue
		}
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if isChar(r) && (r != utf8.RuneError || width != 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(append(dst, s[last:i]...), esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

func appendRequest(dst []byte, q *Request) []byte {
	if q == nil {
		return dst
	}
	dst = open(dst, 0, "dataGridRequest")
	if q.Async {
		dst = attr(dst, "async", "true")
	}
	if q.Route != "" {
		dst = attr(dst, "route", q.Route)
	}
	if q.Token != "" {
		dst = attr(dst, "token", q.Token)
	}
	dst = append(dst, '>')
	body := len(dst)

	dst = append(open(dst, 1, "documentMetadata"), '>')
	meta := len(dst)
	if q.Metadata.CreatedBy != "" {
		dst = leaf(dst, 2, "createdBy", q.Metadata.CreatedBy)
	}
	if q.Metadata.CreatedAt != "" {
		dst = leaf(dst, 2, "createdAt", q.Metadata.CreatedAt)
	}
	if q.Metadata.Description != "" {
		dst = leaf(dst, 2, "description", q.Metadata.Description)
	}
	dst = end(dst, 1, "documentMetadata", meta)

	dst = append(open(dst, 1, "gridUser"), '>')
	user := len(dst)
	dst = leaf(dst, 2, "name", q.User.Name)
	if q.User.VO != "" {
		dst = leaf(dst, 2, "virtualOrganization", q.User.VO)
	}
	dst = end(dst, 1, "gridUser", user)

	if q.Flow != nil {
		dst = appendFlow(dst, 1, "flow", q.Flow)
	}
	if sq := q.StatusQuery; sq != nil {
		dst = append(open(dst, 1, "flowStatusQuery"), '>')
		query := len(dst)
		dst = leaf(dst, 2, "id", sq.ID)
		if sq.Detail {
			dst = leaf(dst, 2, "detail", "true")
		}
		dst = end(dst, 1, "flowStatusQuery", query)
	}
	return end(dst, 0, "dataGridRequest", body)
}

// appendFlow writes a flow under the given element name: "flow" inside
// a document, the type's name as the root of one.
func appendFlow(dst []byte, depth int, name string, f *Flow) []byte {
	if f == nil {
		return dst
	}
	dst = attr(open(dst, depth, name), "name", f.Name)
	dst = append(dst, '>')
	body := len(dst)
	dst = appendVariables(dst, depth+1, f.Variables)

	l := &f.Logic
	dst = append(open(dst, depth+1, "flowLogic"), '>')
	logic := len(dst)
	dst = leaf(dst, depth+2, "control", string(l.Control))
	if l.Condition != "" {
		dst = leaf(dst, depth+2, "condition", l.Condition)
	}
	if it := l.Iterate; it != nil {
		dst = attr(open(dst, depth+2, "iterate"), "var", it.Var)
		if it.Parallel {
			dst = attr(dst, "parallel", "true")
		}
		dst = append(dst, '>')
		iter := len(dst)
		if it.In != "" {
			dst = leaf(dst, depth+3, "in", it.In)
		}
		if it.Times != 0 {
			dst = append(open(dst, depth+3, "times"), '>')
			dst = append(strconv.AppendInt(dst, int64(it.Times), 10), "</times>"...)
		}
		if q := it.Query; q != nil {
			dst = open(dst, depth+3, "query")
			if q.Scope != "" {
				dst = attr(dst, "scope", q.Scope)
			}
			if q.ObjectsOnly {
				dst = attr(dst, "objectsOnly", "true")
			}
			dst = append(dst, '>')
			query := len(dst)
			for i := range q.Conditions {
				c := &q.Conditions[i]
				dst = attr(attr(open(dst, depth+4, "where"), "attr", c.Attr), "op", c.Op)
				if c.Value != "" {
					dst = attr(dst, "value", c.Value)
				}
				dst = append(dst, "></where>"...)
			}
			dst = end(dst, depth+3, "query", query)
		}
		dst = end(dst, depth+2, "iterate", iter)
	}
	dst = appendRules(dst, depth+2, l.Rules)
	dst = end(dst, depth+1, "flowLogic", logic)

	for i := range f.Flows {
		dst = appendFlow(dst, depth+1, "flow", &f.Flows[i])
	}
	for i := range f.Steps {
		dst = appendStep(dst, depth+1, &f.Steps[i])
	}
	return end(dst, depth, name, body)
}

// appendVariables writes the <variables> wrapper, which encoding/xml
// writes for an empty list too.
func appendVariables(dst []byte, depth int, vs []Variable) []byte {
	dst = append(open(dst, depth, "variables"), '>')
	body := len(dst)
	for i := range vs {
		dst = append(attr(open(dst, depth+1, "variable"), "name", vs[i].Name), '>')
		dst = append(escape(dst, vs[i].Value), "</variable>"...)
	}
	return end(dst, depth, "variables", body)
}

func appendRules(dst []byte, depth int, rules []Rule) []byte {
	for i := range rules {
		u := &rules[i]
		dst = append(attr(open(dst, depth, "userDefinedRule"), "name", u.Name), '>')
		body := len(dst)
		dst = leaf(dst, depth+1, "condition", u.Condition)
		for j := range u.Actions {
			a := &u.Actions[j]
			dst = append(attr(open(dst, depth+1, "action"), "name", a.Name), '>')
			action := len(dst)
			if a.Operation != nil {
				dst = appendOperation(dst, depth+2, a.Operation)
			}
			dst = end(dst, depth+1, "action", action)
		}
		dst = end(dst, depth, "userDefinedRule", body)
	}
	return dst
}

func appendStep(dst []byte, depth int, s *Step) []byte {
	dst = attr(open(dst, depth, "step"), "name", s.Name)
	if s.OnError != "" {
		dst = attr(dst, "onError", s.OnError)
	}
	if s.Retries != 0 {
		dst = append(strconv.AppendInt(append(dst, ` retries="`...), int64(s.Retries), 10), '"')
	}
	if s.Backoff != "" {
		dst = attr(dst, "backoff", s.Backoff)
	}
	if s.MaxBackoff != "" {
		dst = attr(dst, "maxBackoff", s.MaxBackoff)
	}
	if s.Timeout != "" {
		dst = attr(dst, "timeout", s.Timeout)
	}
	if s.Pure {
		dst = attr(dst, "pure", "true")
	}
	if s.Outputs != "" {
		dst = attr(dst, "outputs", s.Outputs)
	}
	dst = append(dst, '>')
	body := len(dst)
	dst = appendVariables(dst, depth+1, s.Variables)
	dst = appendRules(dst, depth+1, s.Rules)
	dst = appendOperation(dst, depth+1, &s.Operation)
	return end(dst, depth, "step", body)
}

func appendOperation(dst []byte, depth int, o *Operation) []byte {
	dst = append(attr(open(dst, depth, "operation"), "type", o.Type), '>')
	body := len(dst)
	for i := range o.Params {
		dst = append(attr(open(dst, depth+1, "param"), "name", o.Params[i].Name), '>')
		dst = append(escape(dst, o.Params[i].Value), "</param>"...)
	}
	return end(dst, depth, "operation", body)
}

func appendResponse(dst []byte, p *Response) []byte {
	if p == nil {
		return dst
	}
	dst, body := openResponse(dst)
	if p.Ack != nil {
		dst = appendAck(dst, p.Ack)
	}
	if p.Status != nil {
		dst = appendFlowStatus(dst, 1, "flowStatus", p.Status)
	}
	return endResponse(dst, body, p.Error)
}

func openResponse(dst []byte) (out []byte, body int) {
	dst = append(open(dst, 0, "dataGridResponse"), '>')
	return dst, len(dst)
}

func appendAck(dst []byte, a *Ack) []byte {
	dst = append(open(dst, 1, "requestAcknowledgement"), '>')
	ack := len(dst)
	dst = leaf(dst, 2, "id", a.ID)
	dst = leaf(dst, 2, "status", a.Status)
	dst = leaf(dst, 2, "valid", strconv.FormatBool(a.Valid))
	if a.Message != "" {
		dst = leaf(dst, 2, "message", a.Message)
	}
	return end(dst, 1, "requestAcknowledgement", ack)
}

func endResponse(dst []byte, body int, errText string) []byte {
	if errText != "" {
		dst = leaf(dst, 1, "error", errText)
	}
	return end(dst, 0, "dataGridResponse", body)
}

// appendFlowStatus writes a status tree under the given element name:
// "flowStatus" in a response, "status" below it, the type's name as the
// root of a document.
func appendFlowStatus(dst []byte, depth int, name string, s *FlowStatus) []byte {
	if s == nil {
		return dst
	}
	n := s.Node()
	dst, body := openStatus(dst, depth, name, &n)
	for i := range s.Children {
		dst = appendFlowStatus(dst, depth+1, "status", &s.Children[i])
	}
	return end(dst, depth, name, body)
}

// openStatus writes a status node up to where its children go; body is
// what end needs to close it.
func openStatus(dst []byte, depth int, name string, n *StatusNode) (out []byte, body int) {
	dst = attr(attr(attr(attr(open(dst, depth, name), "id", n.ID), "name", n.Name), "kind", n.Kind), "state", n.State)
	dst = timeAttr(timeAttr(dst, "started", n.Started), "finished", n.Finished)
	if n.Delegated != "" {
		dst = attr(dst, "delegated", n.Delegated)
	}
	dst = append(dst, '>')
	body = len(dst)
	if n.Error != "" {
		dst = leaf(dst, depth+1, "error", n.Error)
	}
	return dst, body
}

// timeAttr writes a status time, if there is one. A time.Time goes
// straight into the document: its digits need no escaping.
func timeAttr(dst []byte, name string, t StatusTime) []byte {
	if t.Text != "" {
		return attr(dst, name, t.Text)
	}
	if t.Time.IsZero() {
		return dst
	}
	dst = append(append(append(dst, ' '), name...), `="`...)
	return append(t.Append(dst), '"')
}

// ResponseWriter writes a dataGridResponse document piece by piece —
// Begin, an acknowledgement and a status tree if there are any (it is
// the StatusSink that writes XML), End — producing byte for byte what
// Marshal produces for the Response holding the same. The zero value is
// ready, and reusable after End.
type ResponseWriter struct {
	buf    []byte
	body   int
	bodies []int // of the status nodes still open
}

// Begin starts a document at the end of dst.
func (w *ResponseWriter) Begin(dst []byte) {
	dst = append(dst, xml.Header[:len(xml.Header)-1]...)
	w.buf, w.body = openResponse(dst)
	w.bodies = w.bodies[:0]
}

// Ack writes the acknowledgement.
func (w *ResponseWriter) Ack(a Ack) { w.buf = appendAck(w.buf, &a) }

// Open implements StatusSink.
func (w *ResponseWriter) Open(n StatusNode) {
	name, body := "status", 0
	if len(w.bodies) == 0 {
		name = "flowStatus"
	}
	w.buf, body = openStatus(w.buf, 1+len(w.bodies), name, &n)
	w.bodies = append(w.bodies, body)
}

// Close implements StatusSink.
func (w *ResponseWriter) Close() {
	depth := len(w.bodies)
	name := "status"
	if depth == 1 {
		name = "flowStatus"
	}
	w.buf = end(w.buf, depth, name, w.bodies[depth-1])
	w.bodies = w.bodies[:depth-1]
}

// End writes the error, if any, closes the document and returns the
// buffer Begin was given with the document appended.
func (w *ResponseWriter) End(errText string) []byte {
	out := endResponse(w.buf, w.body, errText)
	w.buf = nil
	return out
}
