package dgl

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"strings"
	"unsafe"
)

// reader builds DGL documents from a scanner: one method per element
// type of the schema, each switching on the local names of attributes
// and child elements and skipping what it does not know. Every value it
// keeps ends in one string per document that holds the values and
// nothing else (keep, then own), so a Request that is kept does not keep
// the markup it came in; values from closed sets come back as the
// package's constants. The first error sticks: every method is a no-op
// after it.
type reader struct {
	s    scanner
	err  error
	acc  []byte          // character data that came in several pieces
	vals strings.Builder // the string the kept values are cut from
	lent int             // bytes of the values that still lie in the document
}

// keep returns b as a value of the document. A value that lies in the
// document is lent from it, a string over the document's own bytes,
// until own moves it into vals: the parse counts what it lends, so vals
// is sized once, when the parse ends and the count is exact. A value
// the scanner decoded lies in a buffer the next token overwrites, so it
// is cut into vals at once; if vals must grow or start afresh after
// that, the strings already cut keep the buffer they were cut from
// (codec.Arena's property).
func (r *reader) keep(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if p := unsafe.SliceData(b); r.lends(p) {
		r.lent += len(b)
		return unsafe.String(p, len(b))
	}
	at := r.vals.Len()
	r.vals.Write(b)
	return r.vals.String()[at:]
}

// lends reports whether p points into the document.
func (r *reader) lends(p *byte) bool {
	at := uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(unsafe.SliceData(r.s.data)))
	return at < uintptr(len(r.s.data))
}

// own moves *v into vals when it is a value lent from the document.
func (r *reader) own(v *string) {
	if *v != "" && r.lends(unsafe.StringData(*v)) {
		at := r.vals.Len()
		r.vals.WriteString(*v)
		*v = r.vals.String()[at:]
	}
}

// owning readies vals to take the lent values: one allocation of their
// exact size, or none when nothing was lent.
func (r *reader) owning() {
	if r.lent > r.vals.Cap()-r.vals.Len() {
		r.vals = strings.Builder{} // what was cut keeps its buffer
		r.vals.Grow(r.lent)
	}
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = r.s.fail(r.s.pos, format, args...)
	}
}

// root moves to the document's root element — its first start tag,
// whatever character data, comments and processing instructions precede
// it — and checks its local name.
func (r *reader) root(want string) {
	for r.err == nil {
		var tok token
		switch tok, r.err = r.s.next(); {
		case r.err != nil:
		case tok == tokEOF:
			r.fail("no root element")
		case tok == tokStart:
			if string(r.s.name) != want {
				r.fail("expected element <%s> but have <%s>", want, r.s.name)
			}
			return
		}
	}
}

// finish ends the document after the root element's end tag.
func (r *reader) finish() error {
	if r.err == nil {
		r.err = r.s.trailer()
	}
	return r.err
}

// attr returns the next attribute of the element just opened.
func (r *reader) attr() (name, val []byte, ok bool) {
	if r.err != nil {
		return nil, nil, false
	}
	name, val, ok, r.err = r.s.attr()
	return name, val, ok
}

// nameAttr reads the attributes of an element whose only one is name.
func (r *reader) nameAttr(dst *string) {
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		if string(name) == "name" {
			*dst = r.keep(val)
		}
	}
}

// child returns the local name of the next child of the element being
// read, false at its end tag. Character data between children is not
// part of any DGL struct and is dropped.
func (r *reader) child() (name []byte, ok bool) {
	for r.err == nil {
		var tok token
		switch tok, r.err = r.s.next(); {
		case r.err != nil, tok == tokEnd:
			return nil, false
		case tok == tokStart:
			return r.s.name, true
		case tok == tokEOF:
			r.err = r.s.eof()
		}
	}
	return nil, false
}

// once marks one of the current element's singleton children as seen.
// The schema allows it once; merging a second into the first, as a
// struct decoder would, runs a flow nobody wrote.
func (r *reader) once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		r.fail("element <%s> appears more than once in its parent", r.s.name)
	}
	*seen |= bit
	return r.err == nil
}

// skip passes over the element just opened.
func (r *reader) skip() {
	depth := r.s.depth - 1
	for r.err == nil {
		var tok token
		if tok, r.err = r.s.next(); tok == tokEnd && r.s.depth == depth {
			return
		}
	}
}

// text returns the character data of the element just opened — its own,
// not that of elements nested in it — good until the next call.
func (r *reader) text() []byte {
	var one []byte   // the only piece so far, when it lies in the document
	acc := r.acc[:0] // otherwise the pieces, joined
	depth := r.s.depth
	for r.err == nil {
		var tok token
		switch tok, r.err = r.s.next(); {
		case r.err != nil:
		case tok == tokEnd && r.s.depth == depth-1:
			if one != nil {
				return one
			}
			r.acc = acc
			return acc
		case tok != tokText || r.s.depth != depth:
		case one == nil && len(acc) == 0 && !r.s.decoded:
			one = r.s.text
		default:
			acc = append(append(acc, one...), r.s.text...)
			one = nil
		}
	}
	return nil
}

// str, flag and num read a singleton child that holds one value.
func (r *reader) str(seen *uint8, bit uint8) string {
	if !r.once(seen, bit) {
		return ""
	}
	return r.keep(r.text())
}

func (r *reader) flag(seen *uint8, bit uint8) bool {
	return r.once(seen, bit) && r.parseBool(r.text())
}

func (r *reader) num(seen *uint8, bit uint8) int {
	if !r.once(seen, bit) {
		return 0
	}
	return r.parseInt(r.text())
}

// parseBool and parseInt read a value the way encoding/xml does: empty
// is the zero value, otherwise space is trimmed and strconv decides.
func (r *reader) parseBool(b []byte) bool {
	if len(b) == 0 || r.err != nil {
		return false
	}
	switch string(bytes.TrimSpace(b)) {
	case "1", "t", "T", "TRUE", "true", "True":
		return true
	case "0", "f", "F", "FALSE", "false", "False":
		return false
	}
	r.fail("%q is not a boolean", b)
	return false
}

func (r *reader) parseInt(b []byte) int {
	if len(b) == 0 || r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, strconv.IntSize)
	if err != nil {
		r.fail("%q is not an integer", b)
	}
	return int(n)
}

// interned holds the values of the schema's closed sets: control
// patterns, fault policies, built-in operation types, and the node
// kinds and states of a status tree (internal/matrix/state.go).
var interned = func() map[string]string {
	m := map[string]string{}
	for _, s := range []string{
		string(Sequential), string(Parallel), string(While), string(ForEach), string(Switch),
		OnErrorAbort, OnErrorContinue, OnErrorRetry,
		"flow", "step", "pending", "running", "succeeded", "failed", "cancelled", "skipped",
	} {
		m[s] = s
	}
	for op := range builtinOps {
		m[op] = op
	}
	return m
}()

// intern returns b as a string: the one in interned when b is a value
// of a closed set, a value of the document (keep) otherwise.
func (r *reader) intern(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	return r.keep(b)
}

const xmlNamespaceURL = "http://www.w3.org/XML/1998/namespace"

// rootSpace works out the name space of a root element the way
// encoding/xml reports it in XMLName: what the root's own xmlns
// declarations bind its prefix to, the prefix itself when nothing does.
type rootSpace struct {
	prefix []byte // the root's prefix
	space  string
	bound  bool
}

// declare looks at one attribute of the root, prefix:name="val".
func (n *rootSpace) declare(r *reader, prefix, name, val []byte) {
	if string(prefix) == "xmlns" && bytes.Equal(name, n.prefix) || prefix == nil && n.prefix == nil && string(name) == "xmlns" {
		n.space, n.bound = r.keep(val), true
	}
}

func (n *rootSpace) name(r *reader, local string) xml.Name {
	switch {
	case string(n.prefix) == "xmlns":
		return xml.Name{Space: "xmlns", Local: local}
	case string(n.prefix) == "xml":
		return xml.Name{Space: xmlNamespaceURL, Local: local}
	case !n.bound:
		return xml.Name{Space: r.keep(n.prefix), Local: local}
	}
	return xml.Name{Space: n.space, Local: local}
}

func (r *reader) request(q *Request) {
	r.root("dataGridRequest")
	ns := rootSpace{prefix: r.s.prefix}
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		ns.declare(r, r.s.prefix, name, val)
		switch string(name) {
		case "async":
			q.Async = r.parseBool(val)
		case "route":
			q.Route = r.keep(val)
		case "token":
			q.Token = r.keep(val)
		}
	}
	q.XMLName = ns.name(r, "dataGridRequest")
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "documentMetadata":
			if r.once(&seen, 1) {
				r.documentMeta(&q.Metadata)
			}
		case "gridUser":
			if r.once(&seen, 2) {
				r.gridUser(&q.User)
			}
		case "flow":
			if r.once(&seen, 4) {
				q.Flow = new(Flow)
				r.flow(q.Flow)
			}
		case "flowStatusQuery":
			if r.once(&seen, 8) {
				q.StatusQuery = new(StatusQuery)
				r.statusQuery(q.StatusQuery)
			}
		default:
			r.skip()
		}
	}
}

func (r *reader) documentMeta(m *DocumentMeta) {
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "createdBy":
			m.CreatedBy = r.str(&seen, 1)
		case "createdAt":
			m.CreatedAt = r.str(&seen, 2)
		case "description":
			m.Description = r.str(&seen, 4)
		default:
			r.skip()
		}
	}
}

func (r *reader) gridUser(u *GridUser) {
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "name":
			u.Name = r.str(&seen, 1)
		case "virtualOrganization":
			u.VO = r.str(&seen, 2)
		default:
			r.skip()
		}
	}
}

func (r *reader) statusQuery(q *StatusQuery) {
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "id":
			q.ID = r.str(&seen, 1)
		case "detail":
			q.Detail = r.flag(&seen, 2)
		default:
			r.skip()
		}
	}
}

func (r *reader) flow(f *Flow) {
	r.nameAttr(&f.Name)
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "variables":
			if r.once(&seen, 1) {
				f.Variables = r.variables(f.Variables)
			}
		case "flowLogic":
			if r.once(&seen, 2) {
				r.flowLogic(&f.Logic)
			}
		case "flow":
			f.Flows = append(f.Flows, Flow{})
			r.flow(&f.Flows[len(f.Flows)-1])
		case "step":
			f.Steps = append(f.Steps, Step{})
			r.step(&f.Steps[len(f.Steps)-1])
		default:
			r.skip()
		}
	}
}

// variables reads a <variables> wrapper.
func (r *reader) variables(vs []Variable) []Variable {
	for name, ok := r.child(); ok; name, ok = r.child() {
		if string(name) != "variable" {
			r.skip()
			continue
		}
		vs = append(vs, Variable{})
		v := &vs[len(vs)-1]
		r.nameAttr(&v.Name)
		v.Value = r.keep(r.text())
	}
	return vs
}

func (r *reader) flowLogic(l *FlowLogic) {
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "control":
			if r.once(&seen, 1) {
				l.Control = Control(r.intern(r.text()))
			}
		case "condition":
			l.Condition = r.str(&seen, 2)
		case "iterate":
			if r.once(&seen, 4) {
				l.Iterate = new(Iterate)
				r.iterate(l.Iterate)
			}
		case "userDefinedRule":
			l.Rules = append(l.Rules, Rule{})
			r.rule(&l.Rules[len(l.Rules)-1])
		default:
			r.skip()
		}
	}
}

func (r *reader) iterate(it *Iterate) {
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		switch string(name) {
		case "var":
			it.Var = r.keep(val)
		case "parallel":
			it.Parallel = r.parseBool(val)
		}
	}
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "in":
			it.In = r.str(&seen, 1)
		case "times":
			it.Times = r.num(&seen, 2)
		case "query":
			if r.once(&seen, 4) {
				it.Query = new(NSQuery)
				r.query(it.Query)
			}
		default:
			r.skip()
		}
	}
}

func (r *reader) query(q *NSQuery) {
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		switch string(name) {
		case "scope":
			q.Scope = r.keep(val)
		case "objectsOnly":
			q.ObjectsOnly = r.parseBool(val)
		}
	}
	for name, ok := r.child(); ok; name, ok = r.child() {
		if string(name) != "where" {
			r.skip()
			continue
		}
		q.Conditions = append(q.Conditions, QueryCond{})
		c := &q.Conditions[len(q.Conditions)-1]
		for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
			switch string(name) {
			case "attr":
				c.Attr = r.keep(val)
			case "op":
				c.Op = r.keep(val)
			case "value":
				c.Value = r.keep(val)
			}
		}
		r.skip()
	}
}

func (r *reader) rule(u *Rule) {
	r.nameAttr(&u.Name)
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "condition":
			u.Condition = r.str(&seen, 1)
		case "action":
			u.Actions = append(u.Actions, Action{})
			r.action(&u.Actions[len(u.Actions)-1])
		default:
			r.skip()
		}
	}
}

func (r *reader) action(a *Action) {
	r.nameAttr(&a.Name)
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		if string(name) == "operation" && r.once(&seen, 1) {
			a.Operation = new(Operation)
			r.operation(a.Operation)
		} else {
			r.skip()
		}
	}
}

func (r *reader) step(s *Step) {
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		switch string(name) {
		case "name":
			s.Name = r.keep(val)
		case "onError":
			s.OnError = r.intern(val)
		case "retries":
			s.Retries = r.parseInt(val)
		case "backoff":
			s.Backoff = r.keep(val)
		case "maxBackoff":
			s.MaxBackoff = r.keep(val)
		case "timeout":
			s.Timeout = r.keep(val)
		case "pure":
			s.Pure = r.parseBool(val)
		case "outputs":
			s.Outputs = r.keep(val)
		}
	}
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "variables":
			if r.once(&seen, 1) {
				s.Variables = r.variables(s.Variables)
			}
		case "userDefinedRule":
			s.Rules = append(s.Rules, Rule{})
			r.rule(&s.Rules[len(s.Rules)-1])
		case "operation":
			if r.once(&seen, 2) {
				r.operation(&s.Operation)
			}
		default:
			r.skip()
		}
	}
}

func (r *reader) operation(o *Operation) {
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		if string(name) == "type" {
			o.Type = r.intern(val)
		}
	}
	for name, ok := r.child(); ok; name, ok = r.child() {
		if string(name) != "param" {
			r.skip()
			continue
		}
		o.Params = append(o.Params, Param{})
		p := &o.Params[len(o.Params)-1]
		r.nameAttr(&p.Name)
		p.Value = r.keep(r.text())
	}
}

func (r *reader) response(p *Response) {
	r.root("dataGridResponse")
	ns := rootSpace{prefix: r.s.prefix}
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		ns.declare(r, r.s.prefix, name, val)
	}
	p.XMLName = ns.name(r, "dataGridResponse")
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "requestAcknowledgement":
			if r.once(&seen, 1) {
				p.Ack = new(Ack)
				r.ack(p.Ack)
			}
		case "flowStatus":
			if r.once(&seen, 2) {
				p.Status = new(FlowStatus)
				r.flowStatus(p.Status)
			}
		case "error":
			p.Error = r.str(&seen, 4)
		default:
			r.skip()
		}
	}
}

func (r *reader) ack(a *Ack) {
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "id":
			a.ID = r.str(&seen, 1)
		case "status":
			if r.once(&seen, 2) {
				a.Status = r.intern(r.text())
			}
		case "valid":
			a.Valid = r.flag(&seen, 4)
		case "message":
			a.Message = r.str(&seen, 8)
		default:
			r.skip()
		}
	}
}

func (r *reader) flowStatus(s *FlowStatus) {
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		switch string(name) {
		case "id":
			s.ID = r.keep(val)
		case "name":
			s.Name = r.keep(val)
		case "kind":
			s.Kind = r.intern(val)
		case "state":
			s.State = r.intern(val)
		case "started":
			s.Started = r.keep(val)
		case "finished":
			s.Finished = r.keep(val)
		case "delegated":
			s.Delegated = r.keep(val)
		}
	}
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "error":
			s.Error = r.str(&seen, 1)
		case "status":
			s.Children = append(s.Children, FlowStatus{})
			r.flowStatus(&s.Children[len(s.Children)-1])
		default:
			r.skip()
		}
	}
}

// The own methods move every value a parse lent from the document into
// the values string, the last step of a parse: one per type of the
// schema that holds strings, each string field in turn. A field the
// reader sets and these miss would keep the document's bytes;
// TestParseKeepsNoDocumentBytes overwrites every document after its
// parse to catch one.

func (r *reader) ownRequest(q *Request) {
	r.owning()
	r.own(&q.XMLName.Space)
	r.own(&q.Route)
	r.own(&q.Token)
	r.own(&q.Metadata.CreatedBy)
	r.own(&q.Metadata.CreatedAt)
	r.own(&q.Metadata.Description)
	r.own(&q.User.Name)
	r.own(&q.User.VO)
	if q.Flow != nil {
		r.ownFlow(q.Flow)
	}
	if q.StatusQuery != nil {
		r.own(&q.StatusQuery.ID)
	}
}

func (r *reader) ownFlow(f *Flow) {
	r.own(&f.Name)
	r.ownVariables(f.Variables)
	l := &f.Logic
	r.own((*string)(&l.Control))
	r.own(&l.Condition)
	if it := l.Iterate; it != nil {
		r.own(&it.Var)
		r.own(&it.In)
		if q := it.Query; q != nil {
			r.own(&q.Scope)
			for i := range q.Conditions {
				c := &q.Conditions[i]
				r.own(&c.Attr)
				r.own(&c.Op)
				r.own(&c.Value)
			}
		}
	}
	r.ownRules(l.Rules)
	for i := range f.Flows {
		r.ownFlow(&f.Flows[i])
	}
	for i := range f.Steps {
		s := &f.Steps[i]
		r.own(&s.Name)
		r.own(&s.OnError)
		r.own(&s.Backoff)
		r.own(&s.MaxBackoff)
		r.own(&s.Timeout)
		r.own(&s.Outputs)
		r.ownVariables(s.Variables)
		r.ownRules(s.Rules)
		r.ownOperation(&s.Operation)
	}
}

func (r *reader) ownVariables(vs []Variable) {
	for i := range vs {
		r.own(&vs[i].Name)
		r.own(&vs[i].Value)
	}
}

func (r *reader) ownRules(rules []Rule) {
	for i := range rules {
		u := &rules[i]
		r.own(&u.Name)
		r.own(&u.Condition)
		for j := range u.Actions {
			r.own(&u.Actions[j].Name)
			if o := u.Actions[j].Operation; o != nil {
				r.ownOperation(o)
			}
		}
	}
}

func (r *reader) ownOperation(o *Operation) {
	r.own(&o.Type)
	for i := range o.Params {
		r.own(&o.Params[i].Name)
		r.own(&o.Params[i].Value)
	}
}

func (r *reader) ownResponse(p *Response) {
	r.owning()
	r.own(&p.XMLName.Space)
	r.own(&p.Error)
	if a := p.Ack; a != nil {
		r.own(&a.ID)
		r.own(&a.Status)
		r.own(&a.Message)
	}
	if p.Status != nil {
		r.ownStatus(p.Status)
	}
}

func (r *reader) ownStatus(s *FlowStatus) {
	r.own(&s.ID)
	r.own(&s.Name)
	r.own(&s.Kind)
	r.own(&s.State)
	r.own(&s.Started)
	r.own(&s.Finished)
	r.own(&s.Delegated)
	r.own(&s.Error)
	for i := range s.Children {
		r.ownStatus(&s.Children[i])
	}
}
