package dgl

import (
	"bytes"
	"encoding/xml"
	"strconv"
)

// reader builds DGL documents from a scanner: one method per element
// type of the schema, each switching on the local names of attributes
// and child elements and skipping what it does not know. Every value is
// copied out of the document on its own, so a Request that is kept does
// not keep the markup it came in; values from closed sets come back as
// the package's constants. The first error sticks: every method is a
// no-op after it.
type reader struct {
	s   scanner
	err error
	acc []byte // character data that came in several pieces
}

func (r *reader) fail(kind errKind, format string, args ...any) {
	if r.err == nil {
		r.err = r.s.fail(kind, r.s.pos, format, args...)
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
			r.fail(errSyntax, "no root element")
		case tok == tokStart:
			if string(r.s.name) != want {
				r.fail(errSyntax, "expected element <%s> but have <%s>", want, r.s.name)
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
			*dst = string(val)
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
		r.fail(errRepeated, "element <%s> appears more than once in its parent", r.s.name)
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
	return string(r.text())
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
	r.fail(errSyntax, "%q is not a boolean", b)
	return false
}

func (r *reader) parseInt(b []byte) int {
	if len(b) == 0 || r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, strconv.IntSize)
	if err != nil {
		r.fail(errSyntax, "%q is not an integer", b)
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
// of a closed set, a copy otherwise.
func intern(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	return string(b)
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
func (n *rootSpace) declare(prefix, name, val []byte) {
	if string(prefix) == "xmlns" && bytes.Equal(name, n.prefix) || prefix == nil && n.prefix == nil && string(name) == "xmlns" {
		n.space, n.bound = string(val), true
	}
}

func (n *rootSpace) name(local string) xml.Name {
	switch {
	case string(n.prefix) == "xmlns":
		return xml.Name{Space: "xmlns", Local: local}
	case string(n.prefix) == "xml":
		return xml.Name{Space: xmlNamespaceURL, Local: local}
	case !n.bound:
		return xml.Name{Space: string(n.prefix), Local: local}
	}
	return xml.Name{Space: n.space, Local: local}
}

func (r *reader) request(q *Request) {
	r.root("dataGridRequest")
	ns := rootSpace{prefix: r.s.prefix}
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		ns.declare(r.s.prefix, name, val)
		switch string(name) {
		case "async":
			q.Async = r.parseBool(val)
		case "route":
			q.Route = string(val)
		case "token":
			q.Token = string(val)
		}
	}
	q.XMLName = ns.name("dataGridRequest")
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
		v.Value = string(r.text())
	}
	return vs
}

func (r *reader) flowLogic(l *FlowLogic) {
	var seen uint8
	for name, ok := r.child(); ok; name, ok = r.child() {
		switch string(name) {
		case "control":
			if r.once(&seen, 1) {
				l.Control = Control(intern(r.text()))
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
			it.Var = string(val)
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
			q.Scope = string(val)
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
				c.Attr = string(val)
			case "op":
				c.Op = string(val)
			case "value":
				c.Value = string(val)
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
			s.Name = string(val)
		case "onError":
			s.OnError = intern(val)
		case "retries":
			s.Retries = r.parseInt(val)
		case "backoff":
			s.Backoff = string(val)
		case "maxBackoff":
			s.MaxBackoff = string(val)
		case "timeout":
			s.Timeout = string(val)
		case "pure":
			s.Pure = r.parseBool(val)
		case "outputs":
			s.Outputs = string(val)
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
			o.Type = intern(val)
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
		p.Value = string(r.text())
	}
}

func (r *reader) response(p *Response) {
	r.root("dataGridResponse")
	ns := rootSpace{prefix: r.s.prefix}
	for name, val, ok := r.attr(); ok; name, val, ok = r.attr() {
		ns.declare(r.s.prefix, name, val)
	}
	p.XMLName = ns.name("dataGridResponse")
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
				a.Status = intern(r.text())
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
			s.ID = string(val)
		case "name":
			s.Name = string(val)
		case "kind":
			s.Kind = intern(val)
		case "state":
			s.State = intern(val)
		case "started":
			s.Started = string(val)
		case "finished":
			s.Finished = string(val)
		case "delegated":
			s.Delegated = string(val)
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
