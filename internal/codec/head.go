package codec

import "datagridflow/internal/dgl"

// RequestHead is what placing a request needs of it: who sends it, with
// which token, how it asks to be routed, and whether it carries a flow
// (and the flow's name). A sharded peer reads it with
// ReadRequestHead and routes a binary document onward without decoding
// it; only the peer that runs the flow decodes it.
type RequestHead struct {
	User, Token, Route string
	// Flow is the flow's name; HasFlow reports whether there is a flow.
	Flow    string
	HasFlow bool
}

// RequestHeadOf is the head of a decoded request.
func RequestHeadOf(req *dgl.Request) RequestHead {
	h := RequestHead{User: req.User.Name, Token: req.Token, Route: req.Route,
		HasFlow: req.Flow != nil}
	if req.Flow != nil {
		h.Flow = req.Flow.Name
	}
	return h
}

// ReadRequestHead reads the head of a binary request document held in a
// string — RequestHeadOf of its decode, for every document that decodes
// — with a walk over its fields that allocates nothing: the head's
// strings are slices of doc. A symbol may refer back to one defined
// anywhere before it, inside the flow too, so the walk enters every
// nested message a decode enters, counting the symbols defined there; a
// head field that is such a reference is found by a second walk.
func ReadRequestHead(doc string) (RequestHead, error) {
	var w headWalk
	h, err := w.read(doc)
	if err != nil || w.user.ref|w.route.ref|w.flow.ref == 0 {
		return h, err
	}
	// A second pass resolves the references: the walk is the same, and
	// a definition whose number a field refers to leaves its span there.
	w.defs, w.resolving = 0, true
	if _, err := w.read(doc); err != nil {
		return h, err
	}
	h.User, h.Route, h.Flow = w.user.in(doc), w.route.in(doc), w.flow.in(doc)
	return h, nil
}

// headWalk is the state of one walk over a request document.
type headWalk struct {
	defs              int // symbols defined so far, in document order
	user, route, flow symField
	resolving         bool // the second pass: the fields are read already
}

// symField is a symbol-valued head field: where its text lies, or the
// number of the definition it refers back to until a second pass finds
// that definition's span.
type symField struct {
	sp  span
	ref int
}

func (f symField) in(doc string) string { return doc[f.sp.off:f.sp.end] }

// read walks doc once, filling what the head holds directly.
func (w *headWalk) read(doc string) (RequestHead, error) {
	var h RequestHead
	d, err := newStringDecoder(doc, MsgRequest)
	if err != nil {
		return h, err
	}
	defer d.Release()
	for d.Next() {
		switch d.Field() {
		case reqUser:
			end := d.MsgEnter()
			for d.Next() {
				if d.Field() == 1 {
					w.sym(&d, &w.user)
				} else {
					w.skip(&d, leafMsg)
				}
			}
			d.MsgExit(end)
		case reqFlow:
			h.HasFlow = true
			if !w.resolving {
				w.flow = symField{} // a second flow replaces the first, name and all
			}
			end := d.MsgEnter()
			for d.Next() {
				if d.Field() == flowName {
					w.sym(&d, &w.flow)
				} else {
					w.skip(&d, flowMsg)
				}
			}
			d.MsgExit(end)
		case reqRoute:
			w.sym(&d, &w.route)
		case reqToken:
			h.Token = d.Str()
		default:
			w.skip(&d, requestMsg)
		}
	}
	h.User, h.Route, h.Flow = w.user.in(doc), w.route.in(doc), w.flow.in(doc)
	return h, d.Err()
}

// sym reads the current field as a symbol, as Decoder.Sym does, into f
// (nil: only counted) unless resolving, and leaves a definition's span
// in every field that refers to it.
func (w *headWalk) sym(d *Decoder, f *symField) {
	if d.wt != wtSym {
		d.fail("field is not a symbol")
		return
	}
	ref := d.uvarintVal()
	if d.err != nil {
		return
	}
	if ref > uint64(w.defs) {
		d.fail("symbol reference out of range")
		return
	}
	if f == nil || w.resolving {
		f = &symField{} // not a head field, or one read already
	}
	if ref > 0 {
		*f = symField{ref: int(ref)}
		return
	}
	sp := d.spanVal()
	if d.err != nil {
		return
	}
	w.defs++
	for _, g := range [...]*symField{&w.user, &w.route, &w.flow} {
		if g.ref == w.defs {
			g.sp = sp
		}
	}
	*f = symField{sp: sp}
}

// msgKind names a message of the request schema, for the walk to know
// which of its fields are messages a decode enters.
type msgKind uint8

const (
	leafMsg msgKind = iota // no nested messages: user, meta, query, variable, parameter, query condition
	requestMsg
	flowMsg
	logicMsg
	iterateMsg
	nsQueryMsg
	ruleMsg
	actionMsg
	stepMsg
	opMsg
)

// nested reports what message field num of a kind message holds, if it
// is one a decode enters.
func nested(kind msgKind, num int) (msgKind, bool) {
	switch {
	case kind == requestMsg && (num == reqMeta || num == reqUser || num == reqQuery):
		return leafMsg, true
	case kind == requestMsg && num == reqFlow, kind == flowMsg && num == flowSub:
		return flowMsg, true
	case kind == flowMsg && num == flowVar, kind == stepMsg && num == stepVar,
		kind == nsQueryMsg && num == nsqCond, kind == opMsg && num == opParam:
		return leafMsg, true
	case kind == flowMsg && num == flowLgc:
		return logicMsg, true
	case kind == flowMsg && num == flowStep:
		return stepMsg, true
	case kind == logicMsg && num == lgcIterate:
		return iterateMsg, true
	case kind == logicMsg && num == lgcRule, kind == stepMsg && num == stepRule:
		return ruleMsg, true
	case kind == iterateMsg && num == iterQuery:
		return nsQueryMsg, true
	case kind == ruleMsg && num == ruleAction:
		return actionMsg, true
	case kind == actionMsg && num == 2, kind == stepMsg && num == stepOp:
		return opMsg, true
	}
	return leafMsg, false
}

// skip passes over the current field of a kind message, counting the
// symbols it defines where a decode would: in its symbol fields and in
// the messages a decode enters, but not in a message it skips whole.
func (w *headWalk) skip(d *Decoder, kind msgKind) {
	if sub, ok := nested(kind, d.Field()); ok {
		end := d.MsgEnter()
		for d.Next() {
			w.skip(d, sub)
		}
		d.MsgExit(end)
		return
	}
	if d.wt == wtSym {
		w.sym(d, nil)
		return
	}
	d.Skip()
}
