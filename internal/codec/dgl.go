package codec

import "datagridflow/internal/dgl"

// Binary codecs for DGL documents — the payloads of KindDGL frames and
// the per-item bodies inside batch envelopes. Replacing encoding/xml on
// the submit path is where most of the wire win comes from: an XML
// round trip (MarshalIndent + Unmarshal) costs an order of magnitude
// more than these field loops, and the string table collapses the
// repeated names (step names, variable names, operation types) a real
// flow document is mostly made of.
//
// Field numbers are frozen per docs/CODEC.md: new fields append, old
// numbers are never reused, decoders skip what they do not know.

// Request field numbers (MsgRequest).
const (
	reqAsync = 1 // varint bool
	reqMeta  = 2 // msg {1: createdBy sym, 2: createdAt sym, 3: description bytes}
	reqUser  = 3 // msg {1: name sym, 2: vo sym}
	reqFlow  = 4 // msg (flow)
	reqQuery = 5 // msg {1: id sym, 2: detail bool}
	reqRoute = 6 // sym ("auto"/"local"), sharded-routing preference
	reqToken = 7 // bytes, tenant bearer token (high-entropy, never symed)
)

// Flow field numbers (nested).
const (
	flowName = 1 // sym
	flowVar  = 2 // repeated msg {1: name sym, 2: value bytes}
	flowLgc  = 3 // msg (flowLogic)
	flowSub  = 4 // repeated msg (flow)
	flowStep = 5 // repeated msg (step)
)

// FlowLogic field numbers.
const (
	lgcControl = 1 // sym
	lgcCond    = 2 // bytes
	lgcIterate = 3 // msg
	lgcRule    = 4 // repeated msg (rule)
)

// Iterate field numbers.
const (
	iterVar      = 1 // sym
	iterParallel = 2 // varint bool
	iterIn       = 3 // bytes
	iterTimes    = 4 // zigzag varint
	iterQuery    = 5 // msg (nsQuery)
)

// NSQuery field numbers.
const (
	nsqScope   = 1 // sym
	nsqObjects = 2 // varint bool
	nsqCond    = 3 // repeated msg {1: attr sym, 2: op sym, 3: value bytes}
)

// Rule field numbers.
const (
	ruleName   = 1 // sym
	ruleCond   = 2 // bytes
	ruleAction = 3 // repeated msg {1: name sym, 2: operation msg}
)

// Step field numbers.
const (
	stepName       = 1  // sym
	stepOnError    = 2  // sym
	stepRetries    = 3  // zigzag varint
	stepBackoff    = 4  // sym
	stepMaxBackoff = 5  // sym
	stepTimeout    = 6  // sym
	stepVar        = 7  // repeated msg {1: name sym, 2: value bytes}
	stepRule       = 8  // repeated msg (rule)
	stepOp         = 9  // msg (operation)
	stepPure       = 10 // varint bool
	stepOutputs    = 11 // sym
)

// Operation field numbers.
const (
	opType  = 1 // sym
	opParam = 2 // repeated msg {1: name sym, 2: value bytes}
)

// Response field numbers (MsgResponse).
const (
	respAck    = 1 // msg {1: id sym, 2: status sym, 3: valid bool, 4: message bytes}
	respStatus = 2 // msg (flowStatus)
	respErr    = 3 // bytes
)

// FlowStatus field numbers.
const (
	fsID        = 1 // sym
	fsName      = 2 // sym
	fsKind      = 3 // sym
	fsState     = 4 // sym
	fsStarted   = 5 // sym
	fsFinished  = 6 // sym
	fsDelegated = 7 // sym
	fsErr       = 8 // bytes
	fsChild     = 9 // repeated msg (flowStatus)
)

// AppendRequest encodes a dgl.Request as a standalone payload.
func AppendRequest(e *Encoder, req *dgl.Request) {
	e.Begin(MsgRequest)
	e.Bool(reqAsync, req.Async)
	if req.Metadata != (dgl.DocumentMeta{}) {
		e.Msg(reqMeta, func(e *Encoder) {
			e.Sym(1, req.Metadata.CreatedBy)
			e.Sym(2, req.Metadata.CreatedAt)
			e.Str(3, req.Metadata.Description)
		})
	}
	if req.User != (dgl.GridUser{}) {
		e.Msg(reqUser, func(e *Encoder) {
			e.Sym(1, req.User.Name)
			e.Sym(2, req.User.VO)
		})
	}
	if req.Flow != nil {
		e.Msg(reqFlow, func(e *Encoder) { flowFields(e, req.Flow) })
	}
	if req.StatusQuery != nil {
		e.Msg(reqQuery, func(e *Encoder) {
			e.Sym(1, req.StatusQuery.ID)
			e.Bool(2, req.StatusQuery.Detail)
		})
	}
	e.Sym(reqRoute, req.Route)
	e.Str(reqToken, req.Token)
}

func flowFields(e *Encoder, f *dgl.Flow) {
	e.Sym(flowName, f.Name)
	for i := range f.Variables {
		v := &f.Variables[i]
		e.Msg(flowVar, func(e *Encoder) {
			e.Sym(1, v.Name)
			e.Str(2, v.Value)
		})
	}
	e.Msg(flowLgc, func(e *Encoder) { logicFields(e, &f.Logic) })
	for i := range f.Flows {
		sub := &f.Flows[i]
		e.Msg(flowSub, func(e *Encoder) { flowFields(e, sub) })
	}
	for i := range f.Steps {
		st := &f.Steps[i]
		e.Msg(flowStep, func(e *Encoder) { stepFields(e, st) })
	}
}

func logicFields(e *Encoder, l *dgl.FlowLogic) {
	e.Sym(lgcControl, string(l.Control))
	e.Str(lgcCond, l.Condition)
	if l.Iterate != nil {
		it := l.Iterate
		e.Msg(lgcIterate, func(e *Encoder) {
			e.Sym(iterVar, it.Var)
			e.Bool(iterParallel, it.Parallel)
			e.Str(iterIn, it.In)
			if it.Times != 0 {
				e.Int(iterTimes, int64(it.Times))
			}
			if it.Query != nil {
				e.Msg(iterQuery, func(e *Encoder) { queryFields(e, it.Query) })
			}
		})
	}
	for i := range l.Rules {
		r := &l.Rules[i]
		e.Msg(lgcRule, func(e *Encoder) { ruleFields(e, r) })
	}
}

func queryFields(e *Encoder, q *dgl.NSQuery) {
	e.Sym(nsqScope, q.Scope)
	e.Bool(nsqObjects, q.ObjectsOnly)
	for i := range q.Conditions {
		c := &q.Conditions[i]
		e.Msg(nsqCond, func(e *Encoder) {
			e.Sym(1, c.Attr)
			e.Sym(2, c.Op)
			e.Str(3, c.Value)
		})
	}
}

func ruleFields(e *Encoder, r *dgl.Rule) {
	e.Sym(ruleName, r.Name)
	e.Str(ruleCond, r.Condition)
	for i := range r.Actions {
		a := &r.Actions[i]
		e.Msg(ruleAction, func(e *Encoder) {
			e.Sym(1, a.Name)
			if a.Operation != nil {
				e.Msg(2, func(e *Encoder) { opFields(e, a.Operation) })
			}
		})
	}
}

func stepFields(e *Encoder, st *dgl.Step) {
	e.Sym(stepName, st.Name)
	e.Sym(stepOnError, st.OnError)
	if st.Retries != 0 {
		e.Int(stepRetries, int64(st.Retries))
	}
	e.Sym(stepBackoff, st.Backoff)
	e.Sym(stepMaxBackoff, st.MaxBackoff)
	e.Sym(stepTimeout, st.Timeout)
	for i := range st.Variables {
		v := &st.Variables[i]
		e.Msg(stepVar, func(e *Encoder) {
			e.Sym(1, v.Name)
			e.Str(2, v.Value)
		})
	}
	for i := range st.Rules {
		r := &st.Rules[i]
		e.Msg(stepRule, func(e *Encoder) { ruleFields(e, r) })
	}
	e.Msg(stepOp, func(e *Encoder) { opFields(e, &st.Operation) })
	if st.Pure {
		e.Bool(stepPure, st.Pure)
	}
	e.Sym(stepOutputs, st.Outputs)
}

func opFields(e *Encoder, op *dgl.Operation) {
	e.Sym(opType, op.Type)
	for i := range op.Params {
		p := &op.Params[i]
		e.Msg(opParam, func(e *Encoder) {
			e.Sym(1, p.Name)
			e.Str(2, p.Value)
		})
	}
}

// RequestDoc encodes req as a request document: the MsgRequest payload
// as a string, the form lifecycle records store (Record.Request) and
// peer envelopes embed. XML stops at the client edge — every document
// the system writes for itself is this one.
func RequestDoc(req *dgl.Request) string {
	e := GetEncoder()
	AppendRequest(e, req)
	doc := string(e.Bytes())
	PutEncoder(e)
	return doc
}

// DecodeRequestDoc decodes a request document in either encoding,
// sniffed from its first byte: binary (RequestDoc, a binary client's
// frame) or XML (a text client's frame). It is the one decode point for
// every request read from a peer or a disk; like both decoders behind
// it, it does not validate — callers validate against the executing
// engine's operation registry. A binary document held in a string
// (Record.Request, an envelope's document field) is read where it lies:
// the request's strings are slices of it.
func DecodeRequestDoc[T []byte | string](doc T) (*dgl.Request, error) {
	if IsBinary(doc) {
		return decodeRequest(string(doc))
	}
	return dgl.DecodeRequest([]byte(doc))
}

// DecodeRequest decodes a MsgRequest payload.
func DecodeRequest(payload []byte) (*dgl.Request, error) {
	return decodeRequest(string(payload))
}

// decodeRequest decodes a MsgRequest payload held in a string, which
// backs every string of the result.
func decodeRequest(payload string) (*dgl.Request, error) {
	d, err := newStringDecoder(payload, MsgRequest)
	if err != nil {
		return nil, err
	}
	req := &dgl.Request{}
	for d.Next() {
		switch d.Field() {
		case reqAsync:
			req.Async = d.Bool()
		case reqMeta:
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						req.Metadata.CreatedBy = d.Sym()
					case 2:
						req.Metadata.CreatedAt = d.Sym()
					case 3:
						req.Metadata.Description = d.Str()
					default:
						d.Skip()
					}
				}
			})
		case reqUser:
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						req.User.Name = d.Sym()
					case 2:
						req.User.VO = d.Sym()
					default:
						d.Skip()
					}
				}
			})
		case reqFlow:
			f := &dgl.Flow{}
			d.Msg(func(d *Decoder) { decodeFlow(d, f) })
			req.Flow = f
		case reqQuery:
			q := &dgl.StatusQuery{}
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						q.ID = d.Sym()
					case 2:
						q.Detail = d.Bool()
					default:
						d.Skip()
					}
				}
			})
			req.StatusQuery = q
		case reqRoute:
			req.Route = d.Sym()
		case reqToken:
			req.Token = d.Str()
		default:
			d.Skip()
		}
	}
	return req, d.Err()
}

func decodeFlow(d *Decoder, f *dgl.Flow) {
	n := fieldCounts(*d)
	if n[flowVar] > 0 {
		f.Variables = make([]dgl.Variable, 0, n[flowVar])
	}
	if n[flowSub] > 0 {
		f.Flows = make([]dgl.Flow, 0, n[flowSub])
	}
	if n[flowStep] > 0 {
		f.Steps = make([]dgl.Step, 0, n[flowStep])
	}
	for d.Next() {
		switch d.Field() {
		case flowName:
			f.Name = d.Sym()
		case flowVar:
			var v dgl.Variable
			d.Msg(func(d *Decoder) { decodeVariable(d, &v) })
			f.Variables = append(f.Variables, v)
		case flowLgc:
			d.Msg(func(d *Decoder) { decodeLogic(d, &f.Logic) })
		case flowSub:
			var sub dgl.Flow
			d.Msg(func(d *Decoder) { decodeFlow(d, &sub) })
			f.Flows = append(f.Flows, sub)
		case flowStep:
			var st dgl.Step
			d.Msg(func(d *Decoder) { decodeStep(d, &st) })
			f.Steps = append(f.Steps, st)
		default:
			d.Skip()
		}
	}
}

// fieldCounts counts, on a copy of d, how often each field number below
// 16 occurs in the message d is inside, so that a repeated field's slice
// is sized once. The copy shares d's symbol table: what it appends lies
// past d's length, which d overwrites with its own definitions before it
// reads any of it.
func fieldCounts(d Decoder) (n [16]int) {
	for d.Next() {
		if f := d.Field(); f < len(n) {
			n[f]++
		}
		d.Skip()
	}
	return n
}

func decodeVariable(d *Decoder, v *dgl.Variable) {
	for d.Next() {
		switch d.Field() {
		case 1:
			v.Name = d.Sym()
		case 2:
			v.Value = d.Str()
		default:
			d.Skip()
		}
	}
}

func decodeLogic(d *Decoder, l *dgl.FlowLogic) {
	for d.Next() {
		switch d.Field() {
		case lgcControl:
			l.Control = dgl.Control(d.Sym())
		case lgcCond:
			l.Condition = d.Str()
		case lgcIterate:
			it := &dgl.Iterate{}
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case iterVar:
						it.Var = d.Sym()
					case iterParallel:
						it.Parallel = d.Bool()
					case iterIn:
						it.In = d.Str()
					case iterTimes:
						it.Times = int(d.Int())
					case iterQuery:
						q := &dgl.NSQuery{}
						d.Msg(func(d *Decoder) { decodeQuery(d, q) })
						it.Query = q
					default:
						d.Skip()
					}
				}
			})
			l.Iterate = it
		case lgcRule:
			var r dgl.Rule
			d.Msg(func(d *Decoder) { decodeRule(d, &r) })
			l.Rules = append(l.Rules, r)
		default:
			d.Skip()
		}
	}
}

func decodeQuery(d *Decoder, q *dgl.NSQuery) {
	for d.Next() {
		switch d.Field() {
		case nsqScope:
			q.Scope = d.Sym()
		case nsqObjects:
			q.ObjectsOnly = d.Bool()
		case nsqCond:
			var c dgl.QueryCond
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						c.Attr = d.Sym()
					case 2:
						c.Op = d.Sym()
					case 3:
						c.Value = d.Str()
					default:
						d.Skip()
					}
				}
			})
			q.Conditions = append(q.Conditions, c)
		default:
			d.Skip()
		}
	}
}

func decodeRule(d *Decoder, r *dgl.Rule) {
	for d.Next() {
		switch d.Field() {
		case ruleName:
			r.Name = d.Sym()
		case ruleCond:
			r.Condition = d.Str()
		case ruleAction:
			var a dgl.Action
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						a.Name = d.Sym()
					case 2:
						op := &dgl.Operation{}
						d.Msg(func(d *Decoder) { decodeOp(d, op) })
						a.Operation = op
					default:
						d.Skip()
					}
				}
			})
			r.Actions = append(r.Actions, a)
		default:
			d.Skip()
		}
	}
}

func decodeStep(d *Decoder, st *dgl.Step) {
	for d.Next() {
		switch d.Field() {
		case stepName:
			st.Name = d.Sym()
		case stepOnError:
			st.OnError = d.Sym()
		case stepRetries:
			st.Retries = int(d.Int())
		case stepBackoff:
			st.Backoff = d.Sym()
		case stepMaxBackoff:
			st.MaxBackoff = d.Sym()
		case stepTimeout:
			st.Timeout = d.Sym()
		case stepVar:
			var v dgl.Variable
			d.Msg(func(d *Decoder) { decodeVariable(d, &v) })
			st.Variables = append(st.Variables, v)
		case stepRule:
			var r dgl.Rule
			d.Msg(func(d *Decoder) { decodeRule(d, &r) })
			st.Rules = append(st.Rules, r)
		case stepOp:
			d.Msg(func(d *Decoder) { decodeOp(d, &st.Operation) })
		case stepPure:
			st.Pure = d.Bool()
		case stepOutputs:
			st.Outputs = d.Sym()
		default:
			d.Skip()
		}
	}
}

func decodeOp(d *Decoder, op *dgl.Operation) {
	if n := fieldCounts(*d)[opParam]; n > 0 {
		op.Params = make([]dgl.Param, 0, n)
	}
	for d.Next() {
		switch d.Field() {
		case opType:
			op.Type = d.Sym()
		case opParam:
			var p dgl.Param
			d.Msg(func(d *Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						p.Name = d.Sym()
					case 2:
						p.Value = d.Str()
					default:
						d.Skip()
					}
				}
			})
			op.Params = append(op.Params, p)
		default:
			d.Skip()
		}
	}
}

// AppendResponse encodes a dgl.Response as a standalone payload.
func AppendResponse(e *Encoder, resp *dgl.Response) {
	e.Begin(MsgResponse)
	if resp.Ack != nil {
		ackField(e, resp.Ack)
	}
	if resp.Status != nil {
		st := resp.Status
		e.Msg(respStatus, func(e *Encoder) { statusFields(e, st) })
	}
	e.Str(respErr, resp.Error)
}

func ackField(e *Encoder, a *dgl.Ack) {
	e.Msg(respAck, func(e *Encoder) {
		e.Sym(1, a.ID)
		e.Sym(2, a.Status)
		e.Bool(3, a.Valid)
		e.Str(4, a.Message)
	})
}

func statusFields(e *Encoder, st *dgl.FlowStatus) {
	n := st.Node()
	nodeFields(e, &n)
	for i := range st.Children {
		c := &st.Children[i]
		e.Msg(fsChild, func(e *Encoder) { statusFields(e, c) })
	}
}

// nodeFields writes a status node's own fields; its children follow.
func nodeFields(e *Encoder, n *dgl.StatusNode) {
	e.Sym(fsID, n.ID)
	e.Sym(fsName, n.Name)
	e.Sym(fsKind, n.Kind)
	e.Sym(fsState, n.State)
	timeField(e, fsStarted, n.Started)
	timeField(e, fsFinished, n.Finished)
	e.Sym(fsDelegated, n.Delegated)
	e.Str(fsErr, n.Error)
}

// timeField writes a status time as the symbol its text is. A time.Time
// is rendered into scratch, so one the payload already holds costs
// nothing.
func timeField(e *Encoder, num int, t dgl.StatusTime) {
	if t.Text != "" {
		e.Sym(num, t.Text)
		return
	}
	var scratch [40]byte
	e.SymBytes(num, t.Append(scratch[:0]))
}

// ResponseWriter writes a MsgResponse payload piece by piece — Begin,
// an acknowledgement and a status tree if there are any (it is the
// dgl.StatusSink that writes the binary encoding), End — producing byte
// for byte what AppendResponse produces for the Response holding the
// same. The zero value is ready, and reusable after End.
type ResponseWriter struct {
	e     *Encoder
	marks []int // of the status messages still open
}

// Begin starts a payload in e.
func (w *ResponseWriter) Begin(e *Encoder) {
	e.Begin(MsgResponse)
	w.e, w.marks = e, w.marks[:0]
}

// Ack writes the acknowledgement.
func (w *ResponseWriter) Ack(a dgl.Ack) { ackField(w.e, &a) }

// Open implements dgl.StatusSink.
func (w *ResponseWriter) Open(n dgl.StatusNode) {
	num := fsChild
	if len(w.marks) == 0 {
		num = respStatus
	}
	w.e.tag(num, wtMsg)
	w.marks = append(w.marks, w.e.reserve())
	nodeFields(w.e, &n)
}

// Close implements dgl.StatusSink.
func (w *ResponseWriter) Close() {
	last := len(w.marks) - 1
	w.e.patch(w.marks[last])
	w.marks = w.marks[:last]
}

// End writes the error, if any, which completes the payload.
func (w *ResponseWriter) End(errText string) {
	w.e.Str(respErr, errText)
	w.e = nil
}

// DecodeResponse decodes a MsgResponse payload.
func DecodeResponse(payload []byte) (*dgl.Response, error) {
	d, err := NewDecoder(payload, MsgResponse)
	if err != nil {
		return nil, err
	}
	resp := &dgl.Response{}
	for d.Next() {
		switch d.Field() {
		case respAck:
			a := &dgl.Ack{}
			d.Msg(func(d *Decoder) { decodeAck(d, a) })
			resp.Ack = a
		case respStatus:
			st := &dgl.FlowStatus{}
			d.Msg(func(d *Decoder) { decodeStatus(d, st) })
			resp.Status = st
		case respErr:
			resp.Error = d.Str()
		default:
			d.Skip()
		}
	}
	return resp, d.Err()
}

func decodeAck(d *Decoder, a *dgl.Ack) {
	for d.Next() {
		switch d.Field() {
		case 1:
			a.ID = d.Sym()
		case 2:
			a.Status = d.Sym()
		case 3:
			a.Valid = d.Bool()
		case 4:
			a.Message = d.Str()
		default:
			d.Skip()
		}
	}
}

func decodeStatus(d *Decoder, st *dgl.FlowStatus) {
	for d.Next() {
		switch d.Field() {
		case fsID:
			st.ID = d.Sym()
		case fsName:
			st.Name = d.Sym()
		case fsKind:
			st.Kind = d.Sym()
		case fsState:
			st.State = d.Sym()
		case fsStarted:
			st.Started = d.Sym()
		case fsFinished:
			st.Finished = d.Sym()
		case fsDelegated:
			st.Delegated = d.Sym()
		case fsErr:
			st.Error = d.Str()
		case fsChild:
			var c dgl.FlowStatus
			d.Msg(func(d *Decoder) { decodeStatus(d, &c) })
			st.Children = append(st.Children, c)
		default:
			d.Skip()
		}
	}
}

// ResponseXML appends to dst the XML document of the response a
// MsgResponse payload holds: what DecodeResponse and dgl.AppendXML
// produce between them, written through w as the payload is read — no
// dgl.Response in between — when its fields come in the order the
// encoder writes them. Any other order (docs/CODEC.md allows it) takes
// the way through DecodeResponse.
func ResponseXML(w *dgl.ResponseWriter, dst, payload []byte) ([]byte, error) {
	d, err := NewDecoder(payload, MsgResponse)
	if err != nil {
		return dst, err
	}
	w.Begin(dst)
	var errText string
	streamed, last := true, 0
	for streamed && d.Next() {
		f := d.Field()
		if f >= respAck && f <= respErr {
			if streamed = f > last; !streamed {
				break
			}
			last = f
		}
		switch f {
		case respAck:
			var a dgl.Ack
			end := d.MsgEnter()
			decodeAck(&d, &a)
			d.MsgExit(end)
			w.Ack(a)
		case respStatus:
			end := d.MsgEnter()
			streamed = walkStatus(&d, w)
			d.MsgExit(end)
		case respErr:
			errText = d.Str()
		default:
			d.Skip()
		}
	}
	if d.Err() != nil {
		return dst, d.Err()
	}
	if !streamed {
		resp, err := DecodeResponse(payload)
		if err != nil {
			return dst, err
		}
		return dgl.AppendXML(dst, resp)
	}
	return w.End(errText), nil
}

// walkStatus streams the status message d has entered into sink: the
// node once its own fields are read, then each child as it comes. It
// reports false, with the stream broken off, when one of the node's own
// fields follows a child — an order a decoder accepts and a stream
// cannot serve. A malformed message ends the walk; d.Err has the reason.
func walkStatus(d *Decoder, sink dgl.StatusSink) bool {
	var n dgl.StatusNode
	opened := false
	for d.Next() {
		f := d.Field()
		if opened && f >= fsID && f <= fsErr {
			return false
		}
		switch f {
		case fsID:
			n.ID = d.Sym()
		case fsName:
			n.Name = d.Sym()
		case fsKind:
			n.Kind = d.Sym()
		case fsState:
			n.State = d.Sym()
		case fsStarted:
			n.Started.Text = d.Sym()
		case fsFinished:
			n.Finished.Text = d.Sym()
		case fsDelegated:
			n.Delegated = d.Sym()
		case fsErr:
			n.Error = d.Str()
		case fsChild:
			if !opened {
				sink.Open(n)
				opened = true
			}
			end := d.MsgEnter()
			ok := walkStatus(d, sink)
			d.MsgExit(end)
			if !ok {
				return false
			}
		default:
			d.Skip()
		}
	}
	if !opened {
		sink.Open(n)
	}
	sink.Close()
	return true
}
