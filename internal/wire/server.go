package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/fault"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/store"
	"datagridflow/internal/tenant"
)

// muxConnWindow bounds the frames one multiplexed connection may have
// outstanding (decoded or queued for admission) before the server stops
// reading from it — per-connection backpressure, distinct from the
// global admission pool.
const muxConnWindow = 256

// kindName labels metrics by frame kind.
func kindName(kind byte) string {
	switch kind {
	case KindDGL:
		return "dgl"
	case KindControl:
		return "control"
	case KindBatch:
		return "batch"
	case KindRoute:
		return "route"
	case KindReplicate:
		return "replicate"
	default:
		return "unknown"
	}
}

// ServerConfig tunes a wire server.
type ServerConfig struct {
	// MaxInflight bounds concurrently executing DGL/batch requests
	// across all connections (the worker pool the admission scheduler
	// feeds). Default 64. Control verbs bypass admission: pause and
	// cancel must work on a saturated server.
	MaxInflight int
	// MaxUserQueue bounds waiters queued per user beyond the pool;
	// requests past it are rejected with a capacity-class error.
	// Default 256.
	MaxUserQueue int
	// DelegateGrace bounds how long a sync run the route hop serves — a
	// delegation or a routed submit — waits for its execution to unwind
	// once the hop cancelled it (the sending peer's connection gone, or
	// the server closing) before the handler returns: the
	// deterministic-shutdown budget for runs other peers wait on.
	// Default 3s.
	DelegateGrace time.Duration
	// HeartbeatInterval paces a Peer's membership loop (Peer.Beat).
	// Default 5s; keep it well under the registry's TTL.
	HeartbeatInterval time.Duration
}

// Server exposes a matrix engine over the framed TCP protocol. Frames
// carry request ids: the server dispatches each to a bounded worker
// pool behind a per-user fair admission scheduler
// (internal/scheduler.Admission), and responses are written as they
// complete, in any order.
type Server struct {
	engine *matrix.Engine
	cfg    ServerConfig
	adm    *scheduler.Admission
	// statusRouter, when set (by a Peer, before Listen), places DGL
	// status queries and the verbs that act on one execution on the peer
	// network: it returns the pooled client of
	// the peer that owns the id, or nil when this server answers from its
	// own engine. Plain servers leave it nil and always answer locally.
	statusRouter func(id string) (*Client, error)
	// submitRouter, when set (by a sharded Peer, before Listen), owns
	// flow submissions entirely: it routes to the shard owner, whose
	// reply it relays, or accepts locally, and writes the reply into rp
	// in the request's encoding. Plain servers leave it nil and submit to
	// the engine directly.
	submitRouter func(sub *submission, rp *reply)
	// routeLease and routeServed, when set (by a sharded Peer, before
	// Listen), are its part of a shard placement's route hop: routeLease
	// returns the NotOwner refusal when this peer no longer holds the
	// shard's lease, and routeServed tracks a placement the hop ran.
	// Unsharded servers leave them nil and refuse shard placements.
	routeLease  func(shard int) (refusal RouteResult, held bool)
	routeServed func(id string, shard int, async bool)
	// ownerResolver, when set (by a sharded Peer, before Listen),
	// services the "owner" control verb.
	ownerResolver func(id string) (*OwnerInfo, error)
	// replHandler, when set (by a replicating Peer, before Listen),
	// services KindReplicate frames — applying an owner's record stream
	// into this peer's replica stores.
	replHandler func(f Replicate) ReplicateResult
	// replResolver, when set (by a replicating Peer, before Listen),
	// services the "repl" control verb.
	replResolver func() *ReplInfo
	// Tenancy plane (docs/TENANCY.md), attached before Listen via
	// SetTenancy: auth verifies bearer tokens, tenants holds quotas and
	// scheduling weights, requireAuth rejects untokened submissions.
	// All nil/false means tenancy off: identities are claimed, not
	// verified.
	auth        *tenant.Authority
	tenants     *tenant.Registry
	requireAuth bool

	// ln tracks the listener, the connections and every goroutine
	// serving a frame, which Close waits for.
	ln listening

	mu          sync.Mutex // guards the fault plan
	fault       *fault.Injector
	faultTarget string
}

// NewServer wraps an engine with default configuration.
func NewServer(engine *matrix.Engine) *Server {
	return NewServerConfig(engine, ServerConfig{})
}

// NewServerConfig wraps an engine with explicit configuration.
func NewServerConfig(engine *matrix.Engine, cfg ServerConfig) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxUserQueue <= 0 {
		cfg.MaxUserQueue = 256
	}
	if cfg.DelegateGrace <= 0 {
		cfg.DelegateGrace = 3 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	return &Server{
		engine: engine,
		cfg:    cfg,
		adm:    scheduler.NewAdmission(cfg.MaxInflight, cfg.MaxUserQueue, engine.Obs()),
	}
}

// Engine returns the wrapped engine.
func (s *Server) Engine() *matrix.Engine { return s.engine }

// SetTenancy attaches the tenancy plane (docs/TENANCY.md) — call before
// Listen. auth, when non-nil, verifies bearer tokens on hello and every
// submit/batch/route payload; reg, when non-nil, supplies
// per-tenant quotas and the admission scheduler's weights and is also
// installed as the engine's flow governor (flows-in-flight and
// store-byte enforcement); require rejects untokened submissions
// instead of admitting them under the anonymous tenant.
func (s *Server) SetTenancy(auth *tenant.Authority, reg *tenant.Registry, require bool) {
	s.auth, s.tenants, s.requireAuth = auth, reg, require
	if reg != nil {
		s.adm.SetWeightFn(reg.Weight)
		s.engine.SetGovernor(reg)
	}
}

// tenancyOn reports whether any part of the tenancy plane is attached.
func (s *Server) tenancyOn() bool { return s.auth != nil || s.tenants != nil }

// TenantRegistry returns the quota registry attached with SetTenancy,
// or nil on an untenanted server. The federation layer consults it for
// delegation-slot quotas at the offer point.
func (s *Server) TenantRegistry() *tenant.Registry { return s.tenants }

// resolveTenant derives the accounting identity of a request from its
// bearer token and claimed user name. With an authority attached, a
// present token must verify (forged or expired tokens are always
// rejected, tenant_auth_failures_total) and must agree with a non-empty
// claimed user; an absent token falls back to the claimed identity —
// anonymous-but-admitted, unless the server requires auth. Without an
// authority, tokens are ignored and the claimed identity stands. The
// empty identity canonicalizes to the reserved anonymous tenant.
func (s *Server) resolveTenant(token, user string) (string, error) {
	if s.auth == nil {
		return tenant.Canonical(user), nil
	}
	if token == "" {
		if s.requireAuth {
			s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
			return "", fmt.Errorf("%w: server requires a tenant token", dgferr.ErrAuth)
		}
		return tenant.Canonical(user), nil
	}
	id, err := s.auth.Verify(token)
	if err != nil {
		s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
		return "", err
	}
	if user != "" && user != id {
		s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
		return "", fmt.Errorf("%w: token tenant %q does not match user %q", dgferr.ErrAuth, id, user)
	}
	return id, nil
}

// Admission returns the server's admission scheduler.
func (s *Server) Admission() *scheduler.Admission { return s.adm }

// SetFault attaches a fault-injection plan to this server under the
// given target name: PeerCrash and ConnDrop events against that target
// sever connections mid-session (a simulated matrixd crash), Latency
// events delay frame handling. Pass nil to detach.
func (s *Server) SetFault(in *fault.Injector, target string) {
	if in != nil {
		in.SetObs(s.engine.Obs())
	}
	s.mu.Lock()
	s.fault, s.faultTarget = in, target
	s.mu.Unlock()
}

// connFault evaluates the server's fault plan for one inbound frame,
// charging induced latency to the clock; drop severs the connection.
func (s *Server) connFault() (drop bool) {
	s.mu.Lock()
	in, target := s.fault, s.faultTarget
	s.mu.Unlock()
	if in == nil {
		return false
	}
	d, lat := in.ConnFault(target)
	if lat > 0 {
		s.engine.Clock().Sleep(lat)
	}
	return d
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address. Serving happens on background
// goroutines; call Close to stop.
func (s *Server) Listen(addr string) (string, error) { return s.ln.listen(addr, s.serveConn) }

// muxSession is one connection: the read loop hands each frame to a
// worker of the session's set.
type muxSession struct {
	s      *Server
	ctx    context.Context
	fc     *frameConn
	remote string
	// jobs is unbuffered: a send succeeds only into a worker that is
	// waiting, which is how the read loop learns that none is.
	jobs chan frame
}

// serveConn runs one connection: each frame goes to a handler of the
// connection's worker set — grown on demand, bounded per connection by
// muxConnWindow and globally by the admission scheduler — and responses
// are written through the connection's frame writer as they complete,
// correlated by request id.
func (s *Server) serveConn(conn net.Conn) {
	o := s.engine.Obs()
	o.Counter("wire_connections_total").Inc()
	o.Gauge("wire_connections_open").Add(1)
	defer o.Gauge("wire_connections_open").Add(-1)
	// ctx covers admission waits on this connection; cancelled when the
	// read loop exits (connection gone or server closing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := &muxSession{s: s, ctx: ctx, fc: newFrameConn(conn, o.Counter("wire_flushes_total")),
		remote: conn.RemoteAddr().String(), jobs: make(chan frame)}
	defer close(ms.jobs) // the workers finish what they hold and exit
	workers := 0
	for {
		fr, err := ms.fc.r.next()
		if err != nil {
			return // EOF or broken connection
		}
		k := kindName(fr.kind)
		o.Counter("wire_frames_in_total", "kind", k).Inc()
		o.Counter("wire_bytes_in_total").Add(int64(len(fr.payload)) + headerLen)
		if s.connFault() {
			return // injected crash/drop: sever without a response
		}
		if k == "unknown" {
			o.EndSpan("request", k, ms.remote, obs.Attr{Key: "outcome", Value: "protocol-violation"})
			return // protocol violation: sever
		}
		select {
		case ms.jobs <- fr:
		default:
			if workers < muxConnWindow {
				workers++
				s.ln.wg.Add(1)
				go ms.work(fr)
			} else {
				ms.jobs <- fr // per-connection backpressure
			}
		}
	}
}

// work handles frames until the session ends, starting with first.
func (ms *muxSession) work(first frame) {
	defer ms.s.ln.wg.Done()
	rp := new(reply)
	for fr, ok := first, true; ok; fr, ok = <-ms.jobs {
		ms.handle(fr, rp)
	}
}

// handle services one pipelined frame and writes its response. The
// frame's payload goes back to the pool once the response is written.
func (ms *muxSession) handle(fr frame, rp *reply) {
	s, remote := ms.s, ms.remote
	o := s.engine.Obs()
	k := kindName(fr.kind)
	started := s.engine.Clock().Now()
	o.StartSpan("request", k, remote)
	s.handleFrame(ms.ctx, fr.kind, fr.payload, rp)
	o.Histogram("wire_request_seconds", "type", k).Observe(s.engine.Clock().Now().Sub(started).Seconds())
	o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "ok"})
	err := ms.fc.w.write(fr.kind, fr.id, rp.bytes())
	sent := len(rp.bytes())
	rp.release()
	fr.release()
	if err != nil {
		return // connection gone; the read loop will notice too
	}
	o.Counter("wire_frames_out_total", "kind", k).Inc()
	o.Counter("wire_bytes_out_total").Add(int64(sent) + headerLen)
}

// reply is one response being built — its bytes and what they borrow —
// with the writers a status reply is streamed through. Each worker of a
// connection keeps one and reuses it.
type reply struct {
	enc   *codec.Encoder // a binary reply is what it holds
	data  []byte         // any other reply
	text  *[]byte        // data is this pooled buffer: an XML reply
	relay frame          // data is its payload: the owner's reply, relayed as it came
	sub   submission     // the DGL request the reply answers

	bw codec.ResponseWriter
	xw dgl.ResponseWriter
}

// release gives back what the reply borrowed, once it is written.
func (r *reply) release() {
	if r.enc != nil {
		codec.PutEncoder(r.enc)
		r.enc = nil
	}
	if r.text != nil {
		textBufs.Put(r.text)
		r.text = nil
	}
	r.relay.release()
	r.data, r.sub = nil, submission{}
}

// bytes returns the response to write.
func (r *reply) bytes() []byte {
	if r.enc != nil {
		return r.enc.Bytes()
	}
	return r.data
}

// binary starts a binary reply: what is encoded into the returned
// encoder is the response.
func (r *reply) binary() *codec.Encoder {
	r.enc = codec.GetEncoder()
	return r.enc
}

// xml starts an XML reply: the document is appended to the returned
// pooled buffer and handed to setXML.
func (r *reply) xml() []byte {
	r.text = textBufs.Get().(*[]byte)
	return (*r.text)[:0]
}

func (r *reply) setXML(doc []byte) { *r.text, r.data = doc, doc }

// response encodes a materialised response document.
func (r *reply) response(resp *dgl.Response, bin bool) {
	if bin {
		codec.AppendResponse(r.binary(), resp)
		return
	}
	doc, _ := dgl.AppendXML(r.xml(), resp) // a *Response always renders
	r.setXML(doc)
}

// forward leaves in the reply a binary response document another peer
// answered with — the owner of a polled id, the owner of a routed
// submission's shard: as it came for a binary session (doc must stay
// valid until the reply is released: the caller parks the frame it lies
// in as relay), transcoded for an XML one, and with no dgl.Response
// built in between either way.
func (r *reply) forward(doc []byte, bin bool) {
	if bin {
		r.data = doc
		return
	}
	out, err := codec.ResponseXML(&r.xw, r.xml(), doc)
	if err != nil {
		r.release()
		r.fail(err, bin)
		return
	}
	r.setXML(out)
}

// fail encodes an error response.
func (r *reply) fail(err error, bin bool) {
	r.response(&dgl.Response{Error: dgferr.Encode(err)}, bin)
}

// handleFrame services one frame payload and leaves the response in rp,
// which the caller writes and then releases. A DGL document is answered
// in its own encoding, binary or XML; every other kind carries a binary
// envelope and is answered with one. payload is the frame's pooled
// buffer, valid until the caller releases the frame: nothing decoded
// from it may alias it beyond the handler.
func (s *Server) handleFrame(ctx context.Context, kind byte, payload []byte, rp *reply) {
	switch kind {
	case KindDGL:
		s.serveDGL(ctx, payload, rp)
	case KindControl:
		res := s.serveControl(payload)
		appendControlResult(rp.binary(), &res)
	case KindBatch:
		s.serveBatch(ctx, payload, rp)
	case KindRoute:
		s.serveRoute(ctx, payload, rp)
	case KindReplicate:
		res := s.serveReplicate(payload)
		appendReplicateResult(rp.binary(), &res)
	}
	if rp.enc != nil {
		s.engine.Obs().Counter("codec_encode_bytes_total").Add(int64(len(rp.bytes())))
	}
}

// submission is a DGL request on its way to an engine: this server's, or
// its shard owner's. A binary document that a sharded peer may route is
// read only as far as its head (codec.ReadRequestHead), so one it routes
// onward crosses this peer undecoded; every other document is decoded on
// arrival.
type submission struct {
	bin  bool
	doc  string            // the binary document as it came, while req is not decoded
	req  *dgl.Request      // the decoded request
	head codec.RequestHead // what admission and routing read
	// user is the accounting identity: the verified tenant, or the claimed
	// user when tenancy is off.
	user string
}

// request returns the decoded request, decoding the document the first
// time: it runs as the submission's accounting identity.
func (sub *submission) request() (*dgl.Request, error) {
	if sub.req == nil {
		req, err := codec.DecodeRequestDoc(sub.doc)
		if err != nil {
			return nil, err
		}
		req.User.Name = sub.user
		sub.req = req
	}
	return sub.req, nil
}

// readDoc reads a DGL request document, binary or XML, into sub,
// counting an XML one in codec_fallback_total under the frame kind it
// came in: only its head when headOnly and the document is binary, else
// decoded.
func (s *Server) readDoc(sub *submission, doc []byte, kind string, headOnly bool) error {
	*sub = submission{bin: codec.IsBinary(doc)}
	if !sub.bin {
		s.engine.Obs().Counter("codec_fallback_total", "kind", kind).Inc()
	}
	var err error
	if sub.bin && headOnly {
		sub.doc = string(doc)
		sub.head, err = codec.ReadRequestHead(sub.doc)
	} else if sub.req, err = codec.DecodeRequestDoc(doc); err == nil {
		sub.head = codec.RequestHeadOf(sub.req)
	}
	sub.user = sub.head.User
	return err
}

// admit runs a request through the admission scheduler, tracking the
// wire_queue_depth and wire_inflight gauges. On success the caller must
// release() exactly once.
func (s *Server) admit(ctx context.Context, user string) error {
	o := s.engine.Obs()
	o.Gauge("wire_queue_depth").Add(1)
	err := s.adm.Acquire(ctx, user)
	o.Gauge("wire_queue_depth").Add(-1)
	if err != nil {
		return err
	}
	o.Gauge("wire_inflight").Add(1)
	return nil
}

// release returns an admitted request's slot.
func (s *Server) release() {
	s.adm.Release()
	s.engine.Obs().Gauge("wire_inflight").Add(-1)
}

// serveDGL reads one DGL request, runs it through admission, and
// services it into rp, in the request's encoding. Errors become error
// responses rather than dropped connections — clients always get an
// answer per request.
func (s *Server) serveDGL(ctx context.Context, payload []byte, rp *reply) {
	sub := &rp.sub
	err := s.readDoc(sub, payload, "dgl", s.submitRouter != nil)
	if err != nil {
		rp.fail(err, sub.bin)
		return
	}
	if s.tenancyOn() {
		// The verified identity is the accounting identity everywhere
		// downstream: engine, store charges, provenance.
		if sub.user, err = s.resolveTenant(sub.head.Token, sub.head.User); err != nil {
			rp.fail(err, sub.bin)
			return
		}
		if sub.req != nil {
			sub.req.User.Name = sub.user
		}
		if s.tenants != nil && sub.head.HasFlow {
			if err := s.tenants.AllowSubmit(sub.user); err != nil {
				rp.fail(err, sub.bin)
				return
			}
		}
	}
	if err := s.admit(ctx, sub.user); err != nil {
		rp.fail(err, sub.bin)
		return
	}
	defer s.release()
	s.dispatchDGL(sub, rp)
}

// dispatchDGL services an admitted DGL request into rp.
func (s *Server) dispatchDGL(sub *submission, rp *reply) {
	if sub.head.HasFlow && s.submitRouter != nil {
		// A sharded peer owns flow placement: route to the shard owner or
		// accept locally, per the request's route preference.
		s.submitRouter(sub, rp)
		return
	}
	req, err := sub.request()
	if err != nil {
		rp.fail(err, sub.bin)
		return
	}
	if req.StatusQuery != nil && req.Flow == nil {
		s.serveStatus(req, sub.bin, rp)
		return
	}
	s.submit(req, sub.bin, rp)
}

// submit runs a flow submission on the engine and writes its reply into
// rp as the engine makes it (Engine.SubmitTo): an async submission's
// acknowledgement, a sync one's final status tree streamed from the
// execution's nodes, or the refusal — the bytes the engine's Response
// would encode to, with no Response or FlowStatus built in between. It
// returns the execution's id, "" when the submission was refused.
func (s *Server) submit(req *dgl.Request, bin bool, rp *reply) string {
	if bin {
		rp.bw.Begin(rp.binary())
		id, err := s.engine.SubmitTo(req, &rp.bw)
		rp.bw.End(dgferr.Encode(err))
		return id
	}
	rp.xw.Begin(rp.xml())
	id, err := s.engine.SubmitTo(req, &rp.xw)
	rp.setXML(rp.xw.End(dgferr.Encode(err)))
	return id
}

// serveStatus answers a status query. An id this server answers for is
// encoded from the execution's node tree straight into the reply
// buffer; one the router places on another peer is asked of its owner,
// whose reply is relayed as it came to a binary session and transcoded
// to XML for a text one (error replies the same) — no dgl.Response or
// FlowStatus is built on the way.
func (s *Server) serveStatus(req *dgl.Request, bin bool, rp *reply) {
	q := req.StatusQuery
	if s.statusRouter != nil {
		owner, err := s.statusRouter(q.ID)
		if err != nil {
			rp.fail(err, bin)
			return
		}
		if owner != nil {
			s.relayStatus(owner, req, bin, rp)
			return
		}
	}
	if bin {
		rp.bw.Begin(rp.binary())
		rp.bw.End(dgferr.Encode(s.engine.WalkStatus(q.ID, q.Detail, &rp.bw)))
		return
	}
	rp.xw.Begin(rp.xml())
	rp.setXML(rp.xw.End(dgferr.Encode(s.engine.WalkStatus(q.ID, q.Detail, &rp.xw))))
}

// relayStatus forwards a status query to the peer that owns the id and
// passes its reply on.
func (s *Server) relayStatus(owner *Client, req *dgl.Request, bin bool, rp *reply) {
	// The query is forwarded as it came, with no request built for the
	// hop: the owner reads only its user, token and status query, and
	// the caller's token rides the hop the way Route.Token does for
	// submissions, so an owner that requires tokens re-verifies the same
	// identity instead of refusing the query.
	fr, err := owner.exchange(context.Background(), req)
	if err != nil {
		rp.fail(err, bin)
		return
	}
	rp.relay = fr // the reply may be its payload as it is
	rp.forward(fr.payload, bin)
}

// serveRoute services a KindRoute frame: the terminal hop of every run
// one peer hands another (docs/WIRE.md §"Route frames"). A frame that
// names a parent node is a delegation, which runs wherever it lands; any
// other is a shard placement, which only a sharded peer holding the
// shard's lease runs. Either way the hop verifies the identity, takes
// one admission slot under it — exactly like a direct submit — decodes
// the document once and runs it, never routing it on (one hop, no
// loops), and streams the response document into the envelope. A
// refusal, or a run the hop cancelled, is the envelope's error; the
// run's own outcome is the response document's.
func (s *Server) serveRoute(ctx context.Context, payload []byte, rp *reply) {
	refuse := func(err error) { appendRouteResult(rp.binary(), &RouteResult{Error: dgferr.Encode(err)}) }
	rt, err := decodeRoute(payload)
	if err != nil {
		refuse(fmt.Errorf("%w: bad route frame: %v", dgferr.ErrInvalid, err))
		return
	}
	deleg := rt.ParentNode != ""
	if !deleg && s.routeLease == nil {
		refuse(fmt.Errorf("%w: server is not sharded", dgferr.ErrInvalid))
		return
	}
	o := s.engine.Obs()
	count := func(outcome string) {
		if deleg {
			o.Counter("wire_delegations_total", "outcome", outcome).Inc()
		}
	}
	if s.tenancyOn() {
		// A hop preserves identity: the sender forwarded the submitting
		// tenant's token and this peer re-verifies it against its own
		// authority (shared secret).
		if rt.User, err = s.resolveTenant(rt.Token, rt.User); err != nil {
			count("auth-rejected")
			refuse(err)
			return
		}
	}
	if err := s.admit(ctx, rt.User); err != nil {
		count("rejected")
		refuse(err)
		return
	}
	defer s.release()
	if !deleg {
		if res, held := s.routeLease(rt.Shard); !held {
			appendRouteResult(rp.binary(), &res)
			return
		}
	}
	req, err := codec.DecodeRequestDoc(rt.Request)
	if err == nil && req.Flow == nil {
		err = errors.New("request carries no flow")
	}
	if err != nil {
		count("invalid")
		refuse(fmt.Errorf("%w: bad routed request: %v", dgferr.ErrInvalid, err))
		return
	}
	// The flow runs as the identity the envelope verified, the rule
	// resolveTenant applies to a claimed user: a document may leave the
	// user out, never name another.
	switch req.User.Name {
	case rt.User:
	case "":
		req.User.Name = rt.User
	default:
		o.Counter("tenant_auth_failures_total").Inc()
		count("auth-rejected")
		refuse(fmt.Errorf("%w: routed request user %q does not match tenant %q", dgferr.ErrAuth, req.User.Name, rt.User))
		return
	}
	req.Route = dgl.RouteLocal // terminal hop: one forward, no loops
	e := rp.binary()
	doc := beginRouteReply(e)
	rp.bw.Begin(e)
	id, err := s.runHop(ctx, req, &rt, &rp.bw)
	if id == "" {
		// No outcome here: the refusal is the envelope's error.
		if errors.Is(err, dgferr.ErrCancelled) {
			count("cancelled")
		} else {
			count("error")
		}
		e.Reset()
		appendRouteResult(e, &RouteResult{Error: dgferr.Encode(err)})
		return
	}
	rp.bw.End(dgferr.Encode(err))
	e.EndBlob(doc)
	if err != nil {
		count("error")
	} else {
		count("ok")
	}
	if !deleg {
		s.routeServed(id, rt.Shard, req.Async)
	}
}

// runHop runs a routed request and writes its reply body into w: an
// async submission's acknowledgement, or a sync one's final status
// tree. It returns the execution's id and the run's own outcome, or ""
// and the reason the run has none here: refused before it started, or
// cancelled because ctx ended first — the sending peer's connection
// gone or the server closing — after DelegateGrace to unwind. A sync
// run leaves the handler's goroutine for that, where a client's own
// submit runs inline.
func (s *Server) runHop(ctx context.Context, req *dgl.Request, rt *Route, w *codec.ResponseWriter) (string, error) {
	if req.Async {
		return s.engine.SubmitTo(req, w)
	}
	exec, err := s.engine.Launch(req)
	if err != nil {
		return "", err
	}
	if rt.ParentNode != "" {
		s.engine.Grid().Provenance().Append(provenance.Record{
			Time:   s.engine.Clock().Now(),
			Actor:  rt.Origin,
			Action: "deleg.serve",
			Target: exec.ID,
			FlowID: exec.ID,
		}, provenance.Attr{Key: "origin", Value: rt.Origin},
			provenance.Attr{Key: "parentExec", Value: rt.ParentExec},
			provenance.Attr{Key: "parentNode", Value: rt.ParentNode})
	}
	werr := exec.Settle(ctx, s.cfg.DelegateGrace)
	if ctx.Err() != nil {
		return "", fmt.Errorf("%w: run cancelled by the route hop: %v", dgferr.ErrCancelled, ctx.Err())
	}
	exec.WalkStatus(true, w)
	return exec.ID, werr
}

// serveReplicate services a KindReplicate frame — one block of an
// owner's lifecycle record stream, or a catch-up snapshot, applied into
// this peer's replica store for that owner (docs/REPLICATION.md).
// Replication bypasses admission like control verbs do: a standby that
// stops acking because the primary saturated it would turn overload
// into replication lag, and lag into data-loss exposure.
func (s *Server) serveReplicate(payload []byte) ReplicateResult {
	f, err := decodeReplicate(payload)
	if err != nil {
		return ReplicateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: bad replicate frame: %v", dgferr.ErrInvalid, err))}
	}
	if s.replHandler == nil {
		return ReplicateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: server is not replicating", dgferr.ErrInvalid))}
	}
	return s.replHandler(f)
}

// serveBatch services a KindBatch frame: N DGL requests in one frame,
// answered positionally. The whole batch occupies one admission slot
// (it is one frame of one user); items fail independently via per-item
// error responses, each in its item's own encoding. Each item is
// answered into rp and moved into the envelope, which is what rp holds
// at the end.
func (s *Server) serveBatch(ctx context.Context, payload []byte, rp *reply) {
	fail := func(err error) { appendBatchResult(rp.binary(), false, dgferr.Encode(err)) }
	user, token, items, err := decodeBatch(payload)
	if err != nil {
		fail(fmt.Errorf("%w: bad batch frame: %v", dgferr.ErrInvalid, err))
		return
	}
	id := user
	if s.tenancyOn() {
		if id, err = s.resolveTenant(token, user); err != nil {
			fail(err)
			return
		}
	}
	if err := s.admit(ctx, id); err != nil {
		fail(err)
		return
	}
	defer s.release()
	env := codec.GetEncoder()
	appendBatchResult(env, true, "")
	for _, doc := range items {
		s.serveBatchItem(doc, id, rp)
		appendBatchResponse(env, rp.bytes())
		rp.release()
	}
	rp.enc = env
}

// serveBatchItem answers one batch item into rp, in the item's own
// encoding (binary items get binary replies, XML items XML).
func (s *Server) serveBatchItem(doc []byte, tenantID string, rp *reply) {
	sub := &rp.sub
	if err := s.readDoc(sub, doc, "batch", false); err != nil {
		rp.fail(err, sub.bin)
		return
	}
	req, bin := sub.req, sub.bin
	if s.tenancyOn() {
		// Items run under the envelope's verified identity: an
		// authenticated batch cannot smuggle items for another
		// tenant, and each flow item is rate-charged on its own.
		if s.auth != nil && req.User.Name != "" && req.User.Name != tenantID {
			rp.fail(fmt.Errorf("%w: batch item user %q does not match tenant %q",
				dgferr.ErrAuth, req.User.Name, tenantID), bin)
			return
		}
		req.User.Name, sub.user = tenantID, tenantID
		if s.tenants != nil && req.Flow != nil {
			if err := s.tenants.AllowSubmit(tenantID); err != nil {
				rp.fail(err, bin)
				return
			}
		}
	}
	s.dispatchDGL(sub, rp)
}

// serveControl handles one control frame.
func (s *Server) serveControl(payload []byte) ControlResult {
	c, err := decodeControl(payload)
	if err != nil {
		return refused(fmt.Errorf("%w: bad control frame: %v", dgferr.ErrInvalid, err))
	}
	if c.Op == "hello" {
		return serveHello(c, s.auth, s.engine.Obs().Counter("tenant_auth_failures_total"))
	}
	return s.serveControlOp(c)
}

// refused is the reply that fails a control verb with a typed error.
func refused(err error) ControlResult { return ControlResult{Error: dgferr.Encode(err)} }

// serveHello answers the hello exchange (docs/WIRE.md, "One version"),
// a matrix server's and the lookup registry's alike: a client offering
// another protocol version is refused with a typed dgferr.ErrProtocol,
// and a token, when one is offered and auth is set, is verified — the
// client learns its credential is dead before using it. failures counts
// the refused tokens.
func serveHello(c Control, auth *tenant.Authority, failures *obs.Counter) ControlResult {
	if c.Proto != ProtoVersion {
		return refused(fmt.Errorf("%w: client speaks protocol %q, server %q", dgferr.ErrProtocol, c.Proto, ProtoVersion))
	}
	if c.Token != "" && auth != nil {
		if _, err := auth.Verify(c.Token); err != nil {
			failures.Inc()
			return refused(err)
		}
	}
	return ControlResult{OK: true, Proto: ProtoVersion}
}

// serveControlOp services the non-hello control verbs.
func (s *Server) serveControlOp(c Control) ControlResult {
	if c.Op == "owner" {
		// Resolved before the execution lookup below: an ownership query
		// must not resurrect a passivated execution as a side effect.
		if s.ownerResolver == nil {
			return refused(fmt.Errorf("%w: server is not sharded", dgferr.ErrInvalid))
		}
		info, err := s.ownerResolver(c.ID)
		if err != nil {
			return refused(err)
		}
		return ControlResult{OK: true, ID: c.ID, Owner: info}
	}
	if c.Op == "tenants" {
		// Like "owner": resolved before the execution lookup so a
		// tenancy probe cannot resurrect anything as a side effect.
		info := &TenantsInfo{}
		if s.tenants != nil {
			limit := c.Limit
			if limit <= 0 {
				limit = 20
			}
			info.Enabled = true
			info.Auth = s.auth != nil
			info.Require = s.requireAuth
			info.Registered = s.tenants.Len()
			info.Tenants = s.tenants.Snapshot(limit)
		}
		return ControlResult{OK: true, Tenants: info}
	}
	if c.Op == "vdata" {
		// Like "owner": resolved before the execution lookup so a catalog
		// probe cannot resurrect anything as a side effect.
		return s.serveVdata(c)
	}
	if c.Op == "repl" {
		// Like "owner": resolved before the execution lookup so a status
		// probe cannot resurrect anything as a side effect.
		if s.replResolver == nil {
			return refused(fmt.Errorf("%w: server is not replicating", dgferr.ErrInvalid))
		}
		return ControlResult{OK: true, Repl: s.replResolver()}
	}
	switch c.Op {
	case "pause", "resume", "cancel", "restart":
		return s.serveExecOp(c)
	case "list":
		var rows []ExecutionInfo
		for _, sum := range s.engine.ListExecutions() {
			rows = append(rows, ExecutionInfo{
				ID: sum.ID, Name: sum.Name, State: string(sum.State), User: sum.User,
			})
		}
		return ControlResult{OK: true, Executions: rows}
	case "metrics":
		raw, err := json.Marshal(s.engine.Obs().Snapshot())
		if err != nil {
			return ControlResult{Error: "snapshot: " + err.Error()}
		}
		return ControlResult{OK: true, Metrics: raw}
	case "store":
		st := s.engine.Store()
		if st == nil {
			return refused(fmt.Errorf("%w: no flow-state store attached", dgferr.ErrInvalid))
		}
		return ControlResult{OK: true, Store: storeInfo(s.engine, st)}
	case "compact":
		st := s.engine.Store()
		if st == nil {
			return refused(fmt.Errorf("%w: no flow-state store attached", dgferr.ErrInvalid))
		}
		cs, err := st.Compact()
		if err != nil {
			return refused(err)
		}
		info := storeInfo(s.engine, st)
		info.Compaction = &CompactionInfo{
			SegmentsBefore: cs.SegmentsBefore,
			RecordsBefore:  cs.RecordsBefore,
			RecordsKept:    cs.RecordsKept,
			RecordsDropped: cs.RecordsDropped,
		}
		return ControlResult{OK: true, Store: info}
	default:
		return refused(fmt.Errorf("%w: unknown control op %q", dgferr.ErrInvalid, c.Op))
	}
}

// serveExecOp services the verbs that act on one execution: pause,
// resume, cancel and restart. The caller's identity is resolved first,
// as a submission's is, so a refused caller wakes nothing; with an
// authority attached, an execution of another tenant is refused with a
// typed dgferr.ErrAuth. The status router places the verb as it places
// a status query: one it puts on another peer is sent there as it came,
// with the caller's token, and the owner applies the same rule.
func (s *Server) serveExecOp(c Control) ControlResult {
	ten, err := s.resolveTenant(c.Token, c.User)
	if err != nil {
		return refused(err)
	}
	if s.statusRouter != nil {
		owner, err := s.statusRouter(c.ID)
		if err != nil {
			return refused(err)
		}
		if owner != nil {
			res, err := owner.controlMsg(context.Background(), c)
			if err != nil && res.Error == "" {
				return refused(err)
			}
			return res
		}
	}
	exec, ok := s.engine.Execution(c.ID)
	if !ok {
		// The target may be passivated in the flow-state store: wire
		// requests are a resurrection path (docs/STORE.md).
		if exec, err = s.engine.ResurrectFor(c.ID, "wire"); err != nil {
			return refused(fmt.Errorf("%w: execution %s", dgferr.ErrNotFound, c.ID))
		}
	}
	if s.auth != nil && exec.User() != ten {
		s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
		return refused(fmt.Errorf("%w: execution %s belongs to another tenant", dgferr.ErrAuth, c.ID))
	}
	switch c.Op {
	case "pause":
		exec.Pause()
	case "resume":
		exec.Resume()
	case "cancel":
		exec.Cancel()
	case "restart":
		next, err := s.engine.Restart(c.ID)
		if err != nil {
			return refused(err)
		}
		return ControlResult{OK: true, ID: next.ID}
	}
	return ControlResult{OK: true, ID: c.ID}
}

// serveVdata services the "vdata" control verb (docs/VDATA.md): stats,
// lookup and invalidate against the engine's derivation catalog. Every sub-operation resolves the caller's
// tenant exactly as submissions do — the bearer token on the frame is
// re-verified, and with an authority attached it must agree with the
// claimed user — so no tenant can read or drop another's derivations.
func (s *Server) serveVdata(c Control) ControlResult {
	info := &VdataInfo{}
	cat := s.engine.Vdata()
	if cat == nil {
		return ControlResult{OK: true, Vdata: info}
	}
	info.Enabled = true
	ten, err := s.resolveTenant(c.Token, c.User)
	if err != nil {
		return refused(err)
	}
	sub := c.Sub
	if sub == "" {
		sub = "stats"
	}
	switch sub {
	case "stats":
		st := cat.Stats()
		info.Entries = st.Entries
		info.Tenants = st.Tenants
		info.Publishes = st.Publishes
		info.Invalidations = st.Invalidations
		info.Durable = st.Durable
	case "lookup":
		if c.Key == "" {
			return refused(fmt.Errorf("%w: vdata lookup needs a key", dgferr.ErrInvalid))
		}
		if ent, ok := cat.Lookup(ten, c.Key); ok {
			info.Found = true
			info.Entry = &ent
		}
	case "invalidate":
		if c.Key == "" {
			return refused(fmt.Errorf("%w: vdata invalidate needs a key or output path", dgferr.ErrInvalid))
		}
		n, err := cat.Invalidate(ten, c.Key)
		if err != nil {
			return refused(err)
		}
		info.Removed = n
	default:
		return refused(fmt.Errorf("%w: unknown vdata sub-operation %q", dgferr.ErrInvalid, c.Sub))
	}
	// Counted once accepted: the label takes only the three known values,
	// whatever a peer sends.
	s.engine.Obs().Counter("wire_vdata_ops_total", "op", sub).Inc()
	return ControlResult{OK: true, Vdata: info}
}

// storeInfo summarizes the engine's flow-state store for the "store"
// and "compact" control verbs.
func storeInfo(engine *matrix.Engine, st *store.Store) *StoreInfo {
	stats := st.Stats()
	return &StoreInfo{
		Segments:      stats.Segments,
		Records:       stats.Records,
		ReplayRecords: stats.ReplayRecords,
		Live:          stats.Live,
		Passivated:    stats.Passivated,
		Resident:      engine.Resident(),
		SnapshotLag:   stats.SnapshotLag,
		Pending:       stats.Pending,
		Failed:        stats.Failed,
	}
}

// Close stops the listener and closes all live connections.
func (s *Server) Close() { s.ln.close() }
