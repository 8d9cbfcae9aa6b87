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
	"datagridflow/internal/vdata"
)

// Frame header overheads counted by the byte metrics.
const (
	// frameHeaderLen is the serial header (1-byte kind + 4-byte length).
	frameHeaderLen = 5
	// muxHeaderLen adds the 8-byte request id of mux framing.
	muxHeaderLen = 13
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
	case KindDelegate:
		return "delegate"
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
	// SerialOnly pins the server to the pre-1.2 serial protocol: it
	// advertises 1.1 in hello replies and never upgrades a session to
	// mux framing. A compatibility and testing knob.
	SerialOnly bool
	// ProtoMinor pins the minor version the server advertises (and its
	// feature gate: a server advertising < 1.3 refuses delegate
	// frames). 0 or out-of-range means the current ProtoMinor;
	// SerialOnly overrides to 1.1. A compatibility and interop-testing
	// knob — mixed-version federations rely on it.
	ProtoMinor int
	// DelegateGrace bounds how long a cancelled delegation (client gone
	// or server closing) waits for its execution to unwind before the
	// handler returns — the deterministic-shutdown budget for in-flight
	// delegations. Default 3s.
	DelegateGrace time.Duration
}

// Server exposes a matrix engine over the framed TCP protocol. Serial
// (pre-1.2) sessions handle frames strictly in order, one at a time.
// Sessions negotiated to >= 1.2 via hello switch to multiplexed
// framing: frames carry request ids, the server dispatches each to a
// bounded worker pool behind a per-user fair admission scheduler
// (internal/scheduler.Admission), and responses are written as they
// complete, in any order.
type Server struct {
	engine *matrix.Engine
	cfg    ServerConfig
	adm    *scheduler.Admission
	// statusRouter, when set (by a Peer, before Listen), places DGL
	// status queries on the peer network: it returns the pooled client of
	// the peer that owns the id, or nil when this server answers from its
	// own engine. Plain servers leave it nil and always answer locally.
	statusRouter func(id string) (*Client, error)
	// submitRouter, when set (by a sharded Peer, before Listen), owns
	// flow submissions entirely: it routes to the shard owner or accepts
	// locally, returning the response to send — as a Response, or as the
	// response document the owner answered with, to be passed on. Plain
	// servers leave it nil and submit to the engine directly.
	submitRouter func(req *dgl.Request) (resp *dgl.Response, doc string)
	// routeHandler, when set (by a sharded Peer, before Listen),
	// services KindRoute frames — the terminal hop of shard routing.
	routeHandler func(rt Route) RouteResult
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
	// All nil/false means tenancy off — behaviour identical to pre-1.7.
	auth        *tenant.Authority
	tenants     *tenant.Registry
	requireAuth bool

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]bool
	closed      bool
	wg          sync.WaitGroup
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
	if cfg.ProtoMinor <= 0 || cfg.ProtoMinor > ProtoMinor {
		cfg.ProtoMinor = ProtoMinor
	}
	if cfg.DelegateGrace <= 0 {
		cfg.DelegateGrace = 3 * time.Second
	}
	return &Server{
		engine: engine,
		cfg:    cfg,
		adm:    scheduler.NewAdmission(cfg.MaxInflight, cfg.MaxUserQueue, engine.Obs()),
		conns:  make(map[net.Conn]bool),
	}
}

// Engine returns the wrapped engine.
func (s *Server) Engine() *matrix.Engine { return s.engine }

// SetTenancy attaches the tenancy plane (docs/TENANCY.md) — call before
// Listen. auth, when non-nil, verifies bearer tokens on hello and every
// submit/batch/delegate/route payload; reg, when non-nil, supplies
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

// minor returns the minor version the server advertises — its feature
// level for negotiation and the delegate-frame gate.
func (s *Server) minor() int {
	if s.cfg.SerialOnly {
		return 1
	}
	return s.cfg.ProtoMinor
}

// proto returns the version the server advertises in hello replies.
func (s *Server) proto() string {
	return ProtoVersion(ProtoMajor, s.minor())
}

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
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return "", errors.New("wire: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs the serial (pre-1.2) protocol loop for one connection:
// frames are handled strictly in order, one at a time. A hello exchange
// negotiating >= 1.2 hands the connection over to serveMux.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	o := s.engine.Obs()
	o.Counter("wire_connections_total").Inc()
	o.Gauge("wire_connections_open").Add(1)
	defer func() {
		conn.Close()
		o.Gauge("wire_connections_open").Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// ctx covers admission waits on this connection; cancelled when the
	// serve loop exits (connection gone or server closing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	remote := conn.RemoteAddr().String()
	fc := newFrameConn(conn, o.Counter("wire_flushes_total"))
	rp := new(reply)
	for {
		fr, err := fc.r.next(false)
		if err != nil {
			return // EOF or broken connection
		}
		k := kindName(fr.kind)
		o.Counter("wire_frames_in_total", "kind", k).Inc()
		o.Counter("wire_bytes_in_total").Add(int64(len(fr.payload)) + frameHeaderLen)
		if s.connFault() {
			return // injected crash/drop: sever without a response
		}
		started := s.engine.Clock().Now()
		o.StartSpan("request", k, remote)
		if k == "unknown" {
			o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "protocol-violation"})
			return // protocol violation
		}
		upgrade, err := s.handleFrame(ctx, fr.kind, fr.payload, false, rp)
		if err != nil {
			rp.release()
			o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "encode-error"})
			return
		}
		o.Histogram("wire_request_seconds", "type", k).Observe(s.engine.Clock().Now().Sub(started).Seconds())
		o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "ok"})
		werr := fc.w.write(fr.kind, 0, false, rp.bytes())
		sent := len(rp.bytes())
		rp.release()
		fr.release()
		if werr != nil {
			return
		}
		o.Counter("wire_frames_out_total", "kind", k).Inc()
		o.Counter("wire_bytes_out_total").Add(int64(sent) + frameHeaderLen)
		if upgrade {
			// The hello reply above committed both ends to mux framing.
			s.serveMux(ctx, fc, remote)
			return
		}
	}
}

// muxSession is one connection under mux framing: the read loop hands
// each frame to a worker of the session's set.
type muxSession struct {
	s      *Server
	ctx    context.Context
	fc     *frameConn
	remote string
	// jobs is unbuffered: a send succeeds only into a worker that is
	// waiting, which is how the read loop learns that none is.
	jobs chan frame
}

// serveMux runs the multiplexed (>= 1.2) protocol loop: each frame goes
// to a handler of the connection's worker set — grown on demand, bounded
// per connection by muxConnWindow and globally by the admission
// scheduler — and responses are written through the connection's frame
// writer as they complete, correlated by request id.
func (s *Server) serveMux(ctx context.Context, fc *frameConn, remote string) {
	o := s.engine.Obs()
	ms := &muxSession{s: s, ctx: ctx, fc: fc, remote: remote, jobs: make(chan frame)}
	defer close(ms.jobs) // the workers finish what they hold and exit
	workers := 0
	for {
		fr, err := fc.r.next(true)
		if err != nil {
			return // EOF or broken connection
		}
		k := kindName(fr.kind)
		o.Counter("wire_frames_in_total", "kind", k).Inc()
		o.Counter("wire_bytes_in_total").Add(int64(len(fr.payload)) + muxHeaderLen)
		if s.connFault() {
			return // injected crash/drop: sever without a response
		}
		if k == "unknown" {
			o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "protocol-violation"})
			return // protocol violation: sever, as in serial mode
		}
		select {
		case ms.jobs <- fr:
		default:
			if workers < muxConnWindow {
				workers++
				s.wg.Add(1)
				go ms.work(fr)
			} else {
				ms.jobs <- fr // per-connection backpressure
			}
		}
	}
}

// work handles frames until the session ends, starting with first.
func (ms *muxSession) work(first frame) {
	defer ms.s.wg.Done()
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
	_, err := s.handleFrame(ms.ctx, fr.kind, fr.payload, true, rp) // no re-upgrade on a muxed session
	if err != nil {
		rp.release()
		o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "encode-error"})
		ms.fc.Close() // mirror serial behaviour: an unmarshalable response severs
		return
	}
	o.Histogram("wire_request_seconds", "type", k).Observe(s.engine.Clock().Now().Sub(started).Seconds())
	o.EndSpan("request", k, remote, obs.Attr{Key: "outcome", Value: "ok"})
	err = ms.fc.w.write(fr.kind, fr.id, true, rp.bytes())
	sent := len(rp.bytes())
	rp.release()
	fr.release()
	if err != nil {
		return // connection gone; the read loop will notice too
	}
	o.Counter("wire_frames_out_total", "kind", k).Inc()
	o.Counter("wire_bytes_out_total").Add(int64(sent) + muxHeaderLen)
}

// reply is one response being built — its bytes and what they borrow —
// with the writers a status reply is streamed through. A connection's
// serial loop and each of its mux workers keeps one and reuses it.
type reply struct {
	enc   *codec.Encoder // a binary reply is what it holds
	data  []byte         // any other reply
	text  *[]byte        // data is this pooled buffer: an XML reply
	relay frame          // data is its payload: the owner's reply, relayed as it came

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
	r.data = nil
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

// forward leaves in the reply a response document another peer answered
// with — the owner of a polled id, the owner of a routed submission's
// shard: as it came for a binary session (doc must stay valid until the
// reply is released), transcoded for an XML one, and with no
// dgl.Response built in between either way.
func (r *reply) forward(doc []byte, bin bool) {
	switch {
	case !codec.IsBinary(doc):
		// The link to that peer did not negotiate the codec (a pre-1.4
		// peer): its XML is read, and written again for this session.
		resp, err := dgl.ParseResponse(doc)
		if err != nil {
			r.fail(err, bin)
			return
		}
		r.response(resp, bin)
	case bin:
		r.data = doc
	default:
		out, err := codec.ResponseXML(&r.xw, r.xml(), doc)
		if err != nil {
			r.release()
			r.fail(err, bin)
			return
		}
		r.setXML(out)
	}
}

// fail encodes an error response.
func (r *reply) fail(err error, bin bool) {
	r.response(&dgl.Response{Error: dgferr.Encode(err)}, bin)
}

// json encodes a legacy JSON envelope.
func (r *reply) json(v any) (err error) {
	r.data, err = json.Marshal(v)
	return err
}

// binaryOK reports whether this server's advertised version admits
// binary payloads (>= 1.4).
func (s *Server) binaryOK() bool { return s.minor() >= binaryMinor }

// handleFrame services one frame payload — shared by the serial loop
// and the mux workers — and leaves the response in rp, which the caller
// writes and then releases. The response mirrors the request's encoding:
// a binary payload gets a binary reply, a legacy payload gets XML/JSON.
// payload is the frame's pooled buffer, valid until the caller releases
// the frame: nothing decoded from it may alias it beyond the handler.
// muxed suppresses the hello upgrade, which is meaningless on an
// already-muxed session.
func (s *Server) handleFrame(ctx context.Context, kind byte, payload []byte, muxed bool, rp *reply) (upgrade bool, err error) {
	o := s.engine.Obs()
	bin := codec.IsBinary(payload)
	if bin && !s.binaryOK() {
		// Binary frames against a pre-1.4 server are a negotiation bug,
		// not grounds to sever: answer with a protocol-class error in the
		// legacy encoding, which every client can read (responses are
		// sniffed, never assumed).
		perr := fmt.Errorf(
			"%w: binary payloads need protocol >= %s, server advertises %s",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, binaryMinor), s.proto())
		switch kind {
		case KindDGL:
			rp.fail(perr, false)
		case KindControl:
			err = rp.json(ControlResult{Error: dgferr.Encode(perr)})
		case KindBatch:
			err = rp.json(BatchResult{Error: dgferr.Encode(perr)})
		case KindDelegate:
			err = rp.json(DelegateResult{Error: dgferr.Encode(perr)})
		case KindRoute:
			err = rp.json(RouteResult{Error: dgferr.Encode(perr)})
		case KindReplicate:
			err = rp.json(ReplicateResult{Error: dgferr.Encode(perr)})
		}
		return false, err
	}
	if !bin && s.binaryOK() && kind != KindControl {
		// A legacy payload on a binary-capable server: a pre-1.4 peer, or
		// a client pinned to the text encoding. Control frames don't
		// count — hello negotiation always rides JSON.
		o.Counter("codec_fallback_total", "kind", kindName(kind)).Inc()
	}
	switch kind {
	case KindDGL:
		s.serveDGL(ctx, payload, rp)
	case KindControl:
		var res ControlResult
		res, upgrade = s.serveControl(payload)
		if muxed {
			upgrade = false
		}
		if bin {
			appendControlResult(rp.binary(), &res)
		} else {
			err = rp.json(res)
		}
	case KindBatch:
		err = s.serveBatch(ctx, payload, rp)
	case KindDelegate:
		res := s.serveDelegate(ctx, payload)
		if bin {
			appendDelegateResult(rp.binary(), &res)
		} else {
			err = rp.json(res)
		}
	case KindRoute:
		res := s.serveRoute(ctx, payload)
		if bin {
			appendRouteResult(rp.binary(), &res)
		} else {
			err = rp.json(res)
		}
	case KindReplicate:
		res := s.serveReplicate(payload)
		if bin {
			appendReplicateResult(rp.binary(), &res)
		} else {
			err = rp.json(res)
		}
	}
	if rp.enc != nil && err == nil {
		o.Counter("codec_encode_bytes_total").Add(int64(len(rp.bytes())))
	}
	return upgrade, err
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

// serveDGL parses one DGL request, runs it through admission, and
// services it into rp, in the request's encoding. Errors become error
// responses rather than dropped connections — clients always get an
// answer per request.
func (s *Server) serveDGL(ctx context.Context, payload []byte, rp *reply) {
	bin := codec.IsBinary(payload)
	req, err := codec.DecodeRequestDoc(payload)
	if err != nil {
		rp.fail(err, bin)
		return
	}
	id := req.User.Name
	if s.tenancyOn() {
		id, err = s.resolveTenant(req.Token, req.User.Name)
		if err != nil {
			rp.fail(err, bin)
			return
		}
		// The verified identity is the accounting identity everywhere
		// downstream: engine, store charges, provenance.
		req.User.Name = id
		if s.tenants != nil && req.Flow != nil {
			if err := s.tenants.AllowSubmit(id); err != nil {
				rp.fail(err, bin)
				return
			}
		}
	}
	if err := s.admit(ctx, id); err != nil {
		rp.fail(err, bin)
		return
	}
	defer s.release()
	s.dispatchDGL(req, bin, rp)
}

// dispatchDGL services a decoded, admitted DGL request into rp.
func (s *Server) dispatchDGL(req *dgl.Request, bin bool, rp *reply) {
	if req.StatusQuery != nil && req.Flow == nil {
		s.serveStatus(req, bin, rp)
		return
	}
	if req.Flow != nil && s.submitRouter != nil {
		// A sharded peer owns flow placement: route to the shard owner or
		// accept locally, per the request's route preference.
		if resp, doc := s.submitRouter(req); resp != nil {
			rp.response(resp, bin)
		} else {
			rp.forward([]byte(doc), bin)
		}
		return
	}
	resp, err := s.engine.Submit(req)
	if err != nil {
		rp.fail(err, bin)
		return
	}
	rp.response(resp, bin)
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
	// The caller's token rides the hop the way Route.Token does for
	// submissions, so an owner that requires tokens re-verifies the same
	// identity instead of refusing the query.
	fwd := dgl.NewStatusRequest(req.User.Name, req.StatusQuery.ID, req.StatusQuery.Detail)
	fwd.Token = req.Token
	fr, err := owner.exchange(context.Background(), fwd)
	if err != nil {
		rp.fail(err, bin)
		return
	}
	rp.relay = fr // the reply may be its payload as it is
	rp.forward(fr.payload, bin)
}

// serveRoute services a KindRoute frame — the terminal hop of shard
// routing (docs/WIRE.md §"Route frames"): the routing peer resolved
// this server as the shard owner and hands the submission over. The
// handler accepts locally (never re-routes: one hop, no loops) or
// refuses with NotOwner when ownership moved in flight. A routed
// submission occupies one admission slot under the originating user,
// exactly like a direct submit.
func (s *Server) serveRoute(ctx context.Context, payload []byte) RouteResult {
	if s.minor() < routeMinor {
		return RouteResult{Error: dgferr.Encode(fmt.Errorf(
			"%w: route frames need protocol >= %s, server advertises %s",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, routeMinor), s.proto()))}
	}
	var rt Route
	if codec.IsBinary(payload) {
		var derr error
		if rt, derr = decodeRoute(payload); derr != nil {
			return RouteResult{Error: dgferr.Encode(
				fmt.Errorf("%w: bad route frame: %v", dgferr.ErrInvalid, derr))}
		}
	} else if err := json.Unmarshal(payload, &rt); err != nil {
		return RouteResult{Error: dgferr.Encode(
			fmt.Errorf("%w: bad route frame: %v", dgferr.ErrInvalid, err))}
	}
	if s.routeHandler == nil {
		return RouteResult{Error: dgferr.Encode(
			fmt.Errorf("%w: server is not sharded", dgferr.ErrInvalid))}
	}
	id := rt.User
	if s.tenancyOn() {
		var terr error
		id, terr = s.resolveTenant(rt.Token, rt.User)
		if terr != nil {
			return RouteResult{Error: dgferr.Encode(terr)}
		}
		rt.User = id
	}
	if err := s.admit(ctx, id); err != nil {
		return RouteResult{Error: dgferr.Encode(err)}
	}
	defer s.release()
	return s.routeHandler(rt)
}

// serveReplicate services a KindReplicate frame — one block of an
// owner's lifecycle record stream, or a catch-up snapshot, applied into
// this peer's replica store for that owner (docs/REPLICATION.md).
// Replication bypasses admission like control verbs do: a standby that
// stops acking because the primary saturated it would turn overload
// into replication lag, and lag into data-loss exposure.
func (s *Server) serveReplicate(payload []byte) ReplicateResult {
	if s.minor() < replMinor {
		return ReplicateResult{Error: dgferr.Encode(fmt.Errorf(
			"%w: replicate frames need protocol >= %s, server advertises %s",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, replMinor), s.proto()))}
	}
	var f Replicate
	if codec.IsBinary(payload) {
		var derr error
		if f, derr = decodeReplicate(payload); derr != nil {
			return ReplicateResult{Error: dgferr.Encode(
				fmt.Errorf("%w: bad replicate frame: %v", dgferr.ErrInvalid, derr))}
		}
	} else if err := json.Unmarshal(payload, &f); err != nil {
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
// error responses. The reply envelope mirrors the request envelope's
// encoding, and each item's response mirrors that item's encoding —
// a binary envelope may legally carry XML items. Each item is answered
// into rp and moved into the envelope, which is what rp holds at the
// end.
func (s *Server) serveBatch(ctx context.Context, payload []byte, rp *reply) error {
	bin := codec.IsBinary(payload)
	fail := func(ferr error) error {
		if bin {
			appendBatchResult(rp.binary(), false, dgferr.Encode(ferr), nil)
			return nil
		}
		return rp.json(BatchResult{Error: dgferr.Encode(ferr)})
	}
	var user, token string
	var items [][]byte
	if bin {
		var derr error
		user, token, items, derr = decodeBatch(payload)
		if derr != nil {
			return fail(fmt.Errorf("%w: bad batch frame: %v", dgferr.ErrInvalid, derr))
		}
	} else {
		var b Batch
		if err := json.Unmarshal(payload, &b); err != nil {
			return fail(fmt.Errorf("%w: bad batch frame: %v", dgferr.ErrInvalid, err))
		}
		user = b.User
		token = b.Token
		items = make([][]byte, len(b.Requests))
		for i, r := range b.Requests {
			items[i] = []byte(r)
		}
	}
	id := user
	if s.tenancyOn() {
		var terr error
		id, terr = s.resolveTenant(token, user)
		if terr != nil {
			return fail(terr)
		}
	}
	if err := s.admit(ctx, id); err != nil {
		return fail(err)
	}
	defer s.release()
	var env *codec.Encoder
	var docs []string
	if bin {
		env = codec.GetEncoder()
		appendBatchResult(env, true, "", nil)
	} else {
		docs = make([]string, len(items))
	}
	for i, doc := range items {
		s.serveBatchItem(doc, id, rp)
		if bin {
			appendBatchResponse(env, rp.bytes())
		} else {
			docs[i] = string(rp.bytes())
		}
		rp.release()
	}
	if bin {
		rp.enc = env
		return nil
	}
	return rp.json(BatchResult{OK: true, Responses: docs})
}

// serveBatchItem answers one batch item into rp, in the item's own
// encoding (binary items get binary replies, XML items XML).
func (s *Server) serveBatchItem(doc []byte, tenantID string, rp *reply) {
	bin := codec.IsBinary(doc)
	req, err := codec.DecodeRequestDoc(doc)
	if err != nil {
		rp.fail(err, bin)
		return
	}
	if s.tenancyOn() {
		// Items run under the envelope's verified identity: an
		// authenticated batch cannot smuggle items for another
		// tenant, and each flow item is rate-charged on its own.
		if s.auth != nil && req.User.Name != "" && req.User.Name != tenantID {
			rp.fail(fmt.Errorf("%w: batch item user %q does not match tenant %q",
				dgferr.ErrAuth, req.User.Name, tenantID), bin)
			return
		}
		req.User.Name = tenantID
		if s.tenants != nil && req.Flow != nil {
			if err := s.tenants.AllowSubmit(tenantID); err != nil {
				rp.fail(err, bin)
				return
			}
		}
	}
	s.dispatchDGL(req, bin, rp)
}

// serveDelegate services a KindDelegate frame: run the embedded subflow
// to completion on this peer's engine and answer with its final status.
// A delegation occupies one admission slot for its whole run — the
// remote peer's capacity model sees it exactly like a local flow. When
// ctx is cancelled mid-run (delegating peer gone, or this server
// closing), the execution is cancelled and given DelegateGrace to
// unwind, so shutdown with in-flight delegations is deterministic.
func (s *Server) serveDelegate(ctx context.Context, payload []byte) DelegateResult {
	o := s.engine.Obs()
	outcome := func(out string) {
		o.Counter("wire_delegations_total", "outcome", out).Inc()
	}
	if s.minor() < delegateMinor {
		outcome("refused")
		return DelegateResult{Error: dgferr.Encode(fmt.Errorf(
			"%w: delegate frames need protocol >= %s, server advertises %s",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, delegateMinor), s.proto()))}
	}
	var d Delegate
	if codec.IsBinary(payload) {
		var derr error
		if d, derr = decodeDelegate(payload); derr != nil {
			outcome("invalid")
			return DelegateResult{Error: dgferr.Encode(
				fmt.Errorf("%w: bad delegate frame: %v", dgferr.ErrInvalid, derr))}
		}
	} else if err := json.Unmarshal(payload, &d); err != nil {
		outcome("invalid")
		return DelegateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: bad delegate frame: %v", dgferr.ErrInvalid, err))}
	}
	req, err := codec.DecodeRequestDoc([]byte(d.Request))
	if err != nil {
		outcome("invalid")
		return DelegateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: %v", dgferr.ErrInvalid, err))}
	}
	if req.Flow == nil {
		outcome("invalid")
		return DelegateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: delegate request carries no flow", dgferr.ErrInvalid))}
	}
	user := d.User
	if user == "" {
		user = req.User.Name
	}
	if s.tenancyOn() {
		// A federated hop preserves identity: the origin forwarded the
		// submitting tenant's token and this peer re-verifies it against
		// its own authority (shared secret). An absent token downgrades
		// the delegation to the claimed (anonymous-but-admitted)
		// identity unless this server requires auth.
		id, terr := s.resolveTenant(d.Token, user)
		if terr != nil {
			outcome("auth-rejected")
			return DelegateResult{Error: dgferr.Encode(terr)}
		}
		user = id
		req.User.Name = id
	}
	if err := s.admit(ctx, user); err != nil {
		outcome("rejected")
		return DelegateResult{Error: dgferr.Encode(err)}
	}
	defer s.release()
	exec, err := s.engine.Start(req.User.Name, *req.Flow)
	if err != nil {
		outcome("error")
		return DelegateResult{Error: dgferr.Encode(err)}
	}
	s.engine.Grid().Provenance().Append(provenance.Record{
		Time:   s.engine.Clock().Now(),
		Actor:  d.Origin,
		Action: "deleg.serve",
		Target: exec.ID,
		FlowID: exec.ID,
		Detail: map[string]string{
			"origin":     d.Origin,
			"parentExec": d.ParentExec,
			"parentNode": d.ParentNode,
		},
	})
	werr := exec.WaitContext(ctx)
	if ctx.Err() != nil {
		exec.Cancel()
		select {
		case <-exec.Done():
		case <-time.After(s.cfg.DelegateGrace):
		}
		outcome("cancelled")
		return DelegateResult{ID: exec.ID, Error: dgferr.Encode(fmt.Errorf(
			"%w: delegation cancelled by server", dgferr.ErrCancelled))}
	}
	res := DelegateResult{ID: exec.ID}
	st := exec.Status(true)
	if data, merr := dgl.Marshal(&st); merr == nil {
		res.Status = string(data)
	}
	if werr != nil {
		outcome("error")
		res.Error = dgferr.Encode(werr)
		return res
	}
	outcome("ok")
	res.OK = true
	return res
}

// serveControl handles one control frame. upgrade reports that the verb
// was a hello negotiating mux framing: the serial loop must switch to
// serveMux right after writing this reply. (On an already-muxed session
// the result is ignored by the caller — no double upgrade.)
func (s *Server) serveControl(payload []byte) (res ControlResult, upgrade bool) {
	var c Control
	if codec.IsBinary(payload) {
		var err error
		if c, err = decodeControl(payload); err != nil {
			return ControlResult{Error: "bad control frame: " + err.Error()}, false
		}
	} else if err := json.Unmarshal(payload, &c); err != nil {
		return ControlResult{Error: "bad control frame: " + err.Error()}, false
	}
	if c.Op == "hello" {
		return s.serveHello(c)
	}
	return s.serveControlOp(c), false
}

// serveHello negotiates the protocol version (docs/WIRE.md, "Version
// negotiation"): major mismatch is refused; a client minor >= 1.2
// upgrades the session to mux framing unless the server is SerialOnly.
func (s *Server) serveHello(c Control) (ControlResult, bool) {
	major, minor, err := ParseProtoVersion(c.Proto)
	if err != nil {
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: %v", dgferr.ErrProtocol, err))}, false
	}
	if major != ProtoMajor {
		return ControlResult{Error: dgferr.Encode(fmt.Errorf(
			"%w: client speaks %s, server speaks %s",
			dgferr.ErrProtocol, c.Proto, s.proto()))}, false
	}
	upgrade := !s.cfg.SerialOnly && s.minor() >= muxMinor && MuxSupported(major, minor)
	res := ControlResult{OK: true, Proto: s.proto()}
	if c.Token != "" && s.auth != nil && s.minor() >= tenantMinor {
		// Wire 1.7 credential exchange: a bad token fails the handshake
		// immediately — the client learns its credential is dead before
		// submitting anything.
		id, err := s.auth.Verify(c.Token)
		if err != nil {
			s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
			return ControlResult{Error: dgferr.Encode(err)}, false
		}
		res.Tenant = id
	}
	return res, upgrade
}

// serveControlOp services the non-hello control verbs.
func (s *Server) serveControlOp(c Control) ControlResult {
	if c.Op == "owner" {
		// Resolved before the execution lookup below: an ownership query
		// must not resurrect a passivated execution as a side effect.
		if s.ownerResolver == nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: server is not sharded", dgferr.ErrInvalid))}
		}
		info, err := s.ownerResolver(c.ID)
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		return ControlResult{OK: true, ID: c.ID, Owner: info}
	}
	if c.Op == "tenants" {
		// Like "owner": resolved before the execution lookup so a
		// tenancy probe cannot resurrect anything as a side effect.
		if s.minor() < tenantMinor {
			return ControlResult{Error: dgferr.Encode(fmt.Errorf(
				"%w: tenants verb needs protocol >= %s, server advertises %s",
				dgferr.ErrProtocol, ProtoVersion(ProtoMajor, tenantMinor), s.proto()))}
		}
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
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: server is not replicating", dgferr.ErrInvalid))}
		}
		return ControlResult{OK: true, Repl: s.replResolver()}
	}
	exec, ok := s.engine.Execution(c.ID)
	if !ok && c.ID != "" {
		// The target may be passivated in the flow-state store: wire
		// requests are a resurrection path (docs/STORE.md). Unknown ids
		// still fall through to the per-verb not-found handling.
		if ex, err := s.engine.ResurrectFor(c.ID, "wire"); err == nil {
			exec, ok = ex, true
		}
	}
	unknown := func() ControlResult {
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: execution %s", dgferr.ErrNotFound, c.ID))}
	}
	switch c.Op {
	case "pause":
		if !ok {
			return unknown()
		}
		exec.Pause()
		return ControlResult{OK: true, ID: c.ID}
	case "resume":
		if !ok {
			return unknown()
		}
		exec.Resume()
		return ControlResult{OK: true, ID: c.ID}
	case "cancel":
		if !ok {
			return unknown()
		}
		exec.Cancel()
		return ControlResult{OK: true, ID: c.ID}
	case "restart":
		next, err := s.engine.Restart(c.ID)
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		return ControlResult{OK: true, ID: next.ID}
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
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: no flow-state store attached", dgferr.ErrInvalid))}
		}
		return ControlResult{OK: true, Store: storeInfo(s.engine, st)}
	case "compact":
		st := s.engine.Store()
		if st == nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: no flow-state store attached", dgferr.ErrInvalid))}
		}
		cs, err := st.Compact()
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
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
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: unknown control op %q", dgferr.ErrInvalid, c.Op))}
	}
}

// serveVdata services the "vdata" control verb (wire >= 1.8,
// docs/VDATA.md): stats, lookup, publish and invalidate against the
// engine's derivation catalog. Every sub-operation resolves the caller's
// tenant exactly as submissions do — the bearer token on the frame is
// re-verified, and with an authority attached it must agree with the
// claimed user — so no tenant can read or drop another's derivations.
func (s *Server) serveVdata(c Control) ControlResult {
	if s.minor() < vdataMinor {
		return ControlResult{Error: dgferr.Encode(fmt.Errorf(
			"%w: vdata verb needs protocol >= %s, server advertises %s",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, vdataMinor), s.proto()))}
	}
	info := &VdataInfo{}
	cat := s.engine.Vdata()
	if cat == nil {
		return ControlResult{OK: true, Vdata: info}
	}
	info.Enabled = true
	ten, err := s.resolveTenant(c.Token, c.User)
	if err != nil {
		return ControlResult{Error: dgferr.Encode(err)}
	}
	sub := c.Sub
	if sub == "" {
		sub = "stats"
	}
	s.engine.Obs().Counter("wire_vdata_ops_total", "op", sub).Inc()
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
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: vdata lookup needs a key", dgferr.ErrInvalid))}
		}
		if ent, ok := cat.Lookup(ten, c.Key); ok {
			info.Found = true
			info.Entry = &ent
		}
	case "publish":
		var ent vdata.Entry
		if err := json.Unmarshal([]byte(c.Data), &ent); err != nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: vdata publish: bad entry: %v", dgferr.ErrInvalid, err))}
		}
		// A caller may only ever write its own tenant scope.
		ent.Tenant = ten
		if err := cat.Publish(ent); err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		info.Entries = cat.Len()
	case "invalidate":
		if c.Key == "" {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: vdata invalidate needs a key or output path", dgferr.ErrInvalid))}
		}
		n, err := cat.Invalidate(ten, c.Key)
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		info.Removed = n
	default:
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: unknown vdata sub-operation %q", dgferr.ErrInvalid, c.Sub))}
	}
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
		Resident:      len(engine.Executions()),
		SnapshotLag:   stats.SnapshotLag,
		Pending:       stats.Pending,
		Failed:        stats.Failed,
	}
}

// Close stops the listener and closes all live connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
