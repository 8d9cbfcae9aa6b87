package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/obs"
	"datagridflow/internal/vdata"
)

// Client is a connection to one matrix server. A fresh client speaks
// the serial protocol — one request in flight at a time, matching
// pre-1.2 servers. Calling Hello negotiates the protocol version; when
// both ends speak >= 1.2 the session upgrades to multiplexed framing
// and the client pipelines: any number of goroutines may issue
// requests concurrently over the one connection, each completed
// through its own channel when the matching response id arrives.
//
// Server-reported failures come back as typed errors: the server
// encodes its error class on the wire (docs/WIRE.md, "Typed errors")
// and the client rebuilds it, so errors.Is against the datagridflow
// sentinels (ErrNotFound, ErrRetryExhausted, ...) works across the
// network. A connection lost with requests in flight fails every one
// of them with a resource-down class error — never a hang.
type Client struct {
	// addr is the dial target, retained so Redial can re-establish the
	// session after a connection drop.
	addr string
	// timeout bounds each request in nanoseconds (atomic: SetTimeout
	// may race with in-flight round trips).
	timeout atomic.Int64

	// writeMu serializes frame writes; in serial mode it spans the whole
	// round trip (write + read), in mux mode only the write.
	writeMu sync.Mutex

	mu      sync.Mutex
	fc      *frameConn
	muxed   bool
	closed  bool
	nextID  uint64
	pending map[uint64]*muxCall
	readErr error // terminal until Redial: set once the mux read loop exits
	// helloed records that Hello negotiated at least once, so Redial
	// knows to re-run the handshake: negotiated state (mux, binary
	// codec, server version) belongs to a connection, not the client,
	// and must be refreshed on every new conn.
	helloed bool
	// serverMajor/serverMinor record the version the server advertised
	// in the hello reply (zero before Hello) — the feature gate for
	// delegation and the binary codec.
	serverMajor int
	serverMinor int
	// binary is set by Hello when both ends speak >= 1.4 (and
	// DisableBinary wasn't called): requests are encoded with
	// internal/codec instead of XML/JSON. Responses are always decoded
	// by sniffing, so the flag only governs what this client sends.
	binary    bool
	binaryOff bool
	// token is the tenant bearer token attached to every submit, batch,
	// delegate and route frame (SetToken, docs/TENANCY.md). tenant
	// records the identity the server verified in the hello reply.
	token  string
	tenant string
}

// muxCall is the slot one pipelined request waits in. Slots are reused
// from call to call, so whoever returns one to the pool must know that
// no reply is on its way into it: the waiter that received its reply,
// or the waiter that gave up and removed the id from pending itself.
// When the read loop removed it first, a reply is about to land there
// and the slot is left to the collector instead.
type muxCall struct {
	reply chan muxReply // capacity 1: the read loop's send never blocks
}

// muxReply is what the read loop delivers to a slot: the response
// frame, or lost when the connection died first.
type muxReply struct {
	frame
	lost bool
}

var muxCalls = sync.Pool{New: func() any { return &muxCall{reply: make(chan muxReply, 1)} }}

// Dial connects to a matrix server.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a matrix server honouring the context's
// deadline and cancellation.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &Client{addr: addr, fc: newFrameConn(conn, nil)}, nil
}

// SetTimeout bounds every subsequent request (write + read) by d on the
// wall clock; zero restores unbounded requests. Per-request contexts
// (SubmitContext) compose with it — whichever limit is tighter wins.
// Safe to call concurrently with in-flight requests.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// SetToken attaches a tenant bearer token (tenant.Authority.Mint,
// docs/TENANCY.md) to every subsequent submit, batch, delegate and
// route frame, and offers it during Hello so the server can verify the
// session identity up front. An empty string detaches. Pre-1.7 servers
// skip the token field and account the caller as anonymous — sending
// one is always safe.
func (c *Client) SetToken(tok string) {
	c.mu.Lock()
	c.token = tok
	c.mu.Unlock()
}

// Token returns the tenant bearer token set with SetToken.
func (c *Client) Token() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// Tenant returns the identity the server verified during Hello, or ""
// when no token was offered (or the server predates tenancy).
func (c *Client) Tenant() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenant
}

// Close closes the connection. Pipelined requests still in flight fail
// with a cancelled-class error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	fc := c.fc
	c.mu.Unlock()
	return fc.Close()
}

// current returns the live connection. Serial round trips additionally
// hold writeMu, which Redial also takes — so none straddles a
// connection swap.
func (c *Client) current() *frameConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fc
}

// Muxed reports whether Hello negotiated the multiplexed protocol on
// this connection.
func (c *Client) Muxed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muxed
}

// Binary reports whether Hello negotiated the binary codec on this
// connection (both ends >= 1.4 and DisableBinary not called).
func (c *Client) Binary() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.binary
}

// DisableBinary pins this client to the legacy text encodings (XML
// requests, JSON envelopes) even against a 1.4 server — an interop and
// benchmarking knob. Safe at any point: calling it after Hello stops
// binary encoding from the next request on.
func (c *Client) DisableBinary() {
	c.mu.Lock()
	c.binaryOff = true
	c.binary = false
	c.mu.Unlock()
}

// roundTrip performs one request-response, dispatching on the session
// mode. The serial path holds writeMu for the whole exchange; the mux
// path waits in a call slot keyed by request id. The response frame's
// payload is pooled: the caller parses it and releases the frame.
func (c *Client) roundTrip(ctx context.Context, kind byte, payload []byte) (frame, error) {
	for {
		if c.Muxed() {
			return c.roundTripMux(ctx, kind, payload)
		}
		c.writeMu.Lock()
		if c.Muxed() {
			// Another goroutine upgraded the session while we waited for
			// the lock; retry on the mux path.
			c.writeMu.Unlock()
			continue
		}
		fr, err := c.serialRoundTripLocked(ctx, kind, payload)
		c.writeMu.Unlock()
		return fr, err
	}
}

// serialRoundTripLocked performs one framed request-response; the
// caller holds writeMu. The context's deadline/cancellation and the
// client timeout apply to the connection for the duration.
func (c *Client) serialRoundTripLocked(ctx context.Context, kind byte, payload []byte) (frame, error) {
	fc := c.current()
	deadline := time.Time{}
	if d := time.Duration(c.timeout.Load()); d > 0 {
		deadline = time.Now().Add(d)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	_ = fc.SetDeadline(deadline) // zero clears
	stop := context.AfterFunc(ctx, func() {
		// Cancellation interrupts in-flight I/O by expiring the deadline.
		_ = fc.SetDeadline(time.Now())
	})
	defer stop()
	if err := fc.w.write(kind, 0, false, payload); err != nil {
		return frame{}, c.ctxErr(ctx, err)
	}
	fr, err := fc.r.next(false)
	if err != nil {
		return frame{}, c.ctxErr(ctx, err)
	}
	return fr, nil
}

// roundTripMux pipelines one request: write the frame with a fresh id,
// then wait in the call slot registered under it. Cancellation abandons
// the request (the response, if it ever arrives, is discarded) without
// disturbing other in-flight requests.
func (c *Client) roundTripMux(ctx context.Context, kind byte, payload []byte) (frame, error) {
	if d := time.Duration(c.timeout.Load()); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	call := muxCalls.Get().(*muxCall)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		muxCalls.Put(call)
		return frame{}, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	fc := c.fc
	c.mu.Unlock()

	if err := fc.w.write(kind, id, true, payload); err != nil {
		rerr := c.abandon(id, call)
		if rerr != nil {
			return frame{}, rerr
		}
		return frame{}, c.ctxErr(ctx, err)
	}
	select {
	case r := <-call.reply:
		muxCalls.Put(call) // received: nothing else is coming
		if r.lost {
			c.mu.Lock()
			rerr := c.readErr
			c.mu.Unlock()
			return frame{}, rerr
		}
		return r.frame, nil
	case <-ctx.Done():
		c.abandon(id, call)
		return frame{}, fmt.Errorf("%w: %v", dgferr.ErrCancelled, ctx.Err())
	}
}

// abandon gives up on a call: the id leaves pending and, if it was
// still there, the slot goes back to the pool — nobody can deliver to
// it any more. If the read loop had already claimed it, its send is on
// the way and the slot is dropped, never recycled with a reply pending.
// Returns the connection's terminal error, if it has one.
func (c *Client) abandon(id uint64, call *muxCall) error {
	c.mu.Lock()
	_, mine := c.pending[id]
	delete(c.pending, id)
	rerr := c.readErr
	c.mu.Unlock()
	if mine {
		muxCalls.Put(call)
	}
	return rerr
}

// upgrade switches the session to multiplexed framing and starts the
// response reader. Caller holds writeMu (so no serial round trip can
// interleave between the hello reply and the reader start).
func (c *Client) upgrade() {
	fc := c.current()
	// Clear any deadline left by the hello round trip: mux reads block
	// indefinitely and complete per-request via their call slots.
	_ = fc.SetDeadline(time.Time{})
	c.mu.Lock()
	c.muxed = true
	c.pending = make(map[uint64]*muxCall)
	c.mu.Unlock()
	go c.readLoop(fc)
}

// readLoop is the mux-mode response pump: it matches response ids to
// pending requests until the connection dies, then fails everything
// still in flight. It is pinned to the connection it was started for:
// after a Redial the stale loop's exit must not poison the fresh
// session, so failure is scoped through failAllFor.
func (c *Client) readLoop(fc *frameConn) {
	for {
		fr, err := fc.r.next(true)
		if err != nil {
			c.failAllFor(fc, err)
			return
		}
		c.mu.Lock()
		call, ok := c.pending[fr.id]
		delete(c.pending, fr.id)
		c.mu.Unlock()
		if ok {
			call.reply <- muxReply{frame: fr}
		} else {
			fr.release() // a late reply to an abandoned request
		}
	}
}

// failAllFor records the terminal connection error and fails every
// in-flight request with a typed error: cancelled if the client closed
// the connection itself, resource-down (transient — retry after Redial
// or on a fresh connection) otherwise. A loop whose connection has
// already been replaced by Redial is stale: its error belongs to the
// old session and is dropped.
func (c *Client) failAllFor(fc *frameConn, cause error) {
	c.mu.Lock()
	if c.fc != fc {
		c.mu.Unlock()
		return
	}
	if c.readErr == nil {
		if c.closed {
			c.readErr = fmt.Errorf("%w: wire: client closed", dgferr.ErrCancelled)
		} else {
			c.readErr = fmt.Errorf("%w: wire: connection lost: %v", dgferr.ErrResourceDown, cause)
		}
	}
	pending := c.pending
	c.pending = make(map[uint64]*muxCall)
	c.mu.Unlock()
	for _, call := range pending {
		call.reply <- muxReply{lost: true}
	}
}

// Redial tears down the dead connection and dials the server again,
// re-running the hello handshake when the old session had negotiated
// one. Negotiated state — mux framing, the binary codec, the server's
// advertised version — belongs to a connection, not the client; a
// redial that skipped the handshake would happily send binary mux
// frames to a server that never agreed to them on this session (or,
// after a server downgrade, to one that cannot speak them at all).
// In-flight requests on the old session fail with their original
// resource-down error. Safe to call concurrently; requests issued
// during the redial block until it completes.
func (c *Client) Redial(ctx context.Context) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("%w: wire: client closed", dgferr.ErrCancelled)
	}
	old := c.fc
	addr := c.addr
	helloed := c.helloed
	c.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("%w: wire: client was not dialed (no address to redial)", dgferr.ErrInvalid)
	}
	_ = old.Close() // unblocks a stale read loop; its exit is scoped to old
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("%w: wire: redial %s: %v", dgferr.ErrResourceDown, addr, err)
	}
	c.mu.Lock()
	c.fc = newFrameConn(conn, nil)
	// Fresh session: everything Hello negotiated is void until it runs
	// again, so the client drops back to serial XML/JSON framing.
	c.muxed = false
	c.pending = nil
	c.readErr = nil
	c.serverMajor, c.serverMinor = 0, 0
	c.binary = false
	c.mu.Unlock()
	if helloed {
		if _, err := c.helloLocked(); err != nil {
			return err
		}
	}
	return nil
}

// ctxErr maps an I/O error caused by context cancellation back to the
// context's error, wrapped in the cancelled class.
func (c *Client) ctxErr(ctx context.Context, err error) error {
	if ctx.Err() == nil {
		// The connection deadline derived from the context can fire a
		// beat before the context's own timer; if the context is at its
		// deadline, wait for it to notice so the caller sees the
		// cancellation class rather than a raw i/o timeout.
		if d, ok := ctx.Deadline(); ok && time.Until(d) < time.Millisecond {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", dgferr.ErrCancelled, ctx.Err())
	}
	return err
}

// SubmitContext sends one DGL request under a context: the deadline
// bounds the round trip and cancellation interrupts in-flight I/O
// (serial mode) or abandons the pipelined request (mux mode).
//
// Deprecated: use Submit(ctx, req) — this wrapper remains for source
// compatibility with the pre-1.5 submit surface.
func (c *Client) SubmitContext(ctx context.Context, req *dgl.Request) (*dgl.Response, error) {
	return c.submitOne(ctx, req)
}

// submitOne is the single-request transport core shared by Submit and
// the deprecated wrappers.
func (c *Client) submitOne(ctx context.Context, req *dgl.Request) (*dgl.Response, error) {
	fr, err := c.exchange(ctx, req)
	if err != nil {
		return nil, err
	}
	defer fr.release()
	return parseResponsePayload(fr.payload)
}

// exchange sends one DGL request and returns the response frame as it
// came, for the caller to parse — or pass on — and release.
func (c *Client) exchange(ctx context.Context, req *dgl.Request) (frame, error) {
	if tok := c.Token(); tok != "" && req.Token == "" {
		// Attach the session token without mutating the caller's request.
		stamped := *req
		stamped.Token = tok
		req = &stamped
	}
	// The request is built in a pooled buffer: the frame writer has
	// copied it, or written it out, by the time the round trip returns.
	var data []byte
	if c.Binary() {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		codec.AppendRequest(enc, req)
		data = enc.Bytes()
	} else {
		text := textBufs.Get().(*[]byte)
		defer textBufs.Put(text)
		var err error
		if *text, err = dgl.AppendXML((*text)[:0], req); err != nil {
			return frame{}, err
		}
		data = *text
	}
	fr, err := c.roundTrip(ctx, KindDGL, data)
	if err != nil {
		return frame{}, err
	}
	if fr.kind != KindDGL {
		fr.release()
		return frame{}, errors.New("wire: unexpected frame kind in response")
	}
	return fr, nil
}

// EncodeRequest renders a request document for embedding in a peer
// envelope (Delegate.Request, Route.Request): codec-encoded when the
// session negotiated binary, XML otherwise. Delegate and Route pick the
// envelope encoding to match, so a binary document never rides a JSON
// envelope, whose string escaping would mangle it.
func (c *Client) EncodeRequest(req *dgl.Request) (string, error) {
	if c.Binary() {
		return codec.RequestDoc(req), nil
	}
	data, err := dgl.Marshal(req)
	return string(data), err
}

// parseResponsePayload sniffs a DGL response payload's encoding —
// servers mirror the request encoding, but decoding never assumes.
func parseResponsePayload(payload []byte) (*dgl.Response, error) {
	if codec.IsBinary(payload) {
		return codec.DecodeResponse(payload)
	}
	return dgl.ParseResponse(payload)
}

// SubmitBatch submits N requests in one round trip on a multiplexed
// session (the KindBatch frame), falling back to sequential submission
// against pre-1.2 serial servers.
//
// Deprecated: use Submit(ctx, nil, WithBatch(reqs...), WithUser(user))
// — this wrapper remains for source compatibility with the pre-1.5
// submit surface.
func (c *Client) SubmitBatch(ctx context.Context, user string, reqs []*dgl.Request) ([]*dgl.Response, error) {
	return c.submitBatch(ctx, user, reqs)
}

// submitBatch is the batch transport core shared by Submit and the
// deprecated SubmitBatch wrapper. The reply is positional: item i's
// response answers reqs[i], with per-item failures carried in each
// response's Error field (decode with dgferr.Decode). A transport
// failure aborts the whole call with a typed error. user names the
// identity the server's admission scheduler accounts the batch to.
func (c *Client) submitBatch(ctx context.Context, user string, reqs []*dgl.Request) ([]*dgl.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if !c.Muxed() {
		// Pre-1.2 fallback: one serial round trip per item.
		out := make([]*dgl.Response, len(reqs))
		for i, req := range reqs {
			resp, err := c.SubmitContext(ctx, req)
			if err != nil {
				return nil, err
			}
			out[i] = resp
		}
		return out, nil
	}
	var payload []byte
	if c.Binary() {
		// Binary envelope with binary items: each item is encoded into a
		// pooled scratch encoder and streamed straight into the envelope —
		// one copy per item. Collecting the items first would copy every
		// payload twice, which dominates batch CPU once items carry
		// multi-kilobyte variable sets.
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		appendBatchStart(enc, user, c.Token())
		ie := codec.GetEncoder()
		for _, req := range reqs {
			ie.Reset()
			codec.AppendRequest(ie, req)
			appendBatchItem(enc, ie.Bytes())
		}
		codec.PutEncoder(ie)
		payload = enc.Bytes()
	} else {
		b := Batch{User: user, Token: c.Token(), Requests: make([]string, len(reqs))}
		for i, req := range reqs {
			data, err := dgl.Marshal(req)
			if err != nil {
				return nil, fmt.Errorf("wire: batch item %d: %w", i, err)
			}
			b.Requests[i] = string(data)
		}
		var err error
		if payload, err = json.Marshal(b); err != nil {
			return nil, err
		}
	}
	fr, err := c.roundTrip(ctx, KindBatch, payload)
	if err != nil {
		return nil, err
	}
	// The item documents below alias the frame until each is parsed.
	defer fr.release()
	if fr.kind != KindBatch {
		return nil, errors.New("wire: unexpected frame kind in batch response")
	}
	resp := fr.payload
	var ok bool
	var errText string
	var docs [][]byte
	if codec.IsBinary(resp) {
		if ok, errText, docs, err = decodeBatchResult(resp); err != nil {
			return nil, fmt.Errorf("wire: bad batch reply: %w", err)
		}
	} else {
		var res BatchResult
		if err := json.Unmarshal(resp, &res); err != nil {
			return nil, fmt.Errorf("wire: bad batch reply: %w", err)
		}
		ok, errText = res.OK, res.Error
		docs = make([][]byte, len(res.Responses))
		for i, d := range res.Responses {
			docs[i] = []byte(d)
		}
	}
	if !ok {
		return nil, dgferr.Decode(errText)
	}
	if len(docs) != len(reqs) {
		return nil, fmt.Errorf("wire: batch reply has %d items, want %d", len(docs), len(reqs))
	}
	out := make([]*dgl.Response, len(reqs))
	for i, doc := range docs {
		r, err := parseResponsePayload(doc)
		if err != nil {
			return nil, fmt.Errorf("wire: batch reply item %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// SubmitFlow submits a flow synchronously and returns the final status.
func (c *Client) SubmitFlow(user string, flow dgl.Flow) (*dgl.Response, error) {
	return c.submitOne(context.Background(), dgl.NewRequest(user, "", flow))
}

// RunFlow submits a flow synchronously and returns its final status
// tree, decoding a server-side failure into a typed error — the
// convenience entry point for "run this and tell me, typed, why it
// failed".
func (c *Client) RunFlow(ctx context.Context, user string, flow dgl.Flow) (*dgl.FlowStatus, error) {
	resp, err := c.submitOne(ctx, dgl.NewRequest(user, "", flow))
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return resp.Status, dgferr.Decode(resp.Error)
	}
	if resp.Status == nil {
		return nil, errors.New("wire: empty response")
	}
	return resp.Status, nil
}

// SubmitAsync submits a flow asynchronously and returns the execution id
// from the acknowledgement.
//
// Deprecated: use Submit(ctx, dgl.NewRequest(user, "", flow),
// WithAsync()) and read SubmitResult.ID — this wrapper remains for
// source compatibility with the pre-1.5 submit surface.
func (c *Client) SubmitAsync(user string, flow dgl.Flow) (string, error) {
	return c.SubmitAsyncContext(context.Background(), user, flow)
}

// SubmitAsyncContext is SubmitAsync under a context.
//
// Deprecated: see SubmitAsync.
func (c *Client) SubmitAsyncContext(ctx context.Context, user string, flow dgl.Flow) (string, error) {
	resp, err := c.submitOne(ctx, dgl.NewAsyncRequest(user, "", flow))
	if err != nil {
		return "", err
	}
	if resp.Error != "" {
		return "", dgferr.Decode(resp.Error)
	}
	if resp.Ack == nil || !resp.Ack.Valid {
		return "", errors.New("wire: missing acknowledgement")
	}
	return resp.Ack.ID, nil
}

// Status queries the status of an execution, flow or step id.
func (c *Client) Status(user, id string, detail bool) (*dgl.FlowStatus, error) {
	return c.statusAs(user, "", id, detail)
}

// statusAs is Status carrying an explicit bearer token — the caller's,
// when a peer forwards a query on the caller's behalf. An empty token
// leaves the session's own (SetToken) to be attached.
func (c *Client) statusAs(user, token, id string, detail bool) (*dgl.FlowStatus, error) {
	req := dgl.NewStatusRequest(user, id, detail)
	req.Token = token
	resp, err := c.submitOne(context.Background(), req)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, dgferr.Decode(resp.Error)
	}
	if resp.Status == nil {
		return nil, errors.New("wire: empty status response")
	}
	return resp.Status, nil
}

// control sends one control verb.
func (c *Client) control(op, id string) (ControlResult, error) {
	return c.controlMsg(context.Background(), Control{Op: op, ID: id})
}

func (c *Client) controlMsg(ctx context.Context, msg Control) (ControlResult, error) {
	var data []byte
	if c.Binary() {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		appendControl(enc, &msg)
		data = enc.Bytes()
	} else {
		var err error
		if data, err = json.Marshal(msg); err != nil {
			return ControlResult{}, err
		}
	}
	fr, err := c.roundTrip(ctx, KindControl, data)
	if err != nil {
		return ControlResult{}, err
	}
	defer fr.release()
	if fr.kind != KindControl {
		return ControlResult{}, errors.New("wire: unexpected frame kind in response")
	}
	var res ControlResult
	if codec.IsBinary(fr.payload) {
		if res, err = decodeControlResult(fr.payload); err != nil {
			return ControlResult{}, err
		}
	} else if err := json.Unmarshal(fr.payload, &res); err != nil {
		return ControlResult{}, err
	}
	if !res.OK && res.Error != "" {
		return res, dgferr.Decode(res.Error)
	}
	return res, nil
}

// Hello negotiates the protocol version with the server: it offers the
// client's version and returns the server's. Servers reject a major
// mismatch with an error carrying the protocol class
// (errors.Is(err, dgferr.ErrProtocol)). When both ends speak >= 1.2
// the session upgrades to multiplexed framing: subsequent requests
// pipeline over the connection and SubmitBatch uses batch frames.
// Against an older serial server the client simply stays serial —
// Hello is the negotiation point, and not calling it leaves the
// session serial regardless of server version.
func (c *Client) Hello() (serverProto string, err error) {
	msg := Control{Op: "hello", Proto: ProtoVersion(ProtoMajor, ProtoMinor), Token: c.Token()}
	if c.Muxed() {
		// Already negotiated: a repeat hello is an ordinary control verb.
		res, err := c.controlMsg(context.Background(), msg)
		if err != nil {
			return "", err
		}
		c.mu.Lock()
		c.tenant = res.Tenant
		c.mu.Unlock()
		return res.Proto, nil
	}
	c.writeMu.Lock()
	if c.Muxed() {
		// Raced with another Hello that upgraded first.
		c.writeMu.Unlock()
		res, err := c.controlMsg(context.Background(), msg)
		if err != nil {
			return "", err
		}
		c.mu.Lock()
		c.tenant = res.Tenant
		c.mu.Unlock()
		return res.Proto, nil
	}
	proto, err := c.helloLocked()
	c.writeMu.Unlock()
	return proto, err
}

// helloLocked runs the serial hello negotiation; the caller holds
// writeMu and the session is not muxed. Shared between Hello and
// Redial (which must refresh negotiated state on the new connection
// before releasing the session to callers).
func (c *Client) helloLocked() (serverProto string, err error) {
	msg := Control{Op: "hello", Proto: ProtoVersion(ProtoMajor, ProtoMinor), Token: c.Token()}
	data, err := json.Marshal(msg)
	if err != nil {
		return "", err
	}
	fr, err := c.serialRoundTripLocked(context.Background(), KindControl, data)
	if err != nil {
		return "", err
	}
	defer fr.release()
	var res ControlResult
	if fr.kind == KindControl {
		err = json.Unmarshal(fr.payload, &res)
	} else {
		err = errors.New("wire: unexpected frame kind in hello response")
	}
	if err == nil && !res.OK && res.Error != "" {
		err = dgferr.Decode(res.Error)
	}
	if err == nil && res.OK {
		if major, minor, perr := ParseProtoVersion(res.Proto); perr == nil {
			c.mu.Lock()
			c.serverMajor, c.serverMinor = major, minor
			// Both ends >= 1.4: switch the hot paths to the binary codec
			// (docs/CODEC.md). The hello exchange itself always rides
			// JSON — it is what discovers whether binary is safe.
			c.binary = !c.binaryOff && BinarySupported(major, minor)
			c.tenant = res.Tenant
			c.helloed = true
			c.mu.Unlock()
			if MuxSupported(major, minor) {
				// Both ends speak >= 1.2: the server switched to mux framing
				// right after this reply; follow before releasing writeMu.
				c.upgrade()
			}
		}
	}
	if err != nil {
		return "", err
	}
	return res.Proto, nil
}

// ServerProto returns the version the server advertised in the hello
// reply, or zeros before Hello has completed.
func (c *Client) ServerProto() (major, minor int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverMajor, c.serverMinor
}

// CanDelegate reports whether this session may carry delegate frames:
// the session is multiplexed and the server advertised >= 1.3 in its
// hello reply. Against an older server the federation layer never sends
// a delegate frame — the subflow stays local (docs/FEDERATION.md).
func (c *Client) CanDelegate() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muxed && DelegateSupported(c.serverMajor, c.serverMinor)
}

// Delegate asks the server to execute a subflow on this peer's behalf
// and waits for its final status. A non-nil result with res.OK false
// means the remote ran (or refused) the work and reported a typed
// failure — err carries the decoded class and res.ID/res.Status what
// the remote knows. A nil result means transport failure: the caller
// cannot know whether the remote ran anything (the at-least-once caveat
// in docs/FEDERATION.md).
func (c *Client) Delegate(ctx context.Context, d Delegate) (*DelegateResult, error) {
	if !c.CanDelegate() {
		return nil, fmt.Errorf("%w: server does not accept delegate frames (need >= %s)",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, delegateMinor))
	}
	var payload []byte
	if c.Binary() || codec.IsBinary(d.Request) {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		appendDelegate(enc, &d)
		payload = enc.Bytes()
	} else {
		var err error
		if payload, err = json.Marshal(d); err != nil {
			return nil, err
		}
	}
	fr, err := c.roundTrip(ctx, KindDelegate, payload)
	if err != nil {
		return nil, err
	}
	defer fr.release()
	if fr.kind != KindDelegate {
		return nil, errors.New("wire: unexpected frame kind in delegate response")
	}
	resp := fr.payload
	var res DelegateResult
	if codec.IsBinary(resp) {
		if res, err = decodeDelegateResult(resp); err != nil {
			return nil, fmt.Errorf("wire: bad delegate reply: %w", err)
		}
	} else if err := json.Unmarshal(resp, &res); err != nil {
		return nil, fmt.Errorf("wire: bad delegate reply: %w", err)
	}
	if !res.OK {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// CanRoute reports whether this session may carry route frames: the
// session is multiplexed and the server advertised >= 1.5 in its hello
// reply. Against an older server the sharding layer never sends a
// route frame — the submission stays local-accepted
// (docs/FEDERATION.md, "Sharded ownership").
func (c *Client) CanRoute() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muxed && RouteSupported(c.serverMajor, c.serverMinor)
}

// Route hands a submission to the peer that owns its shard and waits
// for the acceptance outcome. A result with res.NotOwner set means the
// target no longer holds the shard (ownership moved between the
// routing decision and delivery) and res.Owner names where it went —
// the caller re-resolves and retries. A transport failure returns a
// nil result; the caller cannot know whether the remote accepted.
func (c *Client) Route(ctx context.Context, rt Route) (*RouteResult, error) {
	if !c.CanRoute() {
		return nil, fmt.Errorf("%w: server does not accept route frames (need >= %s)",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, routeMinor))
	}
	// Most submits on a sharded fleet take this hop, so it rides binary
	// like the client's own frames: the JSON envelope (and the XML
	// document inside it) is only the fallback for a session that did not
	// negotiate the codec.
	var payload []byte
	if c.Binary() || codec.IsBinary(rt.Request) {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		appendRoute(enc, &rt)
		payload = enc.Bytes()
	} else {
		var err error
		if payload, err = json.Marshal(rt); err != nil {
			return nil, err
		}
	}
	fr, err := c.roundTrip(ctx, KindRoute, payload)
	if err != nil {
		return nil, err
	}
	defer fr.release()
	if fr.kind != KindRoute {
		return nil, errors.New("wire: unexpected frame kind in route response")
	}
	resp := fr.payload
	// Servers mirror the request encoding, but decoding never assumes.
	var res RouteResult
	if codec.IsBinary(resp) {
		if res, err = decodeRouteResult(resp); err != nil {
			return nil, fmt.Errorf("wire: bad route reply: %w", err)
		}
	} else if err := json.Unmarshal(resp, &res); err != nil {
		return nil, fmt.Errorf("wire: bad route reply: %w", err)
	}
	if !res.OK && res.Error != "" {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// CanReplicate reports whether this session may carry replicate
// frames: the session is multiplexed and the server advertised >= 1.6
// in its hello reply. Against an older server the replication layer
// never sends one — that follower is skipped
// (repl_skipped_peers_total) until it upgrades, the sniff-side of the
// 1.5/1.6 fallback (docs/REPLICATION.md).
func (c *Client) CanReplicate() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muxed && ReplicateSupported(c.serverMajor, c.serverMinor)
}

// Replicate delivers one replication frame — an append block of the
// local store's record stream, or a catch-up snapshot — to a follower
// and returns its ack. A result with NeedSnapshot set means the
// follower is missing records below the frame's sequence; the sender
// ships a snapshot and retries. A transport failure returns a nil
// result.
func (c *Client) Replicate(ctx context.Context, f Replicate) (*ReplicateResult, error) {
	if !c.CanReplicate() {
		return nil, fmt.Errorf("%w: server does not accept replicate frames (need >= %s)",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, replMinor))
	}
	// The envelope rides binary when the session negotiated it (>= 1.4
	// both ends): replication is the owner's hot path under quorum ack,
	// and the JSON envelope's marshal + base64 of the block is pure
	// per-frame overhead. The record block inside keeps the sender's
	// store encoding either way — envelope and block encodings are
	// independent.
	var payload []byte
	if c.Binary() {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		appendReplicate(enc, &f)
		payload = enc.Bytes()
	} else {
		var err error
		if payload, err = json.Marshal(f); err != nil {
			return nil, err
		}
	}
	fr, err := c.roundTrip(ctx, KindReplicate, payload)
	if err != nil {
		return nil, err
	}
	defer fr.release()
	if fr.kind != KindReplicate {
		return nil, errors.New("wire: unexpected frame kind in replicate response")
	}
	resp := fr.payload
	// Servers mirror the request encoding, but decoding never assumes.
	var res ReplicateResult
	if codec.IsBinary(resp) {
		if res, err = decodeReplicateResult(resp); err != nil {
			return nil, fmt.Errorf("wire: bad replicate reply: %w", err)
		}
	} else if err := json.Unmarshal(resp, &res); err != nil {
		return nil, fmt.Errorf("wire: bad replicate reply: %w", err)
	}
	if res.Error != "" {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// Repl retrieves the server's replication posture — ack mode, follower
// acknowledgement positions and standby sources — over the control
// extension. Requires a replicating 1.6 server.
func (c *Client) Repl() (*ReplInfo, error) {
	res, err := c.control("repl", "")
	if err != nil {
		return nil, err
	}
	if res.Repl == nil {
		return nil, errors.New("wire: empty repl reply")
	}
	return res.Repl, nil
}

// CanTenant reports whether the server advertised tenancy-aware wire
// support (>= 1.7) in its hello reply: the "tenants" control verb and
// token verification on submit, batch, delegate and route frames.
// Against an older server tokens are skipped and the caller is
// accounted as anonymous (docs/TENANCY.md).
func (c *Client) CanTenant() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TenantSupported(c.serverMajor, c.serverMinor)
}

// Tenants retrieves the server's tenancy posture — whether tenancy and
// token auth are enabled, the registered-tenant count, and up to limit
// per-tenant usage rows ordered by activity (0 applies the server
// default). Requires a 1.7 server.
func (c *Client) Tenants(limit int) (*TenantsInfo, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "tenants", Limit: limit})
	if err != nil {
		return nil, err
	}
	if res.Tenants == nil {
		return nil, errors.New("wire: empty tenants reply")
	}
	return res.Tenants, nil
}

// CanVdata reports whether the server advertised virtual-data wire
// support (>= 1.8) in its hello reply: the "vdata" control verb for
// fleet-wide derivation lookup, publish and invalidation. Against an
// older server the memoization plane degrades to local-only
// (docs/VDATA.md).
func (c *Client) CanVdata() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return VdataSupported(c.serverMajor, c.serverMinor)
}

// vdataMsg sends one "vdata" sub-operation, carrying the session token
// and the claimed tenant identity for per-tenant re-verification.
func (c *Client) vdataMsg(msg Control) (*VdataInfo, error) {
	if !c.CanVdata() {
		return nil, fmt.Errorf("%w: server does not speak the vdata verb (need >= %s)",
			dgferr.ErrProtocol, ProtoVersion(ProtoMajor, vdataMinor))
	}
	msg.Op = "vdata"
	if msg.Token == "" {
		msg.Token = c.Token()
	}
	res, err := c.controlMsg(context.Background(), msg)
	if err != nil {
		return nil, err
	}
	if res.Vdata == nil {
		return nil, errors.New("wire: empty vdata reply")
	}
	return res.Vdata, nil
}

// VdataStats retrieves the server's derivation-catalog shape. Requires
// a 1.8 server; Enabled false means no catalog is attached there.
func (c *Client) VdataStats() (*VdataInfo, error) {
	return c.vdataMsg(Control{Sub: "stats"})
}

// VdataLookup resolves a derivation key in the server's catalog under
// the given tenant identity. ok false with a nil error means the server
// holds no such derivation (or holds it under another tenant).
func (c *Client) VdataLookup(user, key string) (*vdata.Entry, bool, error) {
	info, err := c.vdataMsg(Control{Sub: "lookup", User: user, Key: key})
	if err != nil {
		return nil, false, err
	}
	if !info.Found || info.Entry == nil {
		return nil, false, nil
	}
	return info.Entry, true, nil
}

// VdataPublish records a derivation in the server's catalog under the
// caller's resolved tenant (the entry's own Tenant field is overridden
// server-side — no cross-tenant writes).
func (c *Client) VdataPublish(user string, ent vdata.Entry) error {
	raw, err := json.Marshal(ent)
	if err != nil {
		return err
	}
	_, err = c.vdataMsg(Control{Sub: "publish", User: user, Data: string(raw)})
	return err
}

// VdataInvalidate drops the tenant's derivations matching target — a
// derivation key or an output path — returning how many were removed.
func (c *Client) VdataInvalidate(user, target string) (int, error) {
	info, err := c.vdataMsg(Control{Sub: "invalidate", User: user, Key: target})
	if err != nil {
		return 0, err
	}
	return info.Removed, nil
}

// Owner asks the server which peer owns a flow or execution id,
// resolved from tracked accepts, owner-prefixed ids, or the shard
// ring (OwnerInfo.Source says which). Requires a sharded 1.5 server.
func (c *Client) Owner(id string) (*OwnerInfo, error) {
	res, err := c.control("owner", id)
	if err != nil {
		return nil, err
	}
	if res.Owner == nil {
		return nil, fmt.Errorf("%w: server reported no owner for %s", dgferr.ErrNotFound, id)
	}
	return res.Owner, nil
}

// Pause suspends an execution on the server.
func (c *Client) Pause(id string) error {
	_, err := c.control("pause", id)
	return err
}

// Resume continues a paused execution.
func (c *Client) Resume(id string) error {
	_, err := c.control("resume", id)
	return err
}

// Cancel stops an execution.
func (c *Client) Cancel(id string) error {
	_, err := c.control("cancel", id)
	return err
}

// Restart re-runs a terminal execution, returning the new execution id.
func (c *Client) Restart(id string) (string, error) {
	res, err := c.control("restart", id)
	if err != nil {
		return "", err
	}
	return res.ID, nil
}

// List returns the server's tracked executions.
func (c *Client) List() ([]ExecutionInfo, error) {
	res, err := c.control("list", "")
	if err != nil {
		return nil, err
	}
	return res.Executions, nil
}

// StoreStats retrieves the server's flow-state store summary (segment
// count, snapshot lag, passivated/resident counts) over the control
// extension.
func (c *Client) StoreStats() (*StoreInfo, error) {
	res, err := c.control("store", "")
	if err != nil {
		return nil, err
	}
	if res.Store == nil {
		return nil, errors.New("wire: empty store reply")
	}
	return res.Store, nil
}

// Compact asks the server to compact its flow-state store, returning
// the post-compaction summary with the compaction's record counts.
func (c *Client) Compact() (*StoreInfo, error) {
	res, err := c.control("compact", "")
	if err != nil {
		return nil, err
	}
	if res.Store == nil {
		return nil, errors.New("wire: empty compact reply")
	}
	return res.Store, nil
}

// Metrics retrieves the server engine's metrics snapshot over the
// control extension — the wire twin of the -metrics-addr HTTP endpoint.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	res, err := c.control("metrics", "")
	if err != nil {
		return nil, err
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("wire: empty metrics reply")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(res.Metrics, &snap); err != nil {
		return nil, fmt.Errorf("wire: bad metrics reply: %w", err)
	}
	return &snap, nil
}
