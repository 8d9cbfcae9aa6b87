package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/vdata"
)

// dialTimeout bounds Dial: connecting and the hello exchange, so that a
// server which accepts and never answers cannot hang it.
const dialTimeout = 10 * time.Second

// Client is a connection to one matrix server. Dial opens it and runs
// the hello exchange; from then on any number of goroutines may issue
// requests concurrently over the one connection, each completed
// through its own call slot when the matching response id arrives.
//
// Server-reported failures come back as typed errors: the server
// encodes its error class on the wire (docs/WIRE.md, "Typed errors")
// and the client rebuilds it, so errors.Is against the datagridflow
// sentinels (ErrNotFound, ErrRetryExhausted, ...) works across the
// network. A connection lost with requests in flight fails every one
// of them with a resource-down class error — never a hang.
type Client struct {
	mu      sync.Mutex
	fc      *frameConn
	closed  bool
	nextID  uint64
	pending map[uint64]*muxCall
	readErr error // terminal: set once the read loop exits
	// xml is set by DisableBinary: DGL documents go out as XML.
	// Responses are decoded by sniffing, so it only governs what this
	// client sends.
	xml bool
	// token is the tenant bearer token attached to every frame that
	// carries one (SetToken, docs/TENANCY.md).
	token string
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
// frame, or the error of the connection that died first.
type muxReply struct {
	frame
	err error
}

var muxCalls = sync.Pool{New: func() any { return &muxCall{reply: make(chan muxReply, 1)} }}

// Dial connects to a matrix server and runs the hello exchange, within
// dialTimeout.
func Dial(addr string) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a matrix server and runs the hello exchange,
// honouring the context's deadline and cancellation for both. A server
// that speaks another protocol version fails it with a typed
// dgferr.ErrProtocol.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{fc: newFrameConn(conn, nil), pending: make(map[uint64]*muxCall)}
	go c.readLoop()
	if _, err := c.hello(ctx); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// SetToken attaches a tenant bearer token (tenant.Authority.Mint,
// docs/TENANCY.md) to every subsequent submit, batch, control and route
// frame. Hello offers it for verification up front. An empty
// string detaches.
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

// Close closes the connection. Pipelined requests still in flight fail
// with a cancelled-class error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	fc := c.fc
	c.mu.Unlock()
	return fc.Close()
}

// Binary reports whether this client sends DGL documents in the binary
// codec (the default) rather than as XML.
func (c *Client) Binary() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.xml
}

// DisableBinary makes this client send DGL documents — kind-1 requests
// and batch items — as XML, the paper's client-facing form; the server
// answers each in kind. Envelopes stay binary. Safe at any point: it
// applies from the next request on.
func (c *Client) DisableBinary() {
	c.mu.Lock()
	c.xml = true
	c.mu.Unlock()
}

// roundTrip pipelines one request: write the frame with a fresh id,
// then wait in the call slot registered under it. Cancellation abandons
// the request (the response, if it ever arrives, is discarded) without
// disturbing other in-flight requests. The response frame's payload is
// pooled: the caller parses it and releases the frame.
func (c *Client) roundTrip(ctx context.Context, kind byte, payload []byte) (frame, error) {
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
	c.mu.Unlock()

	if err := c.fc.w.write(kind, id, payload); err != nil {
		if rerr := c.abandon(id, call); rerr != nil {
			return frame{}, rerr
		}
		return frame{}, fmt.Errorf("%w: wire: write: %v", dgferr.ErrResourceDown, err)
	}
	select {
	case r := <-call.reply:
		muxCalls.Put(call) // received: nothing else is coming
		return r.frame, r.err
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

// readLoop is the response pump: it matches response ids to pending
// requests until the connection dies, then fails everything still in
// flight.
func (c *Client) readLoop() {
	for {
		fr, err := c.fc.r.next()
		if err != nil {
			c.failAll(err)
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

// failAll records the terminal connection error and fails every
// in-flight request with a typed error: cancelled if the client closed
// the connection itself, resource-down (transient — retry on a fresh
// connection) otherwise.
func (c *Client) failAll(cause error) {
	c.mu.Lock()
	if c.closed {
		c.readErr = fmt.Errorf("%w: wire: client closed", dgferr.ErrCancelled)
	} else {
		c.readErr = fmt.Errorf("%w: wire: connection lost: %v", dgferr.ErrResourceDown, cause)
	}
	pending, err := c.pending, c.readErr
	c.pending = make(map[uint64]*muxCall)
	c.mu.Unlock()
	for _, call := range pending {
		call.reply <- muxReply{err: err}
	}
}

// submitOne is the single-request transport core of Submit.
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
	return c.call(ctx, KindDGL, data)
}

// call sends one frame and returns the reply, which must be of the same
// kind, for the caller to parse and release.
func (c *Client) call(ctx context.Context, kind byte, payload []byte) (frame, error) {
	fr, err := c.roundTrip(ctx, kind, payload)
	if err != nil {
		return frame{}, err
	}
	if fr.kind != kind {
		fr.release()
		return frame{}, fmt.Errorf("wire: %s reply came in a %s frame", kindName(kind), kindName(fr.kind))
	}
	return fr, nil
}

// parseResponsePayload sniffs a DGL response payload's encoding —
// servers mirror the request encoding, but decoding never assumes.
func parseResponsePayload(payload []byte) (*dgl.Response, error) {
	if codec.IsBinary(payload) {
		return codec.DecodeResponse(payload)
	}
	return dgl.ParseResponse(payload)
}

// submitBatch is the batch transport core of Submit. The reply is
// positional: item i's response answers reqs[i], with per-item failures
// carried in each response's Error field (decode with dgferr.Decode). A
// transport failure aborts the whole call with a typed error. The
// server's admission scheduler accounts the batch to the first
// request's gridUser and token, or to the session token.
func (c *Client) submitBatch(ctx context.Context, reqs []*dgl.Request) ([]*dgl.Response, error) {
	token := reqs[0].Token
	if token == "" {
		token = c.Token()
	}
	// Each item is encoded into a pooled scratch buffer and streamed
	// straight into the envelope — one copy per item. Collecting the
	// items first would copy every payload twice, which dominates batch
	// CPU once items carry multi-kilobyte variable sets.
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendBatchStart(enc, reqs[0].User.Name, token)
	if c.Binary() {
		ie := codec.GetEncoder()
		for _, req := range reqs {
			ie.Reset()
			codec.AppendRequest(ie, req)
			appendBatchItem(enc, ie.Bytes())
		}
		codec.PutEncoder(ie)
	} else {
		text := textBufs.Get().(*[]byte)
		defer textBufs.Put(text)
		for i, req := range reqs {
			var err error
			if *text, err = dgl.AppendXML((*text)[:0], req); err != nil {
				return nil, fmt.Errorf("wire: batch item %d: %w", i, err)
			}
			appendBatchItem(enc, *text)
		}
	}
	fr, err := c.call(ctx, KindBatch, enc.Bytes())
	if err != nil {
		return nil, err
	}
	// The item documents below alias the frame until each is parsed.
	defer fr.release()
	ok, errText, docs, err := decodeBatchResult(fr.payload)
	if err != nil {
		return nil, fmt.Errorf("wire: bad batch reply: %w", err)
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

// Status queries the status of an execution, flow or step id. A server
// that belongs to a peer network answers for an id any peer owns
// (docs/WIRE.md), asking the owner with the session's token.
func (c *Client) Status(user, id string, detail bool) (*dgl.FlowStatus, error) {
	resp, err := c.submitOne(context.Background(), dgl.NewStatusRequest(user, id, detail))
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

// controlMsg sends one control frame carrying the session token, unless
// msg carries its own, and decodes a refusal into a typed error.
func (c *Client) controlMsg(ctx context.Context, msg Control) (ControlResult, error) {
	if msg.Token == "" {
		msg.Token = c.Token()
	}
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendControl(enc, &msg)
	fr, err := c.call(ctx, KindControl, enc.Bytes())
	if err != nil {
		return ControlResult{}, err
	}
	defer fr.release()
	res, err := decodeControlResult(fr.payload)
	if err != nil {
		return ControlResult{}, fmt.Errorf("wire: bad control reply: %w", err)
	}
	if !res.OK && res.Error != "" {
		return res, dgferr.Decode(res.Error)
	}
	return res, nil
}

// Hello repeats the hello exchange Dial ran, offering the token set
// with SetToken since: the server verifies it, and a forged or expired
// one fails with a typed dgferr.ErrAuth. It returns the server's
// protocol version.
func (c *Client) Hello() (serverProto string, err error) {
	return c.hello(context.Background())
}

// hello offers ProtoVersion and the session token. A reply naming
// another version fails it with a typed dgferr.ErrProtocol, as the
// server fails a hello offering one.
func (c *Client) hello(ctx context.Context) (string, error) {
	res, err := c.controlMsg(ctx, Control{Op: "hello", Proto: ProtoVersion})
	if err != nil {
		return "", err
	}
	if res.Proto != ProtoVersion {
		return "", fmt.Errorf("%w: server speaks protocol %q, client %q", dgferr.ErrProtocol, res.Proto, ProtoVersion)
	}
	return res.Proto, nil
}

// Run hands a flow to the peer on a route frame — a delegation when rt
// names its parent node — and returns the response document of its run
// there, whose error is the run's own outcome. An error with no response
// means the work did not run to an outcome there: the peer refused it or
// ended the run (a typed error), or no usable reply came, after which
// the caller cannot know whether the peer ran anything. Either way the
// caller may move the work.
func (c *Client) Run(ctx context.Context, rt *Route) (*dgl.Response, error) {
	res, fr, err := c.route(ctx, rt)
	if err != nil {
		return nil, err
	}
	defer fr.release()
	if !res.OK {
		return nil, fmt.Errorf("wire: route refused: %w", dgferr.Decode(res.Error))
	}
	return codec.DecodeResponse(res.Response)
}

// route sends a route frame — a submission to the peer that owns its
// shard, or a delegation — and waits for the reply. A result with
// NotOwner set means the target no longer holds the shard (ownership
// moved between the routing decision and delivery) and Owner names
// where it went — the caller re-resolves and retries. The result's
// Response aliases the reply frame, which the caller releases once done
// with both. An error means no usable reply came — a transport failure,
// after which the caller cannot know whether the remote accepted — and
// there is no frame.
func (c *Client) route(ctx context.Context, rt *Route) (RouteResult, frame, error) {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendRoute(enc, rt)
	fr, err := c.call(ctx, KindRoute, enc.Bytes())
	if err != nil {
		return RouteResult{}, frame{}, err
	}
	res, err := decodeRouteResult(fr.payload)
	if err != nil {
		fr.release()
		return RouteResult{}, frame{}, fmt.Errorf("wire: bad route reply: %w", err)
	}
	return res, fr, nil
}

// Replicate delivers one replication frame — an append block of the
// local store's record stream, or a catch-up snapshot — to a follower
// and returns its ack. A result with NeedSnapshot set means the
// follower is missing records below the frame's sequence; the sender
// ships a snapshot and retries. A transport failure returns a nil
// result.
func (c *Client) Replicate(ctx context.Context, f Replicate) (*ReplicateResult, error) {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendReplicate(enc, &f)
	fr, err := c.call(ctx, KindReplicate, enc.Bytes())
	if err != nil {
		return nil, err
	}
	defer fr.release()
	res, err := decodeReplicateResult(fr.payload)
	if err != nil {
		return nil, fmt.Errorf("wire: bad replicate reply: %w", err)
	}
	if res.Error != "" {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// Repl retrieves the server's replication posture — ack mode, follower
// acknowledgement positions and standby sources — over the control
// extension. Requires a replicating server.
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

// Tenants retrieves the server's tenancy posture — whether tenancy and
// token auth are enabled, the registered-tenant count, and up to limit
// per-tenant usage rows ordered by activity (0 applies the server
// default).
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

// vdataMsg sends one "vdata" sub-operation, carrying the claimed tenant
// identity for per-tenant re-verification.
func (c *Client) vdataMsg(msg Control) (*VdataInfo, error) {
	msg.Op = "vdata"
	res, err := c.controlMsg(context.Background(), msg)
	if err != nil {
		return nil, err
	}
	if res.Vdata == nil {
		return nil, errors.New("wire: empty vdata reply")
	}
	return res.Vdata, nil
}

// VdataStats retrieves the server's derivation-catalog shape; Enabled
// false means no catalog is attached there.
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
// ring (OwnerInfo.Source says which). Requires a sharded server.
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

// Metrics retrieves the server engine's metrics over the control
// extension: the text exposition the -metrics-addr HTTP endpoint
// serves, as the server rendered it.
func (c *Client) Metrics() ([]byte, error) {
	res, err := c.control("metrics", "")
	if err != nil {
		return nil, err
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("wire: empty metrics reply")
	}
	return res.Metrics, nil
}
