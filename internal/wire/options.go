package wire

import (
	"context"
	"errors"
	"fmt"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
)

// RouteMode is a submission's placement preference on a sharded
// network (WithRoute).
type RouteMode string

// Route modes.
const (
	// RouteAuto lets the accepting peer forward the flow to its shard
	// owner — the default behaviour of a sharded peer.
	RouteAuto RouteMode = RouteMode(dgl.RouteAuto)
	// RouteLocal pins the flow to the peer this client is connected
	// to, bypassing ring routing.
	RouteLocal RouteMode = RouteMode(dgl.RouteLocal)
)

// submitCfg collects the functional options of Client.Submit.
type submitCfg struct {
	async   bool
	route   RouteMode
	user    string
	token   string
	batch   []*dgl.Request
	isBatch bool
}

// apply sets what the options ask for on a copy of a caller's request;
// the caller's own is never mutated.
func (c *submitCfg) apply(pr *dgl.Request) {
	if c.async {
		pr.Async = true
	}
	if c.route != "" {
		pr.Route = string(c.route)
	}
	if c.token != "" {
		pr.Token = c.token
	}
}

// SubmitOption configures one Client.Submit call.
type SubmitOption func(*submitCfg)

// WithAsync submits asynchronously: the server acknowledges with an
// execution id immediately and the flow runs in the background
// (SubmitResult.ID carries the id). Applies to every request of the
// call, batch items included.
func WithAsync() SubmitOption {
	return func(c *submitCfg) { c.async = true }
}

// WithRoute sets the submission's placement preference on a sharded
// network: RouteAuto forwards to the shard owner (the default on
// sharded peers), RouteLocal pins to the connected peer. Non-sharded
// servers ignore it.
func WithRoute(mode RouteMode) SubmitOption {
	return func(c *submitCfg) { c.route = mode }
}

// WithBatch adds more requests to the call: the primary request (when
// non-nil) and every batched one travel in a single KindBatch round
// trip on a multiplexed session (sequential submission against serial
// servers), answered positionally in SubmitResult.Responses.
// WithBatch() with no arguments still selects the batch reply shape
// for a single request.
func WithBatch(reqs ...*dgl.Request) SubmitOption {
	return func(c *submitCfg) {
		c.isBatch = true
		c.batch = append(c.batch, reqs...)
	}
}

// WithToken attaches a tenant bearer token (tenant.Authority.Mint,
// docs/TENANCY.md) to every request of the call. On a tenancy-enabled
// 1.7 server the verified token identity — not the claimed gridUser —
// is what admission scheduling, quotas and provenance account the work
// to; it overrides any session-level Client.SetToken for this call.
// Pre-1.7 servers skip the token and account the caller as anonymous.
func WithToken(tok string) SubmitOption {
	return func(c *submitCfg) { c.token = tok }
}

// WithUser names the claimed identity the server accounts a batch to
// (defaults to the first request's gridUser). On tenancy-enabled
// servers the claim must match the token's tenant — WithUser is the
// unauthenticated thin sibling of WithToken, kept for untenanted
// deployments and source compatibility (docs/WIRE.md, "Migrating from
// WithUser to WithToken").
func WithUser(name string) SubmitOption {
	return func(c *submitCfg) { c.user = name }
}

// SubmitResult is the unified reply of Client.Submit.
type SubmitResult struct {
	// Response answers the primary request (nil when Submit was called
	// with a nil primary and only WithBatch requests).
	Response *dgl.Response
	// Responses answers every request of the call positionally — the
	// primary first, then the WithBatch requests. Always populated.
	Responses []*dgl.Response
	// ID is the async acknowledgement id of the primary request (""
	// for sync submissions and nil primaries).
	ID string

	one [1]*dgl.Response // backs Responses when the call was one request
}

// Submit is the single entry point for flow submission: one request,
// async or sync, optionally batched with more, with an explicit
// routing preference — all selected through functional options.
//
//	res, err := c.Submit(ctx, req)                          // sync
//	res, err := c.Submit(ctx, req, wire.WithAsync())        // async ack
//	res, err := c.Submit(ctx, req, wire.WithBatch(r2, r3))  // one round trip
//	res, err := c.Submit(ctx, req, wire.WithRoute(wire.RouteLocal))
//
// Requests are never mutated: options apply to shallow copies. The
// older entry points (SubmitContext, SubmitAsync, SubmitBatch, ...)
// remain as thin deprecated wrappers over this method's machinery.
func (c *Client) Submit(ctx context.Context, req *dgl.Request, opts ...SubmitOption) (*SubmitResult, error) {
	// The options and the one request most calls carry share an
	// allocation: options are opaque functions, so what they write to
	// cannot stay on the stack.
	var call struct {
		cfg submitCfg
		req dgl.Request
	}
	cfg := &call.cfg
	for _, o := range opts {
		o(cfg)
	}
	res := &SubmitResult{}
	if req != nil && !cfg.isBatch {
		call.req = *req
		cfg.apply(&call.req)
		resp, err := c.submitOne(ctx, &call.req)
		if err != nil {
			return nil, err
		}
		res.one[0] = resp
		res.Responses = res.one[:]
	} else {
		reqs := cfg.batch
		if req != nil {
			reqs = append([]*dgl.Request{req}, reqs...)
		}
		if len(reqs) == 0 {
			return nil, fmt.Errorf("%w: submit needs at least one request", dgferr.ErrInvalid)
		}
		prepared := make([]*dgl.Request, len(reqs))
		for i, r := range reqs {
			pr := *r
			cfg.apply(&pr)
			prepared[i] = &pr
		}
		user := cfg.user
		if user == "" {
			user = prepared[0].User.Name
		}
		resps, err := c.submitBatch(ctx, user, prepared)
		if err != nil {
			return nil, err
		}
		res.Responses = resps
	}
	if req != nil && len(res.Responses) > 0 {
		res.Response = res.Responses[0]
		if ack := res.Response.Ack; ack != nil && ack.Valid {
			res.ID = ack.ID
		}
	}
	return res, nil
}

// Err returns the primary response's typed error, decoded — nil when
// the submission succeeded. A convenience for the common
// submit-and-check call shape.
func (r *SubmitResult) Err() error {
	if r == nil || r.Response == nil || r.Response.Error == "" {
		return nil
	}
	return dgferr.Decode(r.Response.Error)
}

// Status returns the primary response's status tree, decoding a
// server-side failure into a typed error.
func (r *SubmitResult) Status() (*dgl.FlowStatus, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Response == nil || r.Response.Status == nil {
		return nil, errors.New("wire: response carries no status")
	}
	return r.Response.Status, nil
}
