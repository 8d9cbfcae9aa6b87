package wire

import (
	"context"
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

// SubmitOption configures one Client.Submit call. It is a plain value:
// building one allocates nothing, and Submit merges the options of a
// call in order, a later route or token replacing an earlier one
// (an empty one replaces nothing).
type SubmitOption struct {
	async   bool
	route   RouteMode
	token   string
	batch   []*dgl.Request
	isBatch bool
}

// merge adds o to the options collected so far.
func (c *SubmitOption) merge(o SubmitOption) {
	c.async = c.async || o.async
	if o.route != "" {
		c.route = o.route
	}
	if o.token != "" {
		c.token = o.token
	}
	if o.isBatch {
		c.isBatch = true
		c.batch = append(c.batch, o.batch...)
	}
}

// apply sets what the options ask for on a copy of a caller's request;
// the caller's own is never mutated.
func (c *SubmitOption) apply(pr *dgl.Request) {
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

// WithAsync submits asynchronously: the server acknowledges with an
// execution id immediately and the flow runs in the background
// (SubmitResult.ID carries the id). Applies to every request of the
// call, batch items included.
func WithAsync() SubmitOption { return SubmitOption{async: true} }

// WithRoute sets the submission's placement preference on a sharded
// network: RouteAuto forwards to the shard owner (the default on
// sharded peers), RouteLocal pins to the connected peer. Non-sharded
// servers ignore it.
func WithRoute(mode RouteMode) SubmitOption { return SubmitOption{route: mode} }

// WithBatch adds more requests to the call: the primary request (when
// non-nil) and every batched one travel in a single KindBatch round
// trip, answered positionally in SubmitResult.Responses. The batch is
// accounted to its first request's gridUser, or to the token's tenant.
// WithBatch() with no arguments still selects the batch reply shape
// for a single request.
func WithBatch(reqs ...*dgl.Request) SubmitOption {
	return SubmitOption{batch: reqs, isBatch: true}
}

// WithToken attaches a tenant bearer token (tenant.Authority.Mint,
// docs/TENANCY.md) to every request of the call. On a tenancy-enabled
// server the verified token identity — not the claimed gridUser — is
// what admission scheduling, quotas and provenance account the work
// to; it overrides any session-level Client.SetToken for this call.
func WithToken(tok string) SubmitOption { return SubmitOption{token: tok} }

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
// routing preference — all selected through options (SubmitOption).
//
//	res, err := c.Submit(ctx, req)                          // sync
//	res, err := c.Submit(ctx, req, wire.WithAsync())        // async ack
//	res, err := c.Submit(ctx, req, wire.WithBatch(r2, r3))  // one round trip
//	res, err := c.Submit(ctx, req, wire.WithRoute(wire.RouteLocal))
//
// Requests are never mutated: options apply to shallow copies. The
// context's deadline bounds the round trip and its cancellation
// abandons the request without disturbing others on the connection.
func (c *Client) Submit(ctx context.Context, req *dgl.Request, opts ...SubmitOption) (*SubmitResult, error) {
	var cfg SubmitOption
	for _, o := range opts {
		cfg.merge(o)
	}
	res := &SubmitResult{}
	if req != nil && !cfg.isBatch {
		one := *req
		cfg.apply(&one)
		resp, err := c.submitOne(ctx, &one)
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
		resps, err := c.submitBatch(ctx, prepared)
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
