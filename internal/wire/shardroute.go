package wire

import (
	"context"
	"fmt"
	"strings"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/shard"
)

// Sharded flow ownership (docs/FEDERATION.md, "Sharded ownership").
//
// A sharded peer routes every flow submission by its routing key
// (user/flowName → shard → lease holder): any peer accepts the submit,
// and the wire layer forwards it to the owner over a KindRoute frame —
// one hop, terminal at the receiver. The pieces:
//
//   - routeSubmit: the Server.submitRouter hook — the routing decision
//     on the accepting peer.
//   - handleRoute: the Server.routeHandler hook — the terminal hop on
//     the owning peer.
//   - resolveOwner: the "owner" control verb.
//   - RebalanceShards: the claim → drain cycle, driven from the
//     federation heartbeat.
//
// Every availability edge falls back to accepting locally rather than
// refusing the flow: an unassigned shard, an owner that predates wire
// 1.5, an unreachable owner after bounded retries. The
// shard_routes_total{outcome} counter says which path each submission
// took.

// routeRetries bounds how many ownership hops routeSubmit chases (a
// NotOwner refusal or dead owner per hop) before accepting locally.
const routeRetries = 3

// RoutingKey maps a submission to its placement key: flows of the same
// user and flow name always land on the same shard, wherever they were
// submitted.
func RoutingKey(user, flowName string) string {
	return user + "/" + flowName
}

// EnableSharding attaches a shard manager to this peer: flow
// submissions route to shard owners, KindRoute frames are accepted,
// and the "owner" control verb resolves. Call before Start. The
// engine gains an ownership check so an auto-routed flow that lands
// after a drain is refused rather than silently split-brained.
func (p *Peer) EnableSharding(mgr *shard.Manager) {
	p.shardMgr = mgr
	p.server.submitRouter = p.routeSubmit
	p.server.routeHandler = p.handleRoute
	p.server.ownerResolver = p.resolveOwner
	engine := p.server.Engine()
	engine.SetOwnershipCheck(func(req *dgl.Request) error {
		// Only explicitly auto-routed submissions are vetted: routed and
		// locally-pinned requests ("local") and unrouted ones ("") pass,
		// so triggers and direct engine callers are unaffected.
		if req.Route != dgl.RouteAuto || req.Flow == nil {
			return nil
		}
		holder, sh, ok := mgr.OwnerOf(RoutingKey(req.User.Name, req.Flow.Name))
		if ok && holder != mgr.Self() {
			return fmt.Errorf("%w: shard %d moved to %s during submit",
				dgferr.ErrResourceDown, sh, holder)
		}
		return nil
	})
}

// ShardManager returns the peer's shard manager (nil when unsharded).
func (p *Peer) ShardManager() *shard.Manager { return p.shardMgr }

// routeSubmit is the Server.submitRouter hook: it owns placement of
// every wire flow submission on a sharded peer. "local" requests pin
// here; anything else resolves the shard owner and forwards, with
// bounded retries across ownership movement and a local-accept
// fallback when no owner is reachable — availability over placement.
// A routed submission is answered with the owner's response document,
// which the server passes on without decoding it.
func (p *Peer) routeSubmit(req *dgl.Request) (resp *dgl.Response, doc string) {
	mgr := p.shardMgr
	key := RoutingKey(req.User.Name, req.Flow.Name)
	sh := mgr.ShardOf(key)
	if req.Route == dgl.RouteLocal {
		return p.acceptLocal(req, sh, "local"), ""
	}
	holder, ok := mgr.OwnerOfShard(sh)
	if !ok {
		// No live lease anywhere: claim it opportunistically — first
		// submission wins the shard — and fall back to a local accept if
		// the registry is unreachable.
		if h, claimed := p.claimShard(sh); claimed {
			holder, ok = h, true
		}
		if !ok {
			return p.acceptLocal(req, sh, "unassigned"), ""
		}
	}
	if holder == p.Name {
		return p.acceptLocal(req, sh, "local"), ""
	}
	// The token rides the route envelope so the owning peer re-verifies
	// the same identity the accepting peer did (docs/TENANCY.md).
	rt := Route{User: req.User.Name, Token: req.Token, Shard: sh, Origin: p.Name}
	for attempt := 0; attempt < routeRetries; attempt++ {
		client, cerr := p.clientFor(holder)
		if cerr != nil {
			// Owner unresolvable or unreachable at dial time: try to take
			// the shard over (its lease may have died with it).
			next, recovered := p.claimShard(sh)
			if !recovered || next == holder {
				break
			}
			holder = next
			if holder == p.Name {
				return p.acceptLocal(req, sh, "failover"), ""
			}
			continue
		}
		if !client.CanRoute() {
			// The owner predates wire 1.5: it cannot accept a route frame,
			// so the flow stays where it was submitted — mixed-version
			// interop keeps every peer accepting (docs/WIRE.md).
			return p.acceptLocal(req, sh, "unsupported"), ""
		}
		var err error
		if rt.Request, err = client.EncodeRequest(req); err != nil {
			return &dgl.Response{Error: dgferr.Encode(err)}, ""
		}
		res, rerr := client.Route(context.Background(), rt)
		if res == nil {
			// Transport failure: the owner may be dead. Drop the pooled
			// connection and attempt a takeover before retrying.
			p.DropClient(holder)
			next, recovered := p.claimShard(sh)
			if !recovered || next == holder {
				break
			}
			holder = next
			if holder == p.Name {
				return p.acceptLocal(req, sh, "failover"), ""
			}
			continue
		}
		if res.NotOwner {
			// Ownership moved between our routing decision and delivery;
			// chase the refusal's forwarding hint.
			next := res.Owner
			if next == "" || next == holder {
				if next, ok = p.claimShard(sh); !ok || next == holder {
					break
				}
			}
			holder = next
			if holder == p.Name {
				return p.acceptLocal(req, sh, "failover"), ""
			}
			continue
		}
		if rerr != nil {
			// The owner ran (or refused) the submission and reported a
			// typed failure — that is the answer, not a routing problem.
			p.countRoute("routed")
			return &dgl.Response{Error: dgferr.Encode(rerr)}, ""
		}
		p.countRoute("routed")
		return nil, res.Response
	}
	// Retries exhausted with no reachable owner: keep the flow here so
	// the submission survives the owner's death (E15's failover path).
	return p.acceptLocal(req, sh, "failover"), ""
}

// acceptLocal pins a submission to this peer's engine, tracking owned
// async accepts for drain hand-off. outcome labels the routing path in
// shard_routes_total.
func (p *Peer) acceptLocal(req *dgl.Request, sh int, outcome string) *dgl.Response {
	p.countRoute(outcome)
	r := *req
	r.Route = dgl.RouteLocal // terminal: never re-routed, never refused by the ownership check
	resp, err := p.server.Engine().Submit(&r)
	if err != nil {
		return &dgl.Response{Error: dgferr.Encode(err)}
	}
	if p.shardMgr.Owns(sh) && resp.Ack != nil && resp.Ack.Valid {
		p.shardMgr.Track(resp.Ack.ID, sh)
	}
	return resp
}

// claimShard opportunistically claims one shard, adopting the
// registry's resulting owner map. It returns the shard's live holder —
// this peer on a granted claim, the refusing holder otherwise.
func (p *Peer) claimShard(sh int) (string, bool) {
	if p.lookup == nil {
		return "", false
	}
	owners, err := p.lookup.ClaimShards(p.Name, []int{sh})
	if err != nil {
		return "", false
	}
	p.shardMgr.SetOwners(owners)
	return p.shardMgr.OwnerOfShard(sh)
}

// handleRoute is the Server.routeHandler hook: the terminal hop of
// shard routing. It refuses with NotOwner (and the live holder as a
// forwarding hint) when this peer no longer holds the shard, otherwise
// accepts the embedded request locally and tracks async accepts for
// drain hand-off.
func (p *Peer) handleRoute(rt Route) RouteResult {
	mgr := p.shardMgr
	if !mgr.Owns(rt.Shard) {
		holder, _ := mgr.OwnerOfShard(rt.Shard)
		p.countRoute("refused")
		return RouteResult{NotOwner: true, Owner: holder, Error: dgferr.Encode(fmt.Errorf(
			"%w: peer %s does not own shard %d", dgferr.ErrResourceDown, p.Name, rt.Shard))}
	}
	req, err := codec.DecodeRequestDoc([]byte(rt.Request))
	if err != nil {
		return RouteResult{Error: dgferr.Encode(
			fmt.Errorf("%w: bad routed request: %v", dgferr.ErrInvalid, err))}
	}
	if req.Flow == nil {
		return RouteResult{Error: dgferr.Encode(
			fmt.Errorf("%w: routed request carries no flow", dgferr.ErrInvalid))}
	}
	req.Route = dgl.RouteLocal // terminal hop: one forward, no loops
	resp, err := p.server.Engine().Submit(req)
	if err != nil {
		return RouteResult{Error: dgferr.Encode(err)}
	}
	if resp.Ack != nil && resp.Ack.Valid {
		mgr.Track(resp.Ack.ID, rt.Shard)
	}
	// The reply document mirrors the request document's encoding, so a
	// binary one only ever rides the binary envelope that carried it in.
	var doc string
	if codec.IsBinary(rt.Request) {
		enc := codec.GetEncoder()
		codec.AppendResponse(enc, resp)
		doc = string(enc.Bytes())
		codec.PutEncoder(enc)
	} else {
		data, merr := dgl.Marshal(resp)
		if merr != nil {
			return RouteResult{Error: dgferr.Encode(merr)}
		}
		doc = string(data)
	}
	p.countRoute("served")
	return RouteResult{OK: true, Response: doc}
}

// resolveOwner services the "owner" control verb: which peer owns an
// execution id or routing key, and how we know (OwnerInfo.Source).
func (p *Peer) resolveOwner(id string) (*OwnerInfo, error) {
	mgr := p.shardMgr
	exec := id
	if i := strings.IndexByte(id, '/'); i >= 0 && OwnerOf(id) != "" {
		// Only peel node suffixes off prefixed execution ids: a bare
		// "user/flow" string is a routing key, whose '/' is structural.
		exec = id[:i]
	}
	if sh, ok := mgr.TrackedShard(exec); ok {
		return &OwnerInfo{ID: id, Peer: p.Name, Addr: p.addr, Shard: sh, Source: "tracked"}, nil
	}
	if owner := OwnerOf(exec); owner != "" {
		info := &OwnerInfo{ID: id, Peer: owner, Shard: -1, Source: "prefix"}
		p.fillOwnerAddr(info)
		return info, nil
	}
	if holder, sh, ok := mgr.OwnerOf(id); ok {
		info := &OwnerInfo{ID: id, Peer: holder, Shard: sh, Source: "ring"}
		p.fillOwnerAddr(info)
		return info, nil
	}
	return nil, fmt.Errorf("%w: no owner known for %s", dgferr.ErrNotFound, id)
}

// fillOwnerAddr best-effort resolves an owner's wire address.
func (p *Peer) fillOwnerAddr(info *OwnerInfo) {
	if info.Peer == p.Name {
		info.Addr = p.addr
		return
	}
	if p.lookup != nil {
		if addr, err := p.lookup.Resolve(info.Peer); err == nil {
			info.Addr = addr
		}
	}
}

// RebalanceShards runs one claim → drain cycle over the live member
// set (the federation heartbeat's gossip view): claim what the ring
// assigns us, adopt the registry's owner map, and drain shards the
// ring moved away — parking their tracked flows in the flow-state
// store so only new submissions land on the new owner. Reports whether
// the owned set changed.
func (p *Peer) RebalanceShards(members []string) bool {
	mgr := p.shardMgr
	if mgr == nil || p.lookup == nil {
		return false
	}
	// Replication follows the same membership view: follower placement
	// tracks the ring, and a vanished member's replica is promoted by
	// its successor (repl.go) — the disk-loss half of the failover this
	// claim/drain cycle handles the lease half of.
	defer p.refreshReplication(members)
	return mgr.Rebalance(members,
		func(shards []int) (map[int]string, error) {
			return p.lookup.ClaimShards(p.Name, shards)
		},
		func(shards []int) error {
			_, err := p.lookup.ReleaseShards(p.Name, shards)
			return err
		},
		p.drainShard)
}

// drainShard parks a drained shard's tracked flows via store
// passivation. Stores are per-peer, so an already-accepted flow stays
// recoverable on this peer (it resurrects here on demand); the drain
// moves future placement, not history.
func (p *Peer) drainShard(sh int, execIDs []string) {
	engine := p.server.Engine()
	for _, id := range execIDs {
		// Best-effort: a running or storeless execution stays resident
		// and tracked; the next rebalance prunes what has finished.
		if err := engine.Passivate(id); err == nil {
			p.shardMgr.Untrack(id)
		}
	}
}

// countRoute counts one routing outcome in shard_routes_total.
func (p *Peer) countRoute(outcome string) {
	p.server.Engine().Obs().Counter("shard_routes_total", "outcome", outcome).Inc()
}
