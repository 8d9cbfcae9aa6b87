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
//   - routeLease and routeServed: the Server hooks that are this peer's
//     part of the terminal hop on the owning peer (Server.serveRoute).
//   - resolveOwner: the "owner" control verb.
//   - RebalanceShards: the claim → drain cycle, driven from the
//     federation heartbeat.
//
// Every availability edge falls back to accepting locally rather than
// refusing the flow: an unassigned shard, an unreachable owner after
// bounded retries. The
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
// and the "owner" control verb resolves. Call before Start.
func (p *Peer) EnableSharding(mgr *shard.Manager) {
	p.shardMgr = mgr
	p.server.submitRouter = p.routeSubmit
	p.server.routeLease, p.server.routeServed = p.routeLease, p.routeServed
	p.server.ownerResolver = p.resolveOwner
}

// ShardManager returns the peer's shard manager (nil when unsharded).
func (p *Peer) ShardManager() *shard.Manager { return p.shardMgr }

// routeSubmit is the Server.submitRouter hook: it owns placement of
// every wire flow submission on a sharded peer. "local" requests pin
// here; anything else resolves the shard owner and forwards, with
// bounded retries across ownership movement and a local-accept
// fallback when no owner is reachable — availability over placement.
// The decision reads the submission's head: a binary document routed
// onward is never decoded here, and the route envelope carries it as it
// came. The reply goes into rp in the request's encoding: a routed
// submission's is the owner's response document, relayed from the
// owner's reply frame as it came (transcoded for an XML session), with
// no copy and nothing decoded.
func (p *Peer) routeSubmit(sub *submission, rp *reply) {
	mgr := p.shardMgr
	bin := sub.bin
	sh := mgr.ShardOf(RoutingKey(sub.user, sub.head.Flow))
	if sub.head.Route == dgl.RouteLocal {
		p.acceptLocal(sub, sh, "local", rp)
		return
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
			p.acceptLocal(sub, sh, "unassigned", rp)
			return
		}
	}
	if holder == p.Name {
		p.acceptLocal(sub, sh, "local", rp)
		return
	}
	// The token rides the route envelope so the owning peer re-verifies
	// the same identity the accepting peer did (docs/TENANCY.md), and
	// runs the document as it (Server.serveRoute). A binary document goes
	// as it came; an XML one, decoded on arrival, goes binary.
	rt := Route{User: sub.user, Token: sub.head.Token, Request: sub.doc, Shard: sh, Origin: p.Name}
	if sub.req != nil {
		rt.Request = codec.RequestDoc(sub.req)
	}
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
				p.acceptLocal(sub, sh, "failover", rp)
				return
			}
			continue
		}
		res, fr, rerr := client.route(context.Background(), &rt)
		if rerr != nil {
			// Transport failure: the owner may be dead. Drop the pooled
			// connection and attempt a takeover before retrying.
			p.DropClient(holder)
			next, recovered := p.claimShard(sh)
			if !recovered || next == holder {
				break
			}
			holder = next
			if holder == p.Name {
				p.acceptLocal(sub, sh, "failover", rp)
				return
			}
			continue
		}
		if res.NotOwner {
			fr.release()
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
				p.acceptLocal(sub, sh, "failover", rp)
				return
			}
			continue
		}
		p.countRoute("routed")
		if !res.OK {
			// The owner refused the submission and reported a typed
			// failure — that is the answer, not a routing problem.
			fr.release()
			rp.fail(dgferr.Decode(res.Error), bin)
			return
		}
		rp.relay = fr // the reply is the owner's, in its frame
		rp.forward(res.Response, bin)
		return
	}
	// Retries exhausted with no reachable owner: keep the flow here so
	// the submission survives the owner's death (E15's failover path).
	p.acceptLocal(sub, sh, "failover", rp)
}

// acceptLocal pins a submission to this peer's engine, decoding it if
// it is not yet, and writes its reply into rp, tracking owned async
// accepts for drain hand-off. outcome labels the routing path in
// shard_routes_total.
func (p *Peer) acceptLocal(sub *submission, sh int, outcome string, rp *reply) {
	p.countRoute(outcome)
	req, err := sub.request()
	if err != nil {
		rp.fail(err, sub.bin)
		return
	}
	req.Route = dgl.RouteLocal // terminal: never re-routed
	if id := p.server.submit(req, sub.bin, rp); id != "" && req.Async && p.shardMgr.Owns(sh) {
		p.shardMgr.Track(id, sh)
	}
}

// claimShard opportunistically claims one shard, adopting the
// registry's resulting owner map. It returns the shard's live holder —
// this peer on a granted claim, the refusing holder otherwise.
func (p *Peer) claimShard(sh int) (string, bool) {
	if p.lookup == nil {
		return "", false
	}
	owners, err := p.registry().ClaimShards(p.Name, []int{sh})
	if err != nil {
		return "", false
	}
	p.shardMgr.SetOwners(owners)
	return p.shardMgr.OwnerOfShard(sh)
}

// routeLease is the Server.routeLease hook: the lease check of a shard
// placement's route hop. It refuses with NotOwner, and the live holder
// as a forwarding hint, when this peer no longer holds the shard.
func (p *Peer) routeLease(sh int) (RouteResult, bool) {
	if p.shardMgr.Owns(sh) {
		return RouteResult{}, true
	}
	holder, _ := p.shardMgr.OwnerOfShard(sh)
	p.countRoute("refused")
	return RouteResult{NotOwner: true, Owner: holder, Error: dgferr.Encode(fmt.Errorf(
		"%w: peer %s does not own shard %d", dgferr.ErrResourceDown, p.Name, sh))}, false
}

// routeServed is the Server.routeServed hook: it tracks an async
// placement the route hop accepted, for drain hand-off.
func (p *Peer) routeServed(id string, sh int, async bool) {
	if async {
		p.shardMgr.Track(id, sh)
	}
	p.countRoute("served")
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
			return p.registry().ClaimShards(p.Name, shards)
		},
		func(shards []int) error {
			_, err := p.registry().ReleaseShards(p.Name, shards)
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
