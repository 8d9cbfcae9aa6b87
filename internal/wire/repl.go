package wire

import (
	"context"
	"errors"
	"time"

	"datagridflow/internal/replica"
)

// Replicated lifecycle stores (docs/REPLICATION.md).
//
// A replicating peer streams its flow-state store's record log to
// follower peers over kind-6 replicate frames and holds
// replicas of the peers it follows. When the registry declares an owner
// dead, the owner's ring successor promotes its replica: the live
// entries are adopted into the successor's engine — re-persisted, so
// they are durable there and re-replicated onward — and takeover costs
// O(live flows), not a full log replay, with zero acknowledged-
// record loss in quorum mode. The pieces:
//
//   - EnableReplication: wires a replica.Sender to the store tap and a
//     replica.Receiver to the server's kind-6 handler.
//   - replDeliver: the sender's transport callback over the pooled
//     peer clients.
//   - refreshReplication: follower placement + dead-owner promotion,
//     driven from the same membership tick as shard leases (Beat).

// ReplicationConfig configures EnableReplication.
type ReplicationConfig struct {
	// Followers is how many follower peers back this owner (1–2
	// typical; `-repl-followers`). Placement is the peer's ring
	// successors in the live member set — deterministically anti-affine
	// to the owner.
	Followers int
	// Mode is the ack mode (`-repl-ack`): quorum or async.
	Mode replica.AckMode
	// Dir is the replica root; each followed source gets a full replica
	// store under <Dir>/<source> (`-repl-dir`).
	Dir string
	// Binary is ignored: the link ships binary record frames and a
	// replica store is written from them as they came
	// (docs/REPLICATION.md). The field goes once the benchmark stops
	// setting it (ROADMAP item 16).
	Binary bool
	// AckTimeout bounds quorum waits (default 2s).
	AckTimeout time.Duration
}

// EnableReplication turns this peer into a replicating node: its store's
// durable record stream fans out to follower peers, and the kind-6
// handler accepts (and re-persists) other owners' streams. Call after
// the engine's store is attached and before Start.
func (p *Peer) EnableReplication(cfg ReplicationConfig) error {
	engine := p.server.Engine()
	st := engine.Store()
	if st == nil {
		return errors.New("wire: replication needs the engine's flow-state store (-store)")
	}
	if cfg.Followers <= 0 {
		cfg.Followers = 1
	}
	recv, err := replica.NewReceiver(replica.ReceiverConfig{
		Dir: cfg.Dir,
		Obs: engine.Obs(),
	})
	if err != nil {
		return err
	}
	p.replCfg = cfg
	p.replReceiver = recv
	p.replSender = replica.NewSender(replica.SenderConfig{
		Source:     p.Name,
		Mode:       cfg.Mode,
		AckTimeout: cfg.AckTimeout,
		Send:       p.replDeliver,
		Snapshot: func() (Replicate, error) {
			recs, seq := st.SnapshotRecords()
			block, err := replica.EncodeBlock(recs, true)
			if err != nil {
				return Replicate{}, err
			}
			return Replicate{Seq: seq, Count: len(recs), Block: block}, nil
		},
		Obs: engine.Obs(),
	})
	p.server.replHandler = recv.Apply
	p.server.replResolver = p.replInfo
	st.SetTap(p.replSender)
	return nil
}

// replDeliver carries one replicate frame to a named peer over the
// pooled clients: the Sender's transport.
func (p *Peer) replDeliver(peerName string, f Replicate) (ReplicateResult, error) {
	client, err := p.clientFor(peerName)
	if err != nil {
		return ReplicateResult{}, err
	}
	res, err := client.Replicate(context.Background(), f)
	if err != nil {
		// Transport failure: the follower may be dead. Drop the pooled
		// connection so the next attempt re-resolves and re-dials.
		p.DropClient(peerName)
		return ReplicateResult{}, err
	}
	return *res, nil
}

// refreshReplication reconciles replication with the live member set:
// follower placement follows the ring, and a followed source missing
// from the member set — dead as far as the registry's TTL is concerned —
// is promoted by its ring successor. Driven from the same heartbeat
// gossip that renews shard leases, so ownership and replica takeover
// move together.
func (p *Peer) refreshReplication(members []string) {
	if p.replSender == nil {
		return
	}
	p.replSender.SetFollowers(replica.SelectFollowers(p.Name, members, p.replCfg.Followers))
	live := make(map[string]bool, len(members)+1)
	live[p.Name] = true
	for _, m := range members {
		live[m] = true
	}
	for _, src := range p.replReceiver.Sources() {
		if src.Promoted || live[src.Source] {
			continue
		}
		// Exactly one survivor promotes: the dead owner's first ring
		// successor among the live members. Every peer computes the same
		// successor from the same gossip, so replicas held by the other
		// followers stay parked (and heal by snapshot if the flow set
		// moves on).
		succ := replica.SelectFollowers(src.Source, append(append([]string(nil), members...), p.Name), 1)
		if len(succ) == 0 || succ[0] != p.Name {
			continue
		}
		p.promoteSource(src.Source)
	}
}

// promoteSource takes over one dead owner's replica: its live entries
// are adopted into this peer's engine (persisted here, resumed or left
// parked), and — on a sharded peer — adopted flows whose shards this
// peer owns are tracked for drain hand-off.
func (p *Peer) promoteSource(source string) {
	engine := p.server.Engine()
	entries, err := p.replReceiver.Promote(source)
	if err != nil || entries == nil {
		return
	}
	flows := engine.AdoptEntries(entries, source)
	engine.Obs().Counter("repl_promoted_flows_total", "source", source).Add(int64(len(flows)))
	if p.shardMgr == nil {
		return
	}
	for _, f := range flows {
		if sh := p.shardMgr.ShardOf(RoutingKey(f.User, f.Flow)); p.shardMgr.Owns(sh) {
			p.shardMgr.Track(f.ID, sh)
		}
	}
}

// replInfo services the "repl" control verb: this peer's replication
// role — its own stream position and follower set, and the sources it
// holds replicas for.
func (p *Peer) replInfo() *ReplInfo {
	info := &ReplInfo{Mode: string(p.replCfg.Mode)}
	if info.Mode == "" {
		info.Mode = string(replica.ModeQuorum)
	}
	if st := p.server.Engine().Store(); st != nil {
		info.Seq = st.ReplSeq()
	}
	for _, f := range p.replSender.Status() {
		info.Followers = append(info.Followers, ReplFollowerInfo{Peer: f.Peer, AckedSeq: f.AckedSeq})
	}
	for _, s := range p.replReceiver.Sources() {
		info.Sources = append(info.Sources, ReplSourceInfo{
			Source: s.Source, LastSeq: s.LastSeq, Live: s.Live, Promoted: s.Promoted,
		})
	}
	return info
}

// closeReplication detaches the tap and stops the sender and receiver.
func (p *Peer) closeReplication() {
	if p.replSender == nil {
		return
	}
	if st := p.server.Engine().Store(); st != nil {
		st.SetTap(nil)
	}
	p.replSender.Close()
	p.replReceiver.Close()
}
