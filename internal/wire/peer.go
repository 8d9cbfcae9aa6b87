package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// DefaultLookupTTL is the liveness window: a peer silent for longer is
// evicted from the registry on the next operation.
const DefaultLookupTTL = 45 * time.Second

// peerEntry is one registration with its liveness and gossip state.
type peerEntry struct {
	addr     string
	lastSeen time.Time
	load     scheduler.PeerLoad
}

// LookupServer is the registry peers use to find one another: matrix
// servers register name→address, and peers resolve names when routing
// status queries for executions they do not own. Registrations are
// leases, not permanent rows: every operation sweeps entries whose last
// register/heartbeat is older than the TTL (lookup_evictions_total),
// so a crashed peer disappears from resolve/list/gossip within one TTL.
//
// The registry speaks the wire's frames: a connection opens with the
// hello Dial sends, and every verb is a control envelope answered in
// order (docs/WIRE.md §2). A frame of any other kind severs the
// connection.
type LookupServer struct {
	obs   *obs.Registry
	ln    listening
	mu    sync.Mutex
	peers map[string]*peerEntry
	ttl   time.Duration
	now   func() time.Time
	// leases is the shard-ownership table of a sharded registry (nil
	// until SetShards). Leases share the registry's liveness window: a
	// heartbeat renews them, eviction and unregister release them.
	leases *shard.LeaseTable
	// auth, when set (SetAuth), gates every mutating operation behind a
	// verified tenant bearer token naming the peer (docs/TENANCY.md).
	auth *tenant.Authority
	// vkeys maps derivation keys to the name of the peer that announced
	// them (vput), so any peer can locate a memoized derivation with one
	// vget (docs/VDATA.md). Rows die with their peer: eviction and
	// unregister drop them, so a vget never routes to a dead holder.
	vkeys map[string]string
}

// NewLookupServer returns an empty registry emitting metrics into
// obs.Default() (override with SetObs before Listen).
func NewLookupServer() *LookupServer {
	return &LookupServer{
		obs:   obs.Default(),
		peers: make(map[string]*peerEntry),
		ttl:   DefaultLookupTTL,
		now:   time.Now,
		vkeys: make(map[string]string),
	}
}

// SetObs redirects the lookup server's metrics to r.
func (s *LookupServer) SetObs(r *obs.Registry) { s.obs = r }

// SetTTL overrides the liveness window (0 or negative disables
// eviction). Call before Listen.
func (s *LookupServer) SetTTL(d time.Duration) {
	s.mu.Lock()
	s.ttl = d
	s.mu.Unlock()
}

// SetAuth token-gates the registry (docs/TENANCY.md): every mutating
// operation — register, heartbeat, unregister, claim, release, vput —
// must carry a bearer token that verifies against the shared secret and
// names the peer the operation acts for (lookup_auth_failures_total
// counts refusals). Read operations (resolve, list, vget) stay open: the
// peer directory is not a secret, the right to appear in it is. Call
// before Listen; nil removes the gate.
func (s *LookupServer) SetAuth(a *tenant.Authority) {
	s.mu.Lock()
	s.auth = a
	s.mu.Unlock()
}

// authorize verifies the token of one mutating operation and that its
// identity is the peer the operation names: a registry credential is a
// peer's own, minted for its name. Caller holds s.mu.
func (s *LookupServer) authorize(c *Control) error {
	if s.auth == nil {
		return nil
	}
	id, err := s.auth.Verify(c.Token)
	if err == nil && id != c.Name {
		err = fmt.Errorf("%w: a token of %q cannot act for peer %q", dgferr.ErrAuth, id, c.Name)
	}
	if err != nil {
		s.obs.Counter("lookup_auth_failures_total").Inc()
	}
	return err
}

// setNow overrides the registry clock, for eviction tests.
func (s *LookupServer) setNow(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// SetShards turns the registry into the lease authority of an n-shard
// network: peers claim shards through "claim" ops, heartbeats renew
// them, and eviction or unregister releases them — so a dead peer's
// shards become claimable within one TTL. Call before Listen, with the
// same n on every peer (`-shards` on matrixd and lookupd).
func (s *LookupServer) SetShards(n int) {
	s.mu.Lock()
	if n > 0 {
		s.leases = shard.NewLeaseTable(n)
	} else {
		s.leases = nil
	}
	s.mu.Unlock()
}

// leaseTTL returns the lease liveness window. Caller holds s.mu.
func (s *LookupServer) leaseTTL() time.Duration {
	if s.ttl > 0 {
		return s.ttl
	}
	return DefaultLookupTTL
}

// sweepLocked evicts entries beyond the TTL and refreshes the
// lookup_peers_alive gauge. Caller holds s.mu.
func (s *LookupServer) sweepLocked() {
	if s.ttl > 0 {
		cut := s.now().Add(-s.ttl)
		for name, e := range s.peers {
			if e.lastSeen.Before(cut) {
				delete(s.peers, name)
				s.obs.Counter("lookup_evictions_total").Inc()
				if s.leases != nil {
					// The peer is dead as far as the registry is concerned:
					// free its shards so survivors can claim them now rather
					// than waiting out each lease individually.
					s.leases.ReleaseAll(name)
				}
				s.dropVdataLocked(name)
			}
		}
	}
	s.obs.Gauge("lookup_peers_alive").Set(int64(len(s.peers)))
}

// dropVdataLocked forgets every derivation key announced by a departed
// peer. Its catalog may well survive a restart — the peer re-announces
// Keys() on its next Start. Caller holds s.mu.
func (s *LookupServer) dropVdataLocked(name string) {
	for key, holder := range s.vkeys {
		if holder == name {
			delete(s.vkeys, key)
		}
	}
	s.obs.Gauge("lookup_vdata_keys").Set(int64(len(s.vkeys)))
}

// infosLocked snapshots the live peers as gossip rows, sorted by name
// (map iteration would be unstable). Caller holds s.mu.
func (s *LookupServer) infosLocked() []PeerInfo {
	now := s.now()
	out := make([]PeerInfo, 0, len(s.peers))
	for name, e := range s.peers {
		out = append(out, PeerInfo{
			Name:       name,
			Addr:       e.addr,
			AgeSeconds: now.Sub(e.lastSeen).Seconds(),
			Load:       e.load,
		})
	}
	for i := 1; i < len(out); i++ { // insertion sort: n is small
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Listen binds the registry to addr and returns the bound address.
func (s *LookupServer) Listen(addr string) (string, error) { return s.ln.listen(addr, s.serve) }

// serve answers one connection's control frames in the order they
// come. The registry counts its lookup_* metrics only: its frames are
// not peer traffic.
func (s *LookupServer) serve(conn net.Conn) {
	fc := newFrameConn(conn, nil)
	for {
		fr, err := fc.r.next()
		if err != nil || fr.kind != KindControl {
			fr.release()
			return // EOF, a broken stream or a protocol violation: sever
		}
		res := s.handle(fr.payload)
		fr.release()
		enc := codec.GetEncoder()
		appendControlResult(enc, &res)
		err = fc.w.write(KindControl, fr.id, enc.Bytes())
		codec.PutEncoder(enc)
		if err != nil {
			return
		}
	}
}

// handle answers one control payload (docs/WIRE.md §2): the hello, or
// one registry verb.
func (s *LookupServer) handle(payload []byte) ControlResult {
	c, err := decodeControl(payload)
	if err != nil {
		return refused(fmt.Errorf("%w: bad control frame: %v", dgferr.ErrInvalid, err))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch c.Op {
	case "hello":
		return serveHello(c, s.auth, s.obs.Counter("lookup_auth_failures_total"))
	case "register", "resolve", "list", "heartbeat", "unregister", "claim", "release", "vput", "vget":
		s.obs.Counter("lookup_requests_total", "op", c.Op).Inc()
	default:
		s.obs.Counter("lookup_requests_total", "op", "unknown").Inc()
		return refused(fmt.Errorf("%w: unknown registry op %q", dgferr.ErrInvalid, c.Op))
	}
	switch c.Op {
	case "register", "heartbeat", "unregister", "claim", "release", "vput":
		if err := s.authorize(&c); err != nil {
			return refused(err)
		}
	}
	now := s.now()
	switch c.Op {
	case "register", "heartbeat":
		if c.Name == "" || c.Addr == "" {
			return refused(fmt.Errorf("%w: %s needs name and addr", dgferr.ErrInvalid, c.Op))
		}
		e := &peerEntry{addr: c.Addr, lastSeen: now}
		if c.Load != nil {
			e.load = *c.Load
		} else if prev, ok := s.peers[c.Name]; ok {
			// A plain register keeps the last gossiped load until the
			// next heartbeat refreshes it.
			e.load = prev.load
		}
		s.peers[c.Name] = e
		s.sweepLocked()
		if c.Op == "register" {
			break
		}
		// A heartbeat renews the lease, publishes load, and carries back
		// the live-peer gossip and, on a sharded registry, renews the
		// peer's shard leases and returns the ring's owner map — one
		// round trip keeps a peer registered, informed and routed.
		res := ControlResult{OK: true, Peers: s.infosLocked()}
		if s.leases != nil {
			s.leases.Renew(c.Name, now, s.leaseTTL())
			res.Owners = s.leases.Owners(now)
		}
		return res
	case "unregister":
		delete(s.peers, c.Name)
		if s.leases != nil {
			s.leases.ReleaseAll(c.Name)
		}
		s.dropVdataLocked(c.Name)
		s.sweepLocked()
	case "vput":
		// Rows are advisory routing hints: the holder's wire server
		// re-verifies tenancy on the actual lookup (serveVdata), so a
		// poisoned announcement can misroute a probe but never leak an
		// entry.
		if c.Name == "" || len(c.Keys) == 0 {
			return refused(fmt.Errorf("%w: vput needs name and keys", dgferr.ErrInvalid))
		}
		for _, k := range c.Keys {
			if k != "" {
				s.vkeys[k] = c.Name
			}
		}
		s.obs.Gauge("lookup_vdata_keys").Set(int64(len(s.vkeys)))
	case "vget":
		// Open read, like resolve: key placement is not a secret, the
		// entry behind it is (and stays tenant-gated at the holder). A
		// miss is an answer, not a failure: OK with no holder.
		if c.Key == "" {
			return refused(fmt.Errorf("%w: vget needs key", dgferr.ErrInvalid))
		}
		s.sweepLocked()
		if holder, ok := s.vkeys[c.Key]; ok {
			if e, live := s.peers[holder]; live {
				return ControlResult{OK: true, Owner: &OwnerInfo{Peer: holder, Addr: e.addr}}
			}
		}
	case "claim", "release":
		if s.leases == nil {
			return refused(fmt.Errorf("%w: registry is not sharded", dgferr.ErrInvalid))
		}
		if c.Op == "release" {
			for _, sh := range c.Shards {
				s.leases.Release(sh, c.Name)
			}
			return ControlResult{OK: true, Owners: s.leases.Owners(now)}
		}
		if c.Name == "" {
			return refused(fmt.Errorf("%w: claim needs name", dgferr.ErrInvalid))
		}
		s.sweepLocked()
		granted := 0
		for _, sh := range c.Shards {
			if holder, ok := s.leases.Claim(sh, c.Name, now, s.leaseTTL()); ok && holder == c.Name {
				granted++
			}
		}
		s.obs.Counter("lookup_shard_claims_total").Add(int64(granted))
		return ControlResult{OK: true, Owners: s.leases.Owners(now)}
	case "resolve":
		s.sweepLocked()
		e, ok := s.peers[c.Name]
		if !ok {
			return refused(fmt.Errorf("%w: unknown peer %s", dgferr.ErrNotFound, c.Name))
		}
		return ControlResult{OK: true, Owner: &OwnerInfo{Peer: c.Name, Addr: e.addr}}
	case "list":
		s.sweepLocked()
		return ControlResult{OK: true, Peers: s.infosLocked()}
	}
	return ControlResult{OK: true}
}

// Close stops the registry: the listener and every live connection.
func (s *LookupServer) Close() { s.ln.close() }

// The registry's verbs are Client methods: Dial the registry and call
// them over the one connection from any number of goroutines — they
// pipeline like any other control verb. Mutating verbs carry the
// session token (SetToken); a gated registry requires it to name the
// peer the verb acts for.

// Register announces a peer.
func (c *Client) Register(name, addr string) error {
	_, err := c.controlMsg(context.Background(), Control{Op: "register", Name: name, Addr: addr})
	return err
}

// Resolve returns the address of a named peer.
func (c *Client) Resolve(name string) (string, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "resolve", Name: name})
	if err != nil {
		return "", err
	}
	if res.Owner == nil {
		return "", errors.New("wire: empty resolve reply")
	}
	return res.Owner.Addr, nil
}

// Peers returns every live peer with its liveness age and gossiped
// load, sorted by name.
func (c *Client) Peers() ([]PeerInfo, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "list"})
	return res.Peers, err
}

// Heartbeat renews a peer's lease, publishes its load, and returns the
// registry's live-peer gossip and, on a sharded registry, the live
// shard→holder map after renewing the peer's leases (nil otherwise).
func (c *Client) Heartbeat(name, addr string, load scheduler.PeerLoad) ([]PeerInfo, map[int]string, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "heartbeat", Name: name, Addr: addr, Load: &load})
	return res.Peers, res.Owners, err
}

// ClaimShards attempts to lease the given shards for name, returning
// the registry's resulting live shard→holder map — which reports both
// what was granted and who holds the refusals.
func (c *Client) ClaimShards(name string, shards []int) (map[int]string, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "claim", Name: name, Shards: shards})
	return res.Owners, err
}

// ReleaseShards frees the given shards if name holds them (the drain
// path), returning the resulting live shard→holder map.
func (c *Client) ReleaseShards(name string, shards []int) (map[int]string, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "release", Name: name, Shards: shards})
	return res.Owners, err
}

// AnnounceVdata records name as the holder of the given derivation
// keys, so other peers' vget probes route to it (docs/VDATA.md).
func (c *Client) AnnounceVdata(name string, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	_, err := c.controlMsg(context.Background(), Control{Op: "vput", Name: name, Keys: keys})
	return err
}

// ResolveVdata returns the name and address of the live peer holding a
// derivation key; an empty name means no live holder is known.
func (c *Client) ResolveVdata(key string) (name, addr string, err error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "vget", Key: key})
	if err != nil || res.Owner == nil {
		return "", "", err
	}
	return res.Owner.Peer, res.Owner.Addr, nil
}

// Unregister removes a peer's registration immediately (a clean
// shutdown, rather than waiting out the TTL).
func (c *Client) Unregister(name string) error {
	_, err := c.controlMsg(context.Background(), Control{Op: "unregister", Name: name})
	return err
}

// Peer is one node of the datagridflow network: a named matrix server
// registered with a lookup service. Status queries for executions owned
// by other peers (recognizable by their "name:" id prefix) are resolved
// through the lookup service and forwarded — the shared-identifier
// property of the paper ("The identifier for any particular task or flow
// can be shared with all other processes").
type Peer struct {
	Name   string
	server *Server
	lookup *Client
	addr   string // bound address, set by Start
	// shardMgr, when set (EnableSharding, before Start), turns this
	// peer into a sharded-ownership node: see shardroute.go.
	shardMgr *shard.Manager
	// replSender/replReceiver, when set (EnableReplication, before
	// Start), make this a replicating node: see repl.go.
	replSender   *replica.Sender
	replReceiver *replica.Receiver
	replCfg      ReplicationConfig
	// vcat, when set (EnableVdata, before Start), makes this a
	// derivation-sharing node: pure-step results publish into the
	// catalog, announce to the lookup registry, and misses probe the
	// announced holder (docs/VDATA.md).
	vcat *vdata.Catalog

	mu      sync.Mutex
	clients map[string]*Client
	// credRenew is when the registry credential is next minted (registry).
	credRenew time.Time
}

// NewPeer creates a peer over an engine. The engine should have been
// built with matrix.Config{IDPrefix: name + ":"} so its execution ids
// route back to this peer.
func NewPeer(name string, engine *matrix.Engine) *Peer {
	return NewPeerConfig(name, engine, ServerConfig{})
}

// NewPeerConfig is NewPeer with explicit wire-server tuning (admission
// pool size, queue bounds, delegation grace).
func NewPeerConfig(name string, engine *matrix.Engine, cfg ServerConfig) *Peer {
	return &Peer{Name: name, server: NewServerConfig(engine, cfg), clients: make(map[string]*Client)}
}

// peerCredTTL is the lifetime of the registry credential a peer mints
// for its own name.
const peerCredTTL = time.Hour

// registry returns the lookup connection for a mutating verb (nil
// before Start). A peer with a tenant authority presents a credential
// minted for its own name — what a gated registry requires, peer names
// sharing the authority's tenant namespace (docs/TENANCY.md). It is
// minted once and re-minted by the call that finds it past half its
// lifetime.
func (p *Peer) registry() *Client {
	auth := p.server.auth
	if p.lookup == nil || auth == nil {
		return p.lookup
	}
	now := time.Now()
	p.mu.Lock()
	due := !now.Before(p.credRenew)
	if due {
		p.credRenew = now.Add(peerCredTTL / 2)
	}
	p.mu.Unlock()
	if due {
		if tok, err := auth.Mint(p.Name, peerCredTTL); err == nil {
			p.lookup.SetToken(tok)
		}
	}
	return p.lookup
}

// EnableVdata attaches a derivation catalog to this peer and wires the
// fleet-wide memoization plane (docs/VDATA.md): the engine consults the
// catalog before running pure steps, every publish announces its key to
// the lookup registry, and local misses probe the announced holder over
// the wire (the vdata control verb). Call before Start.
func (p *Peer) EnableVdata(cat *vdata.Catalog) {
	p.vcat = cat
	cat.SetPeer(p.Name)
	eng := p.server.Engine()
	eng.SetVdata(cat)
	eng.SetVdataRemote(p.vdataRemote)
	eng.SetVdataLocator(p.vdataLocate)
	cat.SetAnnounce(p.announceVdata)
}

// vdataLocate is the engine's holder-location hook: one registry round
// trip, no entry fetch — the vdata-locality placement hint.
func (p *Peer) vdataLocate(key string) (string, bool) {
	if p.lookup == nil {
		return "", false
	}
	name, _, err := p.lookup.ResolveVdata(key)
	return name, err == nil && name != ""
}

// announceVdata is the catalog's publish hook: best-effort — a failed
// announcement costs remote reuse until the restart re-announcement,
// never correctness.
func (p *Peer) announceVdata(key string) {
	if p.lookup == nil {
		return
	}
	if err := p.registry().AnnounceVdata(p.Name, []string{key}); err != nil {
		p.server.Engine().Obs().Counter("wire_vdata_announce_errors_total").Inc()
	}
}

// vdataRemote is the engine's remote-lookup hook: locate the announced
// holder through the registry, then fetch the entry over the wire with
// the executing flow's own token, which the holder re-verifies the
// tenant against. Any failure — no holder, an unreachable one, a token
// the holder refuses — reports a miss and the step simply executes.
func (p *Peer) vdataRemote(tenantID, token, key string) (vdata.Entry, bool) {
	if p.lookup == nil {
		return vdata.Entry{}, false
	}
	holder, _, err := p.lookup.ResolveVdata(key)
	if err != nil || holder == "" || holder == p.Name {
		return vdata.Entry{}, false
	}
	c, err := p.clientFor(holder)
	if err != nil {
		return vdata.Entry{}, false
	}
	info, err := c.vdataMsg(Control{Sub: "lookup", User: tenantID, Key: key, Token: token})
	if err != nil || !info.Found || info.Entry == nil {
		return vdata.Entry{}, false
	}
	ent := *info.Entry
	if ent.Peer == "" {
		ent.Peer = holder
	}
	return ent, true
}

// Start listens on addr and registers with the lookup server at
// lookupAddr. It returns the peer's bound address.
func (p *Peer) Start(addr, lookupAddr string) (string, error) {
	// Route incoming wire status queries through the peer network, so a
	// client of any peer can resolve any execution id (README's two-peer
	// session and docs/WIRE.md §3).
	p.server.statusRouter = p.placeStatus
	bound, err := p.server.Listen(addr)
	if err != nil {
		return "", err
	}
	lc, err := Dial(lookupAddr)
	if err != nil {
		p.server.Close()
		return "", err
	}
	p.lookup = lc
	if err := p.registry().Register(p.Name, bound); err != nil {
		p.server.Close()
		return "", err
	}
	p.addr = bound
	if p.vcat != nil {
		// Re-announce every derivation the catalog already holds: a
		// restarted peer's memoized results become fleet-visible again
		// without recomputation. Best-effort, like the per-publish hook.
		if err := lc.AnnounceVdata(p.Name, p.vcat.Keys()); err != nil {
			p.server.Engine().Obs().Counter("wire_vdata_announce_errors_total").Inc()
		}
	}
	if p.shardMgr != nil {
		// Take an initial position on the ring: one heartbeat learns the
		// live member set and the current owner map, then a rebalance
		// claims whatever the ring assigns us. Later heartbeats (the
		// federation loop) keep it reconciled.
		if infos, owners, err := lc.Heartbeat(p.Name, bound, scheduler.PeerLoad{}); err == nil {
			p.shardMgr.SetOwners(owners)
			p.RebalanceShards(infoNames(infos))
		}
	}
	return bound, nil
}

// Addr returns the peer's bound address (empty before Start).
func (p *Peer) Addr() string { return p.addr }

// Server returns the peer's wire server.
func (p *Peer) Server() *Server { return p.server }

// Lookup returns the peer's lookup registry connection (nil before
// Start).
func (p *Peer) Lookup() *Client { return p.lookup }

// Heartbeat renews this peer's registration with its current load and
// returns the registry's live-peer gossip. The federation layer calls
// it on a timer (docs/FEDERATION.md).
func (p *Peer) Heartbeat(load scheduler.PeerLoad) ([]PeerInfo, error) {
	if p.lookup == nil {
		return nil, errors.New("wire: peer not connected to a lookup server")
	}
	infos, owners, err := p.registry().Heartbeat(p.Name, p.addr, load)
	if err != nil {
		return nil, err
	}
	if p.shardMgr != nil {
		// On a sharded network the same renewal round trip carries the
		// live owner map back — adopt it so routing always follows the
		// registry.
		p.shardMgr.SetOwners(owners)
	}
	p.refreshReplication(infoNames(infos))
	return infos, nil
}

// infoNames projects gossip rows to the bare member-name list follower
// placement and promotion work over.
func infoNames(infos []PeerInfo) []string {
	names := make([]string, 0, len(infos))
	for _, in := range infos {
		names = append(names, in.Name)
	}
	return names
}

// OwnerOf extracts the peer name from an execution or node id
// ("matrixA:dgf-000001/flow/step" → "matrixA"); ids without a prefix
// belong to the local peer.
func OwnerOf(id string) string {
	exec := id
	if i := strings.IndexByte(id, '/'); i >= 0 {
		exec = id[:i]
	}
	if i := strings.IndexByte(exec, ':'); i >= 0 {
		return exec[:i]
	}
	return ""
}

// placeStatus is the server's status router: it decides where a status
// query is answered. nil means here, from the local engine; otherwise
// the query is one routing hop away, over the returned pooled client of
// the peer named by the id's prefix.
func (p *Peer) placeStatus(id string) (*Client, error) {
	engine := p.server.Engine()
	o := engine.Obs()
	owner := OwnerOf(id)
	execID := id
	if i := strings.IndexByte(id, '/'); i >= 0 {
		execID = id[:i]
	}
	local := owner == "" || owner == p.Name
	_, resident := engine.Execution(execID)
	if !local && p.replReceiver != nil {
		// A promoted execution keeps its dead owner's id prefix. If it
		// now lives here — resident after adoption, or parked in our
		// store — answer locally instead of forwarding to a peer that
		// no longer exists. Every forwarded poll passes this way, so the
		// store's index is asked before anything is resurrected.
		local = resident || p.resurrect(execID, "promotion")
	} else if local && !resident {
		// A routed query can land on the owner of a passivated
		// execution — e.g. a peer asking after a flow whose
		// delegating parent was evicted to the store. Resurrect it
		// under the federation label; Engine.Status would do it too,
		// but would attribute the wake-up to "status".
		p.resurrect(execID, "federation")
	}
	if local {
		o.Counter("wire_peer_status_local_total").Inc()
		return nil, nil
	}
	// Each forward is one routing hop through the datagridflow network.
	o.Counter("wire_peer_forwards_total", "peer", owner).Inc()
	return p.clientFor(owner)
}

// resurrect wakes an execution parked in this peer's store, if its
// index holds one under the id, and reports whether it is now resident.
func (p *Peer) resurrect(execID, path string) bool {
	engine := p.server.Engine()
	if st := engine.Store(); st == nil || !st.Has(execID) {
		return false
	}
	_, err := engine.ResurrectFor(execID, path)
	return err == nil
}

// SubmitTo submits a flow to a named peer (itself included).
func (p *Peer) SubmitTo(peerName, user string, flow dgl.Flow) (*dgl.Response, error) {
	if peerName == p.Name {
		return p.server.Engine().Submit(dgl.NewAsyncRequest(user, "", flow))
	}
	client, err := p.clientFor(peerName)
	if err != nil {
		return nil, err
	}
	return client.submitOne(context.Background(), dgl.NewAsyncRequest(user, "", flow))
}

// Engine returns the peer's local engine.
func (p *Peer) Engine() *matrix.Engine { return p.server.Engine() }

// Client returns a pooled connection to a named peer, dialing through
// the lookup service on first use. The returned client is shared: do
// not Close it — use DropClient when the peer looks dead.
func (p *Peer) Client(name string) (*Client, error) { return p.clientFor(name) }

// DropClient evicts a pooled connection (after a transport failure), so
// the next Client call re-resolves and re-dials.
func (p *Peer) DropClient(name string) {
	p.mu.Lock()
	c, ok := p.clients[name]
	delete(p.clients, name)
	p.mu.Unlock()
	if ok {
		c.Close()
	}
}

func (p *Peer) clientFor(name string) (*Client, error) {
	p.mu.Lock()
	if c, ok := p.clients[name]; ok {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	if p.lookup == nil {
		return nil, errors.New("wire: peer not connected to a lookup server")
	}
	addr, err := p.lookup.Resolve(name)
	if err != nil {
		return nil, err
	}
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.clients[name]; ok {
		c.Close()
		return prev, nil
	}
	p.clients[name] = c
	return c, nil
}

// Close shuts the peer down: server, lookup registration and connection,
// and peer clients. Unregistering is best-effort — a crashed peer never
// gets to; the TTL sweep covers it.
func (p *Peer) Close() {
	if p.shardMgr != nil && p.lookup != nil {
		// Drain before the server stops: park tracked flows and release
		// every owned lease so successors claim them immediately instead
		// of waiting out the TTL.
		owned := p.shardMgr.Owned()
		for _, sh := range owned {
			p.drainShard(sh, p.shardMgr.Tracked(sh))
		}
		if len(owned) > 0 {
			_, _ = p.registry().ReleaseShards(p.Name, owned)
		}
	}
	p.closeReplication()
	p.server.Close()
	if p.lookup != nil {
		_ = p.registry().Unregister(p.Name)
		p.lookup.Close()
	}
	p.mu.Lock()
	for _, c := range p.clients {
		c.Close()
	}
	p.clients = map[string]*Client{}
	p.mu.Unlock()
}
