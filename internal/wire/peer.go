package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// lookupMsg is the JSON protocol of the lookup server: newline-delimited
// request/response pairs.
type lookupMsg struct {
	Op    string            `json:"op"` // "register", "resolve", "list", "heartbeat", "unregister", "claim", "release"
	Name  string            `json:"name,omitempty"`
	Addr  string            `json:"addr,omitempty"`
	OK    bool              `json:"ok,omitempty"`
	Error string            `json:"error,omitempty"`
	Peers map[string]string `json:"peers,omitempty"`
	// Load rides heartbeat requests: the peer's self-reported figures.
	Load *scheduler.PeerLoad `json:"load,omitempty"`
	// Infos rides heartbeat and list replies: every live peer with its
	// age and last gossiped load.
	Infos []PeerInfo `json:"infos,omitempty"`
	// Shards rides claim/release requests: the shard numbers the peer
	// wants to hold or give up.
	Shards []int `json:"shards,omitempty"`
	// Owners rides claim and heartbeat replies on a sharded registry:
	// the full live shard→holder map, the gossip unit ring routing is
	// built from.
	Owners map[int]string `json:"owners,omitempty"`
	// Token rides mutating requests against a token-gated registry
	// (LookupServer.SetAuth, docs/TENANCY.md): a tenant bearer token
	// authorizing registration, heartbeat and lease operations.
	Token string `json:"token,omitempty"`
	// Keys rides vput requests: derivation keys the named peer's
	// virtual-data catalog now holds (docs/VDATA.md).
	Keys []string `json:"keys,omitempty"`
	// Key rides vget requests and replies: the derivation key to locate.
	Key string `json:"key,omitempty"`
}

// PeerInfo is one live peer as the lookup registry knows it — the
// gossip unit heartbeat replies and `dgfctl peers` are built from.
type PeerInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// AgeSeconds is how long ago the peer last registered or heartbeat.
	AgeSeconds float64 `json:"ageSeconds"`
	// Load is the peer's last self-reported load (zero until its first
	// heartbeat).
	Load scheduler.PeerLoad `json:"load"`
}

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
type LookupServer struct {
	obs      *obs.Registry
	mu       sync.Mutex
	peers    map[string]*peerEntry
	ttl      time.Duration
	now      func() time.Time
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
	// leases is the shard-ownership table of a sharded registry (nil
	// until SetShards). Leases share the registry's liveness window: a
	// heartbeat renews them, eviction and unregister release them.
	leases *shard.LeaseTable
	// auth, when set (SetAuth), gates every mutating operation behind a
	// verified tenant bearer token (docs/TENANCY.md).
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
		conns: make(map[net.Conn]bool),
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
// operation — register, heartbeat, unregister, claim, release — must
// carry a bearer token that verifies against the shared secret
// (lookup_auth_failures_total counts refusals). Read operations
// (resolve, list) stay open: the peer directory is not a secret, the
// right to appear in it is. Call before Listen; nil removes the gate.
func (s *LookupServer) SetAuth(a *tenant.Authority) {
	s.mu.Lock()
	s.auth = a
	s.mu.Unlock()
}

// authorize verifies the token of one mutating lookup operation.
func (s *LookupServer) authorize(msg *lookupMsg) error {
	s.mu.Lock()
	a := s.auth
	s.mu.Unlock()
	if a == nil {
		return nil
	}
	if _, err := a.Verify(msg.Token); err != nil {
		s.obs.Counter("lookup_auth_failures_total").Inc()
		return err
	}
	return nil
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
// upstream of JSON (map iteration would be unstable). Caller holds s.mu.
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
func (s *LookupServer) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
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
			go s.serve(conn)
		}
	}()
	return l.Addr().String(), nil
}

func (s *LookupServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var msg lookupMsg
		if err := dec.Decode(&msg); err != nil {
			return
		}
		var reply lookupMsg
		switch msg.Op {
		case "register", "resolve", "list", "heartbeat", "unregister", "claim", "release", "vput", "vget":
			s.obs.Counter("lookup_requests_total", "op", msg.Op).Inc()
		default:
			s.obs.Counter("lookup_requests_total", "op", "unknown").Inc()
		}
		switch msg.Op {
		case "register", "heartbeat", "unregister", "claim", "release", "vput":
			if err := s.authorize(&msg); err != nil {
				if werr := enc.Encode(lookupMsg{Error: "lookup: " + err.Error()}); werr != nil {
					return
				}
				continue
			}
		}
		switch msg.Op {
		case "register":
			if msg.Name == "" || msg.Addr == "" {
				reply = lookupMsg{Error: "register needs name and addr"}
				break
			}
			s.mu.Lock()
			e := &peerEntry{addr: msg.Addr, lastSeen: s.now()}
			if prev, ok := s.peers[msg.Name]; ok {
				// Re-registration keeps the last gossiped load until the
				// next heartbeat refreshes it.
				e.load = prev.load
			}
			s.peers[msg.Name] = e
			s.sweepLocked()
			s.mu.Unlock()
			reply = lookupMsg{OK: true}
		case "heartbeat":
			// A heartbeat renews the lease, publishes load, and carries
			// back the full live-peer gossip — one round trip keeps a peer
			// both registered and informed.
			if msg.Name == "" || msg.Addr == "" {
				reply = lookupMsg{Error: "heartbeat needs name and addr"}
				break
			}
			s.mu.Lock()
			e := &peerEntry{addr: msg.Addr, lastSeen: s.now()}
			if msg.Load != nil {
				e.load = *msg.Load
			} else if prev, ok := s.peers[msg.Name]; ok {
				e.load = prev.load
			}
			s.peers[msg.Name] = e
			s.sweepLocked()
			infos := s.infosLocked()
			var owners map[int]string
			if s.leases != nil {
				// One round trip keeps a sharded peer registered, its
				// leases renewed, and its ring view current.
				s.leases.Renew(msg.Name, s.now(), s.leaseTTL())
				owners = s.leases.Owners(s.now())
			}
			s.mu.Unlock()
			reply = lookupMsg{OK: true, Infos: infos, Owners: owners}
		case "unregister":
			s.mu.Lock()
			delete(s.peers, msg.Name)
			if s.leases != nil {
				s.leases.ReleaseAll(msg.Name)
			}
			s.dropVdataLocked(msg.Name)
			s.sweepLocked()
			s.mu.Unlock()
			reply = lookupMsg{OK: true}
		case "vput":
			// A peer announces derivation keys its catalog holds. Rows are
			// advisory routing hints: the holder's wire server re-verifies
			// tenancy on the actual lookup (serveVdata), so a poisoned
			// announcement can misroute a probe but never leak an entry.
			if msg.Name == "" || len(msg.Keys) == 0 {
				reply = lookupMsg{Error: "vput needs name and keys"}
				break
			}
			s.mu.Lock()
			for _, k := range msg.Keys {
				if k != "" {
					s.vkeys[k] = msg.Name
				}
			}
			s.obs.Gauge("lookup_vdata_keys").Set(int64(len(s.vkeys)))
			s.mu.Unlock()
			reply = lookupMsg{OK: true}
		case "vget":
			// Open read, like resolve: key placement is not a secret, the
			// entry behind it is (and stays tenant-gated at the holder).
			if msg.Key == "" {
				reply = lookupMsg{Error: "vget needs key"}
				break
			}
			s.mu.Lock()
			s.sweepLocked()
			holder, ok := s.vkeys[msg.Key]
			var addr string
			if ok {
				if e, live := s.peers[holder]; live {
					addr = e.addr
				} else {
					ok = false
				}
			}
			s.mu.Unlock()
			if !ok {
				reply = lookupMsg{Error: "unknown derivation key"}
			} else {
				reply = lookupMsg{OK: true, Name: holder, Addr: addr}
			}
		case "claim":
			if msg.Name == "" {
				reply = lookupMsg{Error: "claim needs name"}
				break
			}
			s.mu.Lock()
			if s.leases == nil {
				s.mu.Unlock()
				reply = lookupMsg{Error: "registry is not sharded"}
				break
			}
			s.sweepLocked()
			now, ttl := s.now(), s.leaseTTL()
			granted := 0
			for _, sh := range msg.Shards {
				if holder, ok := s.leases.Claim(sh, msg.Name, now, ttl); ok && holder == msg.Name {
					granted++
				}
			}
			owners := s.leases.Owners(now)
			s.mu.Unlock()
			s.obs.Counter("lookup_shard_claims_total").Add(int64(granted))
			reply = lookupMsg{OK: true, Owners: owners}
		case "release":
			s.mu.Lock()
			if s.leases == nil {
				s.mu.Unlock()
				reply = lookupMsg{Error: "registry is not sharded"}
				break
			}
			for _, sh := range msg.Shards {
				s.leases.Release(sh, msg.Name)
			}
			owners := s.leases.Owners(s.now())
			s.mu.Unlock()
			reply = lookupMsg{OK: true, Owners: owners}
		case "resolve":
			s.mu.Lock()
			s.sweepLocked()
			e, ok := s.peers[msg.Name]
			s.mu.Unlock()
			if !ok {
				reply = lookupMsg{Error: "unknown peer " + msg.Name}
			} else {
				reply = lookupMsg{OK: true, Addr: e.addr}
			}
		case "list":
			s.mu.Lock()
			s.sweepLocked()
			peers := make(map[string]string, len(s.peers))
			for k, e := range s.peers {
				peers[k] = e.addr
			}
			infos := s.infosLocked()
			s.mu.Unlock()
			reply = lookupMsg{OK: true, Peers: peers, Infos: infos}
		default:
			reply = lookupMsg{Error: "unknown op " + msg.Op}
		}
		if err := enc.Encode(reply); err != nil {
			return
		}
	}
}

// Close stops the registry: the listener and every live connection.
func (s *LookupServer) Close() {
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

// LookupClient talks to a lookup server.
type LookupClient struct {
	mu    sync.Mutex
	conn  net.Conn
	dec   *json.Decoder
	enc   *json.Encoder
	token string
}

// SetToken attaches a tenant bearer token to every subsequent call —
// required by registries token-gated with LookupServer.SetAuth,
// skipped (harmlessly) by open ones.
func (c *LookupClient) SetToken(tok string) {
	c.mu.Lock()
	c.token = tok
	c.mu.Unlock()
}

// DialLookup connects to a lookup server.
func DialLookup(addr string) (*LookupClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial lookup %s: %w", addr, err)
	}
	return &LookupClient{conn: conn, dec: json.NewDecoder(bufio.NewReader(conn)), enc: json.NewEncoder(conn)}, nil
}

func (c *LookupClient) call(msg lookupMsg) (lookupMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if msg.Token == "" {
		msg.Token = c.token
	}
	if err := c.enc.Encode(msg); err != nil {
		return lookupMsg{}, err
	}
	var reply lookupMsg
	if err := c.dec.Decode(&reply); err != nil {
		return lookupMsg{}, err
	}
	if reply.Error != "" {
		return reply, errors.New(reply.Error)
	}
	return reply, nil
}

// Register announces a peer.
func (c *LookupClient) Register(name, addr string) error {
	_, err := c.call(lookupMsg{Op: "register", Name: name, Addr: addr})
	return err
}

// Resolve returns the address of a named peer.
func (c *LookupClient) Resolve(name string) (string, error) {
	reply, err := c.call(lookupMsg{Op: "resolve", Name: name})
	return reply.Addr, err
}

// List returns every registered peer.
func (c *LookupClient) List() (map[string]string, error) {
	reply, err := c.call(lookupMsg{Op: "list"})
	return reply.Peers, err
}

// ListInfos returns every live peer with liveness age and gossiped load.
func (c *LookupClient) ListInfos() ([]PeerInfo, error) {
	reply, err := c.call(lookupMsg{Op: "list"})
	return reply.Infos, err
}

// Heartbeat renews a peer's lease, publishes its load, and returns the
// registry's live-peer gossip.
func (c *LookupClient) Heartbeat(name, addr string, load scheduler.PeerLoad) ([]PeerInfo, error) {
	infos, _, err := c.HeartbeatShards(name, addr, load)
	return infos, err
}

// HeartbeatShards is Heartbeat on a sharded registry: the same renewal
// round trip additionally renews the peer's shard leases and returns
// the live shard→holder map. Against an unsharded registry the map is
// nil.
func (c *LookupClient) HeartbeatShards(name, addr string, load scheduler.PeerLoad) ([]PeerInfo, map[int]string, error) {
	reply, err := c.call(lookupMsg{Op: "heartbeat", Name: name, Addr: addr, Load: &load})
	return reply.Infos, reply.Owners, err
}

// ClaimShards attempts to lease the given shards for name, returning
// the registry's resulting live shard→holder map — which reports both
// what was granted and who holds the refusals.
func (c *LookupClient) ClaimShards(name string, shards []int) (map[int]string, error) {
	reply, err := c.call(lookupMsg{Op: "claim", Name: name, Shards: shards})
	return reply.Owners, err
}

// ReleaseShards frees the given shards if name holds them (the drain
// path), returning the resulting live shard→holder map.
func (c *LookupClient) ReleaseShards(name string, shards []int) (map[int]string, error) {
	reply, err := c.call(lookupMsg{Op: "release", Name: name, Shards: shards})
	return reply.Owners, err
}

// AnnounceVdata records name as the holder of the given derivation
// keys, so other peers' vget probes route to it (docs/VDATA.md). A
// token-gated registry requires the client token, like register.
func (c *LookupClient) AnnounceVdata(name string, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	_, err := c.call(lookupMsg{Op: "vput", Name: name, Keys: keys})
	return err
}

// ResolveVdata returns the name and address of the live peer holding a
// derivation key; an error means no live holder is known.
func (c *LookupClient) ResolveVdata(key string) (name, addr string, err error) {
	reply, err := c.call(lookupMsg{Op: "vget", Key: key})
	return reply.Name, reply.Addr, err
}

// Unregister removes a peer's registration immediately (a clean
// shutdown, rather than waiting out the TTL).
func (c *LookupClient) Unregister(name string) error {
	_, err := c.call(lookupMsg{Op: "unregister", Name: name})
	return err
}

// Close closes the connection.
func (c *LookupClient) Close() error { return c.conn.Close() }

// Peer is one node of the datagridflow network: a named matrix server
// registered with a lookup service. Status queries for executions owned
// by other peers (recognizable by their "name:" id prefix) are resolved
// through the lookup service and forwarded — the shared-identifier
// property of the paper ("The identifier for any particular task or flow
// can be shared with all other processes").
type Peer struct {
	Name   string
	server *Server
	lookup *LookupClient
	addr   string // bound address, set by Start
	// shardMgr, when set (EnableSharding, before Start), turns this
	// peer into a sharded-ownership node: see shardroute.go.
	shardMgr *shard.Manager
	// replSender/replReceiver, when set (EnableReplication, before
	// Start), make this a replicating node: see repl.go.
	replSender   *replica.Sender
	replReceiver *replica.Receiver
	replCfg      ReplicationConfig
	// lookupToken, when set (SetLookupToken, before Start), rides every
	// lookup registration and heartbeat — required against a registry
	// token-gated with LookupServer.SetAuth (docs/TENANCY.md).
	lookupToken string
	// vcat, when set (EnableVdata, before Start), makes this a
	// derivation-sharing node: pure-step results publish into the
	// catalog, announce to the lookup registry, and misses probe the
	// announced holder (docs/VDATA.md).
	vcat *vdata.Catalog
	// vdataToken, when set (SetVdataToken, before Start), rides every
	// remote derivation lookup — required against peers running with
	// -require-auth, where the tenant identity is re-verified per lookup.
	vdataToken string

	mu      sync.Mutex
	clients map[string]*Client
}

// NewPeer creates a peer over an engine. The engine should have been
// built with matrix.Config{IDPrefix: name + ":"} so its execution ids
// route back to this peer.
func NewPeer(name string, engine *matrix.Engine) *Peer {
	return NewPeerConfig(name, engine, ServerConfig{})
}

// NewPeerConfig is NewPeer with explicit wire-server tuning (admission
// pool size, queue bounds, protocol pinning).
func NewPeerConfig(name string, engine *matrix.Engine, cfg ServerConfig) *Peer {
	return &Peer{Name: name, server: NewServerConfig(engine, cfg), clients: make(map[string]*Client)}
}

// SetLookupToken attaches a tenant bearer token to this peer's lookup
// registration, heartbeats and shard-lease operations. Required when
// the registry is token-gated (LookupServer.SetAuth); harmless
// otherwise. Call before Start.
func (p *Peer) SetLookupToken(tok string) { p.lookupToken = tok }

// EnableVdata attaches a derivation catalog to this peer and wires the
// fleet-wide memoization plane (docs/VDATA.md): the engine consults the
// catalog before running pure steps, every publish announces its key to
// the lookup registry, and local misses probe the announced holder over
// the wire (1.8's vdata verb; older holders degrade to local-only).
// Call before Start.
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

// SetVdataToken attaches a tenant bearer token to this peer's remote
// derivation lookups. Required against -require-auth peers, which
// re-verify the claimed tenant on every vdata operation; harmless
// otherwise. Call before Start.
func (p *Peer) SetVdataToken(tok string) { p.vdataToken = tok }

// announceVdata is the catalog's publish hook: best-effort — a failed
// announcement costs remote reuse until the restart re-announcement,
// never correctness.
func (p *Peer) announceVdata(key string) {
	if p.lookup == nil {
		return
	}
	if err := p.lookup.AnnounceVdata(p.Name, []string{key}); err != nil {
		p.server.Engine().Obs().Counter("wire_vdata_announce_errors_total").Inc()
	}
}

// vdataRemote is the engine's remote-lookup hook: locate the announced
// holder through the registry, then fetch the entry over the wire. Any
// failure — no holder, a 1.7 holder without the vdata verb, a token the
// holder refuses — reports a miss and the step simply executes.
func (p *Peer) vdataRemote(tenantID, key string) (vdata.Entry, bool) {
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
	if !c.CanVdata() {
		// Pre-1.8 holder: it memoizes locally but cannot serve lookups —
		// the interop degradation documented in docs/VDATA.md.
		return vdata.Entry{}, false
	}
	info, err := c.vdataMsg(Control{Sub: "lookup", User: tenantID, Key: key, Token: p.vdataToken})
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
	lc, err := DialLookup(lookupAddr)
	if err != nil {
		p.server.Close()
		return "", err
	}
	lc.SetToken(p.lookupToken)
	p.lookup = lc
	if err := lc.Register(p.Name, bound); err != nil {
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
		if infos, owners, err := lc.HeartbeatShards(p.Name, bound, scheduler.PeerLoad{}); err == nil {
			p.shardMgr.SetOwners(owners)
			names := make([]string, 0, len(infos))
			for _, in := range infos {
				names = append(names, in.Name)
			}
			p.RebalanceShards(names)
		}
	}
	return bound, nil
}

// Addr returns the peer's bound address (empty before Start).
func (p *Peer) Addr() string { return p.addr }

// Server returns the peer's wire server.
func (p *Peer) Server() *Server { return p.server }

// Lookup returns the peer's lookup connection (nil before Start).
func (p *Peer) Lookup() *LookupClient { return p.lookup }

// Heartbeat renews this peer's registration with its current load and
// returns the registry's live-peer gossip. The federation layer calls
// it on a timer (docs/FEDERATION.md).
func (p *Peer) Heartbeat(load scheduler.PeerLoad) ([]PeerInfo, error) {
	if p.lookup == nil {
		return nil, errors.New("wire: peer not connected to a lookup server")
	}
	if p.shardMgr == nil {
		infos, err := p.lookup.Heartbeat(p.Name, p.addr, load)
		if err != nil {
			return nil, err
		}
		p.refreshReplication(infoNames(infos))
		return infos, nil
	}
	// On a sharded network the same renewal round trip carries the live
	// owner map back — adopt it so routing always follows the registry.
	infos, owners, err := p.lookup.HeartbeatShards(p.Name, p.addr, load)
	if err != nil {
		return nil, err
	}
	p.shardMgr.SetOwners(owners)
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

// Status resolves a status query anywhere in the network: locally when
// the id belongs to this peer, otherwise by forwarding to the owning
// peer via the lookup service.
func (p *Peer) Status(user, id string, detail bool) (*dgl.FlowStatus, error) {
	owner, err := p.placeStatus(id)
	if err != nil {
		return nil, err
	}
	if owner != nil {
		return owner.statusAs(user, "", id, detail)
	}
	st, err := p.server.Engine().Status(id, detail)
	if err != nil {
		return nil, err
	}
	return &st, nil
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

// Client returns a pooled, hello-negotiated connection to a named peer,
// dialing through the lookup service on first use. The returned client
// is shared: do not Close it — use DropClient when the peer looks dead.
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
	// Negotiate up front: peer links upgrade to mux when both ends speak
	// >= 1.2, and the hello reply records the remote's feature level for
	// the delegation gate (Client.CanDelegate).
	if _, err := c.Hello(); err != nil {
		c.Close()
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
			_, _ = p.lookup.ReleaseShards(p.Name, owned)
		}
	}
	p.closeReplication()
	p.server.Close()
	if p.lookup != nil {
		_ = p.lookup.Unregister(p.Name)
		p.lookup.Close()
	}
	p.mu.Lock()
	for _, c := range p.clients {
		c.Close()
	}
	p.clients = map[string]*Client{}
	p.mu.Unlock()
}
