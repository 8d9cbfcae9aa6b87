package wire

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/tenant"
)

// tenantServer stands up a server with the tenancy plane attached and
// returns the authority for minting test tokens.
func tenantServer(t testing.TB, require bool, cfg ServerConfig) (*Server, string, *tenant.Authority, *tenant.Registry) {
	t.Helper()
	e := newEngine(t, "")
	s := NewServerConfig(e, cfg)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	s.SetTenancy(auth, reg, require)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr, auth, reg
}

func mint(t testing.TB, auth *tenant.Authority, name string) string {
	t.Helper()
	tok, err := auth.Mint(name, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestHelloTokenExchange covers the credential exchange: a
// valid token yields the verified tenant on the hello result; a forged
// token fails the handshake before anything is submitted.
func TestHelloTokenExchange(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, false, ServerConfig{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}

	// Forged token: handshake refused.
	bad, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.SetToken("dgt1.YWxpY2U.9999999999.Zm9yZ2Vk")
	if _, err := bad.Hello(); err == nil {
		t.Fatal("hello with a forged token succeeded")
	}
}

// TestRequireAuthRejectsTokenless covers -tenant-require: submissions
// without a token are refused with a typed auth error; the same flow
// under a minted token is admitted under the token's tenant.
func TestRequireAuthRejectsTokenless(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, true, ServerConfig{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.SubmitFlow("user", noopFlow("f"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("tokenless submit admitted on a require-auth server")
	}
	if !errors.Is(dgferr.Decode(resp.Error), dgferr.ErrAuth) {
		t.Errorf("tokenless submit error = %q, want typed ErrAuth", resp.Error)
	}

	c.SetToken(mint(t, auth, "alice"))
	resp, err = c.SubmitFlow("alice", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("tokened submit = %v / %q", err, resp.Error)
	}
}

// TestTokenUserMismatch: a request claiming a user other than the
// token's tenant is an identity forgery and must be refused.
func TestTokenUserMismatch(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, false, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	resp, err := c.SubmitFlow("bob", noopFlow("f"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || !errors.Is(dgferr.Decode(resp.Error), dgferr.ErrAuth) {
		t.Errorf("mismatched user = %q, want typed ErrAuth", resp.Error)
	}
	// Empty claimed user defers to the token.
	resp, err = c.SubmitFlow("", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("empty-user submit = %v / %q", err, resp.Error)
	}
}

// TestUntokenedClientIsAnonymousButAdmitted: without a token the hello
// verifies no tenant, and a server that does not require tokens admits
// the submission under its claimed user.
func TestUntokenedClientIsAnonymousButAdmitted(t *testing.T) {
	_, addr, _, _ := tenantServer(t, false, ServerConfig{})
	c := dial(t, addr)
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SubmitFlow("user", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("anonymous-but-admitted submit = %v / %q", err, resp.Error)
	}
}

// TestTenantsVerbRoundTrip: the control verb reports the server's
// tenancy posture and per-tenant usage.
func TestTenantsVerbRoundTrip(t *testing.T) {
	_, addr, auth, reg := tenantServer(t, false, ServerConfig{})
	reg.Register("alice", tenant.Quota{Weight: 4})
	reg.Register("bob", tenant.Quota{Weight: 2})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SubmitFlow("alice", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("submit = %v / %q", err, resp.Error)
	}
	info, err := c.Tenants(10)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || !info.Auth || info.Require {
		t.Errorf("posture = %+v, want enabled auth-on require-off", info)
	}
	if info.Registered != 2 {
		t.Errorf("registered = %d, want 2", info.Registered)
	}
	var alice *tenant.Info
	for i := range info.Tenants {
		if info.Tenants[i].Name == "alice" {
			alice = &info.Tenants[i]
		}
	}
	if alice == nil || alice.Weight != 4 {
		t.Errorf("alice row = %+v", alice)
	}
}

// TestBatchEnvelopeIdentity: batch items run under the envelope's
// verified identity; an item claiming a different user fails alone
// without sinking the batch.
func TestBatchEnvelopeIdentity(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, false, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	reqs := []*dgl.Request{
		dgl.NewAsyncRequest("", "", noopFlow("a")),      // inherits the envelope identity
		dgl.NewAsyncRequest("alice", "", noopFlow("b")), // matches: fine
		dgl.NewAsyncRequest("mallory", "", noopFlow("c")),
	}
	resps, err := c.submitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("responses = %d, want 3", len(resps))
	}
	if resps[0].Error != "" || resps[1].Error != "" {
		t.Errorf("conforming items failed: %q / %q", resps[0].Error, resps[1].Error)
	}
	if resps[2].Error == "" || !errors.Is(dgferr.Decode(resps[2].Error), dgferr.ErrAuth) {
		t.Errorf("imposter item = %q, want typed ErrAuth", resps[2].Error)
	}
}

// TestQuotaRejectionOverWire: a flows-in-flight quota breach surfaces
// to the client as a typed ErrQuota, and releasing the flow frees the
// slot.
func TestQuotaRejectionOverWire(t *testing.T) {
	// A real clock: the holding flow must still be in flight when the
	// second one arrives (the default test grid completes sleeps
	// instantly on its virtual clock).
	e := newRealClockEngine(t)
	s := NewServer(e)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	reg.Register("alice", tenant.Quota{MaxFlows: 1})
	s.SetTenancy(auth, reg, false)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	hold := dgl.NewFlow("hold").
		Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": "30s"})).Flow()
	id, err := submitAsync(c, "alice", hold)
	if err != nil {
		t.Fatal(err)
	}
	_, err = submitAsync(c, "alice", hold)
	if err == nil || !errors.Is(err, dgferr.ErrQuota) {
		t.Fatalf("second flow = %v, want typed ErrQuota", err)
	}
	// Cancelling the holder frees the slot (and the test goroutine).
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
}

// requireServer is tenantServer with -tenant-require over the given
// engine, plus a session factory: a named tenant gets a connection whose
// token is that tenant's and whose hello verified it; "" gets a
// connection with no token at all.
func requireServer(t *testing.T, e *matrix.Engine) func(tenantName string) *Client {
	t.Helper()
	s := NewServer(e)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetTenancy(auth, tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry()), true)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return func(tenantName string) *Client {
		c := dial(t, addr)
		if tenantName != "" {
			c.SetToken(mint(t, auth, tenantName))
			if _, err := c.Hello(); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
}

// TestControlVerbsStayWithTheirTenant: on a server that requires
// tokens, pause, resume, cancel and restart act on the caller's own
// flows only. A connection with no token, or with another tenant's, is
// refused with a typed ErrAuth and the flow runs on untouched; the
// owner's tokened verbs still work.
func TestControlVerbsStayWithTheirTenant(t *testing.T) {
	e := newRealClockEngine(t)
	session := requireServer(t, e)
	owner, bob, anon := session("user"), session("bob"), session("")
	res, err := owner.Submit(context.Background(),
		dgl.NewRequest("user", "", sleepFlow("hold", "30s")), WithAsync())
	if err != nil || res.Err() != nil {
		t.Fatalf("owner submit: %v / %v", err, res.Err())
	}
	ex, ok := e.Execution(res.ID)
	if !ok {
		t.Fatalf("execution %s not tracked", res.ID)
	}
	for who, c := range map[string]*Client{"untokened": anon, "bob": bob} {
		for verb, call := range map[string]func(string) error{"pause": c.Pause, "resume": c.Resume, "cancel": c.Cancel} {
			if err := call(res.ID); !errors.Is(err, dgferr.ErrAuth) {
				t.Errorf("%s %s of user's flow = %v, want typed ErrAuth", who, verb, err)
			}
		}
		select {
		case <-ex.Done():
			t.Fatalf("%s ended user's flow: %v", who, ex.Err())
		default:
		}
		if ex.Paused() {
			t.Fatalf("%s paused user's flow", who)
		}
	}

	// The owner's token rides its control frames: its own cancel works.
	if err := owner.Cancel(res.ID); err != nil {
		t.Fatalf("owner cancel: %v", err)
	}
	<-ex.Done()
	before := len(e.Executions())
	for who, c := range map[string]*Client{"untokened": anon, "bob": bob} {
		if next, err := c.Restart(res.ID); !errors.Is(err, dgferr.ErrAuth) {
			t.Errorf("%s restart of user's flow = %q, %v, want typed ErrAuth", who, next, err)
		}
	}
	if got := len(e.Executions()); got != before {
		t.Errorf("refused restarts left %d executions, want %d", got, before)
	}
}

// TestControlVerbDoesNotWakeOthersParkedFlow: a refused control verb is
// refused before the execution lookup, so an untokened cancel of a
// parked flow neither resurrects nor cancels it; the owner's resume
// then does both what it asks and the resurrection.
func TestControlVerbDoesNotWakeOthersParkedFlow(t *testing.T) {
	e := newEngine(t, "")
	attachStore(t, e)
	reached, release := registerParkOp(e)
	session := requireServer(t, e)
	owner, anon := session("user"), session("")

	wire0 := e.Obs().Counter("store_resurrections_total", "path", "wire").Value()
	id := startParked(t, e, reached)
	ex, _ := e.Execution(id)
	ex.Pause()
	if err := e.Passivate(id); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	close(release)

	if err := anon.Cancel(id); !errors.Is(err, dgferr.ErrAuth) {
		t.Errorf("untokened cancel of a parked flow = %v, want typed ErrAuth", err)
	}
	if _, ok := e.Execution(id); ok {
		t.Fatal("a refused verb resurrected the parked flow")
	}
	if got := e.Obs().Counter("store_resurrections_total", "path", "wire").Value() - wire0; got != 0 {
		t.Errorf("store_resurrections_total{path=wire} moved by %d", got)
	}
	if err := owner.Resume(id); err != nil {
		t.Fatalf("owner resume: %v", err)
	}
	ex, ok := e.Execution(id)
	if !ok {
		t.Fatal("owner's resume did not resurrect the flow")
	}
	if err := ex.Wait(); err != nil {
		t.Fatalf("resurrected run: %v", err)
	}
}

// TestHelloRefusesExpiredToken: a token past its expiry fails the hello
// with a typed ErrAuth, which is what dgfctl exits with.
func TestHelloRefusesExpiredToken(t *testing.T) {
	_, addr, _, _ := tenantServer(t, true, ServerConfig{})
	// Same secret, minted two hours ago for one hour.
	past, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	past.SetClock(func() time.Time { return time.Now().Add(-2 * time.Hour) })
	c := dial(t, addr)
	c.SetToken(mint(t, past, "user"))
	if _, err := c.Hello(); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatalf("hello with an expired token = %v, want typed ErrAuth", err)
	}
}

// TestLookupTokenMustNamePeer: on a gated registry a token is the
// credential of the one name it was minted for. A tenant's token can
// neither unregister a peer nor take leases under another name, and
// each refusal counts as an auth failure.
func TestLookupTokenMustNamePeer(t *testing.T) {
	auth, err := tenant.NewAuthority([]byte("lookup-secret"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ls := NewLookupServer()
	ls.SetObs(reg)
	ls.SetAuth(auth)
	ls.SetShards(4)
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	peer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.SetToken(mint(t, auth, "peerA"))
	if err := peer.Register("peerA", "127.0.0.1:9999"); err != nil {
		t.Fatalf("peerA registering itself = %v", err)
	}
	mallory, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	mallory.SetToken(mint(t, auth, "alice"))
	if err := mallory.Unregister("peerA"); !errors.Is(err, dgferr.ErrAuth) {
		t.Errorf("alice's token unregistering peerA = %v, want typed ErrAuth", err)
	}
	if owners, err := mallory.ClaimShards("mallory", []int{0, 1, 2, 3}); !errors.Is(err, dgferr.ErrAuth) {
		t.Errorf("alice's token claiming as mallory = %v %v, want typed ErrAuth", owners, err)
	}
	if got, err := peer.Resolve("peerA"); err != nil || got != "127.0.0.1:9999" {
		t.Errorf("peerA after the refusals = %q / %v", got, err)
	}
	if got := reg.Counter("lookup_auth_failures_total").Value(); got != 2 {
		t.Errorf("lookup_auth_failures_total = %d, want 2", got)
	}
}

// TestLookupAuthGating: a token-gated registry refuses mutating
// operations without a token or under a token minted for another name,
// keeps reads open, and admits a peer end to end: a peer with the tenant
// authority presents a credential it minted for its own name, and
// re-mints it once past half its lifetime.
func TestLookupAuthGating(t *testing.T) {
	auth, err := tenant.NewAuthority([]byte("lookup-secret"))
	if err != nil {
		t.Fatal(err)
	}
	var ahead atomic.Int64 // how far the authority's clock runs ahead
	auth.SetClock(func() time.Time { return time.Now().Add(time.Duration(ahead.Load())) })
	ls := NewLookupServer()
	ls.SetAuth(auth)
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	lc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.Register("peerA", "127.0.0.1:9999"); err == nil ||
		!strings.Contains(err.Error(), "token") {
		t.Fatalf("tokenless register = %v, want token refusal", err)
	}
	// Reads stay open: the directory is not a secret.
	if _, err := lc.Peers(); err != nil {
		t.Fatalf("tokenless list refused: %v", err)
	}

	lc.SetToken(mint(t, auth, "ops"))
	if err := lc.Register("peerA", "127.0.0.1:9999"); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatalf("register of peerA under ops's token = %v, want typed ErrAuth", err)
	}
	lc.SetToken(mint(t, auth, "peerA"))
	if err := lc.Register("peerA", "127.0.0.1:9999"); err != nil {
		t.Fatalf("tokened register = %v", err)
	}
	if _, _, err := lc.Heartbeat("peerA", "127.0.0.1:9999", scheduler.PeerLoad{}); err != nil {
		t.Fatalf("tokened heartbeat = %v", err)
	}
	if got, err := lc.Resolve("peerA"); err != nil || got != "127.0.0.1:9999" {
		t.Fatalf("resolve = %q / %v", got, err)
	}
	if err := lc.Unregister("peerA"); err != nil {
		t.Fatalf("tokened unregister = %v", err)
	}

	// End to end: a peer with the tenant authority registers itself.
	e := newEngine(t, "lk")
	p := newPeer("peerB", e)
	p.Server().SetTenancy(auth, nil, false)
	if _, err := p.Start("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, err := lc.Resolve("peerB"); err != nil || got == "" {
		t.Fatalf("peerB registration = %q / %v", got, err)
	}
	first := p.Lookup().Token()
	if err := p.Beat(); err != nil || p.Lookup().Token() != first {
		t.Fatalf("heartbeat inside the credential's first half: %v, re-minted %v", err, p.Lookup().Token() != first)
	}
	// Forty minutes on, the next call finds the credential past half its
	// hour and mints a fresh one, which the registry accepts.
	ahead.Store(int64(40 * time.Minute))
	p.mu.Lock()
	p.credRenew = time.Now()
	p.mu.Unlock()
	if err := p.Beat(); err != nil || p.Lookup().Token() == first {
		t.Fatalf("heartbeat past the credential's half-life: %v, re-minted %v", err, p.Lookup().Token() != first)
	}
}

// TestRouteFrameCannotSpoofUser: the owner of a routed submission runs
// it as the identity the route envelope verified, never as the user the
// embedded document names. A document naming another tenant is refused
// with a typed ErrAuth and counted as an auth failure; one naming no
// user runs as the envelope's tenant.
func TestRouteFrameCannotSpoofUser(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, "siteA:")
	p := newPeer("siteA", e)
	p.EnableSharding(shard.NewManager(shard.Config{Self: "siteA", Shards: testShards, Obs: e.Obs()}))
	p.Server().SetTenancy(auth, tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry()), true)
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	settle(t, p)

	c := dial(t, p.Addr())
	tok := mint(t, auth, "alice")
	c.SetToken(tok)
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	route := func(docUser, flowName string) RouteResult {
		t.Helper()
		_, sh := flowOwnedBy(t, p, docUser)
		doc := codec.RequestDoc(dgl.NewRequest(docUser, "", execFlow(flowName)))
		res, fr, err := c.route(context.Background(), &Route{User: "alice", Token: tok, Request: doc, Shard: sh, Origin: "siteZ"})
		if err != nil {
			t.Fatal(err)
		}
		fr.release()
		return res
	}
	failures := e.Obs().Counter("tenant_auth_failures_total")
	before := failures.Value()
	if res := route("bob", "spoofed"); res.OK || !errors.Is(dgferr.Decode(res.Error), dgferr.ErrAuth) {
		t.Errorf("route naming bob under alice's token = ok %v, error %q; want a typed ErrAuth", res.OK, res.Error)
	}
	if n := failures.Value() - before; n != 1 {
		t.Errorf("tenant_auth_failures_total moved by %d, want 1", n)
	}
	if res := route("", "unnamed"); !res.OK {
		t.Fatalf("route naming no user = %q, want ok", res.Error)
	}
	for _, row := range e.ListExecutions() {
		if row.User != "alice" {
			t.Errorf("execution %s (%s) runs as %q, want alice", row.ID, row.Name, row.User)
		}
	}
	if n := len(e.ListExecutions()); n != 1 {
		t.Errorf("%d executions, want 1", n)
	}
}
