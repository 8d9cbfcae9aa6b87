package federation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/vdata"
	"datagridflow/internal/wire"
)

// testPeer is one federated matrixd stood up in-process on loopback TCP.
type testPeer struct {
	name string
	reg  *obs.Registry
	grid *dgms.Grid
	eng  *matrix.Engine
	peer *wire.Peer
	fed  *Federation
}

func startLookup(t *testing.T) string {
	t.Helper()
	ls := wire.NewLookupServer()
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return addr
}

func newTestPeer(t *testing.T, name, lookupAddr string, scfg wire.ServerConfig, fcfg Config) *testPeer {
	t.Helper()
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg})
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":", MaxParallel: 16})
	p := wire.NewPeerConfig(name, e, scfg)
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	fed := New(p, fcfg)
	fed.Start()
	t.Cleanup(func() { fed.Close(); p.Close() })
	return &testPeer{name: name, reg: reg, grid: g, eng: e, peer: p, fed: fed}
}

// sync lets every peer see the completed roster: one round to gossip
// registrations, one to read everyone else's.
func syncBeats(peers ...*testPeer) {
	for range [2]int{} {
		for _, p := range peers {
			p.fed.Beat()
		}
	}
}

// fanout builds a parent with n parallel subflows of `steps` setVariable
// steps each.
func fanout(n, steps int) dgl.Flow {
	b := dgl.NewFlow("parent").Parallel()
	for i := 0; i < n; i++ {
		sub := dgl.NewFlow(fmt.Sprintf("sub-%d", i))
		for j := 0; j < steps; j++ {
			sub.Step(fmt.Sprintf("set-%d", j), dgl.Op(dgl.OpSetVariable, map[string]string{
				"name": fmt.Sprintf("v%d", j), "value": "x",
			}))
		}
		b.SubFlow(sub)
	}
	return b.Flow()
}

// pinTo aims every delegation at one peer while it is a candidate.
type pinTo struct{ target string }

func (p *pinTo) Name() string { return "pin-to" }

func (p *pinTo) Pick(local string, hint scheduler.Hint, cands []scheduler.Candidate) (string, bool) {
	for _, c := range cands {
		if c.Name == p.target {
			return p.target, true
		}
	}
	return scheduler.LeastLoaded{}.Pick(local, hint, cands)
}

func delegations(p *testPeer, peerName string) int64 {
	return p.reg.Counter("federation_delegations_total", "peer", peerName).Value()
}

// TestFederationSpreadsSubflows: two peers, round-robin placement — the
// parallel subflows land on both, every child completes, and the
// delegated ones resolve to peer-B execution ids.
func TestFederationSpreadsSubflows(t *testing.T) {
	lookup := startLookup(t)
	a := newTestPeer(t, "fedA", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{Policy: &scheduler.RoundRobin{}, HeartbeatInterval: time.Minute})
	b := newTestPeer(t, "fedB", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{Policy: &scheduler.RoundRobin{}, HeartbeatInterval: time.Minute})
	syncBeats(a, b)

	a.fed.mu.Lock()
	gossip := append([]wire.PeerInfo(nil), a.fed.gossip...)
	a.fed.mu.Unlock()
	if len(gossip) != 2 {
		t.Fatalf("gossip = %+v", gossip)
	}
	ex, err := a.eng.Start("user", fanout(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// Round-robin over {fedA, fedB}: half the subflows go remote.
	if got := delegations(a, "fedB"); got != 2 {
		t.Errorf("remote delegations = %d, want 2", got)
	}
	if got := delegations(a, "fedA"); got != 2 {
		t.Errorf("local delegations = %d, want 2", got)
	}
	st := ex.Status(true)
	remote := 0
	for _, ch := range st.Children {
		if ch.State != "succeeded" {
			t.Errorf("child %s state = %s", ch.Name, ch.State)
		}
		if strings.HasPrefix(ch.Delegated, "fedB:") {
			remote++
		}
	}
	if remote != 2 {
		t.Errorf("children on fedB = %d, want 2", remote)
	}
	// The hand-off is journaled in provenance on the delegating side.
	if n := a.grid.Provenance().Count(provenance.Filter{Action: "deleg.start"}); n != 4 {
		t.Errorf("deleg.start records = %d", n)
	}
}

// TestFederationCrashFailover kills the executing peer mid-subflow: the
// delegating peer must see the transport failure, quarantine the dead
// peer, and re-place the subflow so the flow still completes — with the
// failover visible in metrics and provenance.
func TestFederationCrashFailover(t *testing.T) {
	lookup := startLookup(t)
	a := newTestPeer(t, "fedA", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{Policy: &pinTo{target: "fedB"}, HeartbeatInterval: time.Minute, Backoff: 10 * time.Millisecond})
	b := newTestPeer(t, "fedB", lookup, wire.ServerConfig{MaxInflight: 4, DelegateGrace: 50 * time.Millisecond},
		Config{HeartbeatInterval: time.Minute})

	// The subflow's first step blocks on B (and only B) until released;
	// on A it completes immediately, so the failover re-run succeeds.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	entered := make(chan struct{}, 1)
	b.eng.RegisterOp("gate", func(c *matrix.OpContext) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil
	})
	a.eng.RegisterOp("gate", func(c *matrix.OpContext) error { return nil })
	syncBeats(a, b)

	flow := dgl.NewFlow("parent").Parallel().
		SubFlow(dgl.NewFlow("sub").
			Step("hold", dgl.Op("gate", nil)).
			Step("after", dgl.Op(dgl.OpNoop, nil))).Flow()
	ex, err := a.eng.Start("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("delegation never reached fedB")
	}
	// Crash B: heartbeats stop, server torn down, no graceful unregister.
	b.fed.Close()
	b.peer.Server().Close()

	if err := ex.Wait(); err != nil {
		t.Fatalf("flow did not survive peer crash: %v", err)
	}
	st := ex.Status(true)
	if got := st.Children[0].Delegated; !strings.HasPrefix(got, "fedA:") {
		t.Errorf("surviving owner = %q, want fedA", got)
	}
	if n := a.reg.Counter("federation_failovers_total", "peer", "fedB").Value(); n != 1 {
		t.Errorf("failover metric = %d", n)
	}
	if n := a.grid.Provenance().Count(provenance.Filter{Action: "deleg.failover"}); n != 1 {
		t.Errorf("deleg.failover provenance records = %d", n)
	}
	// The dead peer is quarantined out of the next slate.
	for _, c := range a.fed.candidates(map[string]bool{}) {
		if c.Name == "fedB" {
			t.Error("crashed peer still offered to placement")
		}
	}
}

// TestFederationMinStepsDeclines: subflows under the MinSteps threshold
// answer ErrDelegateLocal so the engine runs them inline.
func TestFederationMinStepsDeclines(t *testing.T) {
	lookup := startLookup(t)
	a := newTestPeer(t, "minA", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{MinSteps: 3, HeartbeatInterval: time.Minute})

	small := dgl.NewFlow("small").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
	if _, err := a.fed.Delegate(context.Background(), matrix.DelegateRequest{
		User: "user", Flow: small,
	}); !errors.Is(err, matrix.ErrDelegateLocal) {
		t.Errorf("small subflow = %v, want ErrDelegateLocal", err)
	}
	// Over the threshold it places (here: on itself, the only peer).
	big := fanout(1, 3).Flows[0]
	resp, err := a.fed.Delegate(context.Background(), matrix.DelegateRequest{
		User: "user", Flow: big,
	})
	if err != nil || resp.Peer != "minA" {
		t.Errorf("big subflow: resp=%+v err=%v", resp, err)
	}
}

// TestFederationCloseDrains: Close declines new work immediately and
// returns once in-flight delegations settle; after Close the federation
// answers ErrDelegateLocal.
func TestFederationCloseDrains(t *testing.T) {
	lookup := startLookup(t)
	a := newTestPeer(t, "drainA", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{HeartbeatInterval: time.Minute, DrainGrace: 2 * time.Second})

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	a.eng.RegisterOp("gate", func(c *matrix.OpContext) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	})
	flow := dgl.NewFlow("held").Step("hold", dgl.Op("gate", nil)).Flow()
	var wg sync.WaitGroup
	wg.Add(1)
	var resp *matrix.DelegateResponse
	var derr error
	go func() {
		defer wg.Done()
		resp, derr = a.fed.Delegate(context.Background(), matrix.DelegateRequest{User: "user", Flow: flow})
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release) // the in-flight delegation finishes inside DrainGrace
	}()
	go func() { a.fed.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight delegation drained")
	}
	wg.Wait()
	if derr != nil || resp == nil || resp.Err != nil {
		t.Errorf("drained delegation: resp=%+v err=%v", resp, derr)
	}
	// Closed federation declines everything.
	if _, err := a.fed.Delegate(context.Background(), matrix.DelegateRequest{
		User: "user", Flow: fanout(1, 2).Flows[0],
	}); !errors.Is(err, matrix.ErrDelegateLocal) {
		t.Errorf("post-Close Delegate = %v, want ErrDelegateLocal", err)
	}
	// Idempotent.
	a.fed.Close()
}

// TestFederationCloseCancelsStuckDelegation: when an in-flight local
// delegation outlives DrainGrace, Close cancels it and still returns.
func TestFederationCloseCancelsStuckDelegation(t *testing.T) {
	lookup := startLookup(t)
	a := newTestPeer(t, "stuckA", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{HeartbeatInterval: time.Minute, DrainGrace: 100 * time.Millisecond})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	entered := make(chan struct{}, 1)
	a.eng.RegisterOp("gate", func(c *matrix.OpContext) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil
	})
	flow := dgl.NewFlow("held").
		Step("hold", dgl.Op("gate", nil)).
		Step("after", dgl.Op(dgl.OpNoop, nil)).Flow()
	done := make(chan error, 1)
	go func() {
		_, err := a.fed.Delegate(context.Background(), matrix.DelegateRequest{User: "user", Flow: flow})
		done <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() { a.fed.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stuck delegation past DrainGrace")
	}
	select {
	case err := <-done:
		if !errors.Is(err, dgferr.ErrCancelled) {
			t.Errorf("stuck delegation err = %v, want cancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled delegation never returned")
	}
}

// TestFederationHeartbeatErrors: a dead lookup turns beats into counted
// errors instead of panics or stale success.
func TestFederationHeartbeatErrors(t *testing.T) {
	ls := wire.NewLookupServer()
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := newTestPeer(t, "hbA", addr, wire.ServerConfig{MaxInflight: 4},
		Config{HeartbeatInterval: time.Minute})
	before := a.reg.Counter("federation_heartbeats_total").Value()
	ls.Close()
	a.fed.Beat()
	if a.reg.Counter("federation_heartbeat_errors_total").Value() == 0 {
		t.Error("heartbeat against dead lookup not counted as error")
	}
	if got := a.reg.Counter("federation_heartbeats_total").Value(); got != before {
		t.Errorf("successful-beat counter moved on failure: %d -> %d", before, got)
	}
}

// TestFederationNoGoroutineLeak stands a cluster up, pushes work through
// it, tears it down, and insists the goroutine count returns to the
// baseline — the deterministic-shutdown acceptance check.
func TestFederationNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		ls := wire.NewLookupServer()
		addr, err := ls.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ls.Close()
		var peers []*testPeer
		for i := 0; i < 3; i++ {
			reg := obs.NewRegistry()
			g := dgms.New(dgms.Options{Obs: reg})
			e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: fmt.Sprintf("lk%d:", i), MaxParallel: 16})
			p := wire.NewPeerConfig(fmt.Sprintf("lk%d", i), e, wire.ServerConfig{MaxInflight: 4})
			if _, err := p.Start("127.0.0.1:0", addr); err != nil {
				t.Fatal(err)
			}
			fed := New(p, Config{Policy: &scheduler.RoundRobin{}, HeartbeatInterval: 20 * time.Millisecond})
			fed.Start()
			peers = append(peers, &testPeer{name: p.Name, reg: reg, grid: g, eng: e, peer: p, fed: fed})
		}
		syncBeats(peers...)
		ex, err := peers[0].eng.Start("user", fanout(6, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			p.fed.Close()
			p.peer.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newVdataTestPeer is newTestPeer with a memory-only derivation catalog
// attached (wire.Peer.EnableVdata), for the vdata-locality tests.
func newVdataTestPeer(t *testing.T, name, lookupAddr string, fcfg Config) *testPeer {
	t.Helper()
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg})
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":", MaxParallel: 16})
	cat, err := vdata.Open("", reg)
	if err != nil {
		t.Fatal(err)
	}
	p := wire.NewPeerConfig(name, e, wire.ServerConfig{MaxInflight: 4})
	p.EnableVdata(cat)
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	fed := New(p, fcfg)
	fed.Start()
	t.Cleanup(func() { fed.Close(); p.Close() })
	return &testPeer{name: name, reg: reg, grid: g, eng: e, peer: p, fed: fed}
}

// pureSubParent wraps one pure exec subflow in a parallel parent — the
// delegable unit for the vdata-locality routing test.
func pureSubParent() dgl.Flow {
	sub := dgl.NewFlow("derive").
		PureStep("fft", dgl.Op(dgl.OpExec, map[string]string{
			"command": "fft raw", "cpuSeconds": "5", "resultVar": "spectrum",
		}), "/grid/derived/spectrum.dat")
	return dgl.NewFlow("parent").Parallel().SubFlow(sub).Flow()
}

// TestFederationVdataLocalityRoutesToHolder: peerB holds the memoized
// derivation; peerA's vdata-locality placement routes the pure subflow
// to it, where it hits peerB's catalog instead of recomputing.
func TestFederationVdataLocalityRoutesToHolder(t *testing.T) {
	lookup := startLookup(t)
	a := newVdataTestPeer(t, "vdA", lookup,
		Config{Policy: scheduler.VdataLocality{}, HeartbeatInterval: time.Minute})
	b := newVdataTestPeer(t, "vdB", lookup,
		Config{Policy: scheduler.VdataLocality{}, HeartbeatInterval: time.Minute})
	syncBeats(a, b)

	// peerB computes (and announces) the derivation.
	sub := dgl.NewFlow("derive").
		PureStep("fft", dgl.Op(dgl.OpExec, map[string]string{
			"command": "fft raw", "cpuSeconds": "5", "resultVar": "spectrum",
		}), "/grid/derived/spectrum.dat").Flow()
	ex, err := b.eng.Run("user", sub)
	if err != nil || ex.Err() != nil {
		t.Fatalf("peerB cold run: %v / %v", err, ex.Err())
	}

	// peerA's parent delegates the same pure subflow: the placement hint
	// resolves vdB as holder through the registry and routes it there.
	ex, err = a.eng.Start("user", pureSubParent())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := delegations(a, "vdB"); got != 1 {
		t.Fatalf("delegations to holder = %d, want 1", got)
	}
	// The subflow hit on the holder — no recomputation anywhere.
	if got := b.reg.Counter("vdata_hits_total").Value(); got != 1 {
		t.Errorf("holder vdata_hits_total = %d, want 1", got)
	}
	if got := a.reg.Counter("vdata_hits_total").Value(); got != 0 {
		t.Errorf("delegator vdata_hits_total = %d, want 0", got)
	}
}

// TestFederationRemoteFlowFailureStays: a subflow that fails on the peer
// that ran it — here with a resource-down step, the class a refusal by a
// saturated or closing peer also has — is that subflow's outcome. It
// propagates to the parent; the work is not run again elsewhere, and the
// peer that ran it is not quarantined.
func TestFederationRemoteFlowFailureStays(t *testing.T) {
	lookup := startLookup(t)
	a := newTestPeer(t, "fedA", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{Policy: &pinTo{target: "fedB"}, HeartbeatInterval: time.Minute, Backoff: time.Millisecond})
	b := newTestPeer(t, "fedB", lookup, wire.ServerConfig{MaxInflight: 4},
		Config{HeartbeatInterval: time.Minute})
	var ranA, ranB atomic.Int64
	b.eng.RegisterOp("fetch", func(c *matrix.OpContext) error {
		ranB.Add(1)
		return fmt.Errorf("%w: replica gone", dgferr.ErrResourceDown)
	})
	a.eng.RegisterOp("fetch", func(c *matrix.OpContext) error {
		ranA.Add(1)
		return nil
	})
	syncBeats(a, b)

	flow := dgl.NewFlow("parent").Parallel().
		SubFlow(dgl.NewFlow("sub").Step("fetch", dgl.Op("fetch", nil))).Flow()
	ex, err := a.eng.Start("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); !errors.Is(err, dgferr.ErrResourceDown) {
		t.Errorf("parent err = %v, want the subflow's resource-down failure", err)
	}
	if n, m := ranB.Load(), ranA.Load(); n != 1 || m != 0 {
		t.Errorf("step ran %d time(s) on fedB and %d on fedA, want once on fedB only", n, m)
	}
	if n := a.reg.Counter("federation_failovers_total", "peer", "fedB").Value(); n != 0 {
		t.Errorf("federation_failovers_total{peer=fedB} = %d, want 0", n)
	}
	if got := ex.Status(true).Children[0].Delegated; !strings.HasPrefix(got, "fedB:") {
		t.Errorf("failed subflow's owner = %q, want fedB", got)
	}
	quarantined := true
	for _, c := range a.fed.candidates(map[string]bool{}) {
		if c.Name == "fedB" {
			quarantined = false
		}
	}
	if quarantined {
		t.Error("the peer that ran the failing subflow was quarantined")
	}
}
