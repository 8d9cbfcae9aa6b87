package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/node"
	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
	"datagridflow/internal/wire"
)

// E17Tenant quantifies the multi-tenant control plane
// (docs/TENANCY.md) with one in-process run:
//
//   - Registry scale: 100k+ synthetic tenants registered with distinct
//     quotas, heap footprint per tenant — the registry must admit
//     planet-scale tenant populations without a memory story.
//   - Isolation: a deliberately narrow server (small MaxInflight, so
//     admission is the bottleneck) shared by one flooding 10x-weight
//     aggressor and four 1x tenants, everyone backlogged. Under flat
//     FIFO the aggressor's extra workers would take a proportional
//     share of the grant stream; under weighted deficit round-robin
//     each lane's share converges on weight/Σweights regardless of how
//     many waiters it parks. The worst 1x tenant must attain ≥0.6 of
//     its fair share.
//   - Quota fidelity: the isolation tenants have weights but no
//     resource limits, so any quota rejection during the steady phase
//     is a false rejection (must be zero), and a positive-control
//     subphase floods a 2-flow quota to prove enforcement is live
//     rather than silently disabled.
func E17Tenant(s Scale) (*Report, error) {
	rep, err := runTenant(
		time.Duration(pick(s, 1200, 3000))*time.Millisecond,
		// The registry population stays at the acceptance floor at Small:
		// registering tenants is cheap, and shrinking it would measure a
		// different footprint curve.
		pick(s, 100_000, 120_000),
		pick(s, 6, 8),
		time.Duration(pick(s, 2, 3))*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if err := rep.check(); err != nil {
		return nil, err
	}
	return rep.table(), nil
}

// The isolation phase's fixed shape. The server is kept narrow on
// purpose: the phase measures admission scheduling, so admission must
// be the bottleneck.
const (
	tenantFairLanes       = 4
	tenantAggressorWeight = 10
	tenantMaxInflight     = 4
)

// tenantLane is one tenant's outcome in the isolation phase.
type tenantLane struct {
	name    string
	workers int
	// share is the lane's fraction of all completed flows; fairShare is
	// weight/Σweights; attained is share/fairShare (1.0 = exactly fair).
	share, fairShare, attained float64
}

// tenantReport is what one E17 run measured. minFairAttained and the
// two rejection counts are asserted by check.
type tenantReport struct {
	window time.Duration

	// Registry footprint: registryTenants registered with distinct
	// quotas, heap growth divided by the population.
	registryTenants        int
	registryBytesPerTenant float64
	registryMB             float64

	// Isolation phase: lanes[0] is the aggressor, the rest are the fair
	// tenants. minFairAttained is the worst 1x lane's attained fraction
	// of its weight-proportional fair share.
	lanes           []tenantLane
	totalFlows      int
	minFairAttained float64

	// falseRejections counts quota rejections in the steady phase, where
	// no tenant has a resource limit — must be 0.
	falseRejections int
	// breachRejections is the positive control: rejections observed when
	// a 2-flow quota is flooded — must be >= 1 or enforcement is dead.
	breachRejections int
}

// check returns an error naming the first broken tenancy invariant.
// Fairness is a property of the grant schedule, not of machine speed:
// every lane is backlogged for the whole window, so the shares are
// ratios of grant counts.
func (rep *tenantReport) check() error {
	if rep.falseRejections > 0 {
		return fmt.Errorf("E17: false_rejections %d in the steady phase (tenants had no limits)", rep.falseRejections)
	}
	if rep.breachRejections < 1 {
		return fmt.Errorf("E17: breach_rejections 0: the positive-control quota breach drew no rejections (enforcement is dead)")
	}
	if rep.minFairAttained < 0.6 {
		return fmt.Errorf("E17: min_fair_attained %.2f: worst 1x tenant below 0.60 of its fair share (aggressor starvation)",
			rep.minFairAttained)
	}
	return nil
}

// table renders the run as the E17 experiment table.
func (rep *tenantReport) table() *Report {
	r := &Report{
		ID: "E17", Title: "multi-tenant control plane — registry scale & WFQ isolation",
		Header: []string{"scenario", "metric", "value"},
	}
	r.Row("registry", "tenants", fmt.Sprintf("%d", rep.registryTenants))
	r.Row("registry", "bytes/tenant", fmt.Sprintf("%.0f", rep.registryBytesPerTenant))
	r.Row("registry", "total MB", fmt.Sprintf("%.1f", rep.registryMB))
	for _, l := range rep.lanes {
		r.Row("isolation", l.name+" attained", fmt.Sprintf("%.2f (share %.1f%%, fair %.1f%%)",
			l.attained, l.share*100, l.fairShare*100))
	}
	r.Row("isolation", "worst 1x attained", fmt.Sprintf("%.2f", rep.minFairAttained))
	r.Row("quotas", "false rejections", fmt.Sprintf("%d", rep.falseRejections))
	r.Row("quotas", "breach rejections", fmt.Sprintf("%d", rep.breachRejections))
	r.Note("workload: %s window, %d-deep server, one %gx aggressor (%d workers) vs %d 1x tenants; authenticated tokens, weights enforced by deficit round-robin",
		rep.window, tenantMaxInflight, float64(tenantAggressorWeight), rep.lanes[0].workers, len(rep.lanes)-1)
	r.Note("asserted: worst 1x tenant >= 0.60 of fair share, false rejections == 0, breach rejections >= 1")
	return r
}

// measureRegistryFootprint registers n synthetic tenants with distinct
// quotas and returns the heap growth per tenant. The registry and obs
// counters are local so the measurement does not leak gauges into the
// process-wide snapshot.
func measureRegistryFootprint(n int) (perTenant float64, totalMB float64) {
	reg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: what earlier phases left in sync.Pools takes two cycles to go
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		// Varied quotas so no sharing trick can flatter the number: each
		// tenant's Quota is a distinct value.
		reg.Register(fmt.Sprintf("t%07d", i), tenant.Quota{
			Weight:        float64(1 + i%8),
			MaxFlows:      64 + i%512,
			MaxStoreBytes: int64(1<<20 + i),
			SubmitRate:    float64(10 + i%100),
		})
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grown := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	if grown < 0 {
		grown = 0
	}
	runtime.KeepAlive(reg)
	return grown / float64(n), grown / (1 << 20)
}

// quotaRejected reports whether an error message observed at the
// client is a tenancy quota rejection (as opposed to a transport
// failure or an engine error).
func quotaRejected(msg string) bool {
	return strings.Contains(msg, "quota") || strings.Contains(msg, "rate exceeded")
}

// sleepFlow is one step of simulated grid latency on the real clock.
func sleepFlow(d time.Duration) dgl.Flow {
	return dgl.NewFlow("load").
		Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": d.String()})).Flow()
}

// runTenant executes the multi-tenant run: window is the isolation
// phase's measuring window, registryTenants the population registered
// for the footprint measurement, workers the closed-loop worker count
// per fair tenant (the aggressor floods with 4x as many), step the
// simulated grid-operation latency per flow.
func runTenant(window time.Duration, registryTenants, workers int, step time.Duration) (*tenantReport, error) {
	rep := &tenantReport{window: window, registryTenants: registryTenants}

	// Phase 1 — registry footprint at population scale.
	rep.registryBytesPerTenant, rep.registryMB = measureRegistryFootprint(registryTenants)

	// Phase 2 — isolation. One narrow server, tokens verified, weights
	// enforced; every lane floods it with more demand than its share.
	auth, err := tenant.NewAuthority([]byte("e17-tenant-secret"))
	if err != nil {
		return nil, err
	}

	type lane struct {
		name    string
		weight  float64
		workers int
		flows   atomic.Int64
	}
	lanes := []*lane{{name: "aggressor", weight: tenantAggressorWeight, workers: 4 * workers}}
	for i := 0; i < tenantFairLanes; i++ {
		lanes = append(lanes, &lane{name: fmt.Sprintf("fair%d", i), weight: 1, workers: workers})
	}
	// Weights only — no resource limits, so the steady phase must see
	// zero quota rejections. The breach tenant of phase 3 submits nothing
	// before it.
	tenants := &tenant.Config{Tenants: map[string]tenant.Quota{"breach": {Weight: 1, MaxFlows: 2}}}
	for _, l := range lanes {
		tenants.Tenants[l.name] = tenant.Quota{Weight: l.weight}
	}
	server, err := node.Start(node.Config{
		Open:          true,
		Server:        wire.ServerConfig{MaxInflight: tenantMaxInflight},
		TenantAuth:    auth,
		Tenants:       tenants,
		TenantRequire: true,
	})
	if err != nil {
		return nil, err
	}
	defer server.Close()
	addr := server.Addr()

	// dial opens a hello'd session authenticated as the named tenant.
	dial := func(name string) (*wire.Client, error) {
		tok, err := auth.Mint(name, time.Hour)
		if err != nil {
			return nil, err
		}
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetToken(tok)
		if _, err := c.Hello(); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}

	flow := sleepFlow(step)
	var falseRejects atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, l := range lanes {
		c, err := dial(l.name)
		if err != nil {
			return nil, err
		}
		defer c.Close() // at return: the lane's workers share it past this loop
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					resp, err := c.SubmitFlow(l.name, flow)
					if err != nil {
						return // a broken connection ends this worker
					}
					if resp.Error != "" {
						if quotaRejected(resp.Error) {
							falseRejects.Add(1)
						}
						continue
					}
					l.flows.Add(1)
				}
			}(l)
		}
	}
	wg.Wait()

	var sumW float64
	for _, l := range lanes {
		sumW += l.weight
		rep.totalFlows += int(l.flows.Load())
	}
	rep.minFairAttained = 1
	for _, l := range lanes {
		tl := tenantLane{name: l.name, workers: l.workers, fairShare: l.weight / sumW}
		if rep.totalFlows > 0 {
			tl.share = float64(l.flows.Load()) / float64(rep.totalFlows)
			tl.attained = tl.share / tl.fairShare
		}
		rep.lanes = append(rep.lanes, tl)
		if l.weight == 1 && tl.attained < rep.minFairAttained {
			rep.minFairAttained = tl.attained
		}
	}
	rep.falseRejections = int(falseRejects.Load())

	// Phase 3 — positive control: a 2-flow quota flooded with async
	// long-ish sleeps must draw rejections, proving enforcement was live
	// during the phases above rather than silently disabled.
	bc, err := dial("breach")
	if err != nil {
		return nil, err
	}
	defer bc.Close()
	hold := sleepFlow(300 * time.Millisecond)
	for i := 0; i < 24; i++ {
		res, err := bc.Submit(context.Background(), dgl.NewRequest("breach", "", hold), wire.WithAsync())
		if err == nil {
			err = res.Err()
		}
		if err != nil && quotaRejected(err.Error()) {
			rep.breachRejections++
		}
	}
	return rep, nil
}
