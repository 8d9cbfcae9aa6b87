// Multi-tenant load phase (`dgfbench -tenant`, experiment E17): proves
// the tenancy plane's two headline claims with one in-process run.
//
// Registry scale: 100k+ synthetic tenants registered with distinct
// quotas, with the per-tenant heap footprint measured — the registry
// must admit planet-scale tenant populations without a resident-memory
// story of its own (docs/TENANCY.md).
//
// Isolation: a deliberately narrow server (small MaxInflight, so
// admission is the bottleneck) shared by one flooding 10x-weight
// aggressor and several 1x tenants, everyone backlogged. Under flat
// FIFO the aggressor's extra workers would take a proportional share of
// the grant stream; under weighted deficit round-robin each tenant's
// share converges on weight/Σweights regardless of how many waiters it
// parks. The gated quantity is the worst 1x tenant's attained fraction
// of its fair share — ≥0.6 means a 10x aggressor cannot starve 1x
// tenants (benchgate, docs/BENCH.md).
//
// The same run doubles as the quota false-positive check: the isolation
// tenants have weights but no resource limits, so any quota rejection
// during the steady phase is a false rejection (gated at zero), and a
// positive-control subphase floods a deliberately tiny quota to prove
// enforcement is actually live rather than silently disabled.
package loadgen

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
	"datagridflow/internal/wire"
)

// TenantOptions sizes the multi-tenant phase. Use TenantDefaults or
// TenantSmallDefaults as a starting point.
type TenantOptions struct {
	// Small marks the CI-sized preset in the report.
	Small bool
	// Duration is the isolation phase's measuring window.
	Duration time.Duration
	// RegistryTenants is the synthetic tenant population registered for
	// the footprint measurement (the acceptance floor is 100k).
	RegistryTenants int
	// FairTenants is the number of weight-1 tenants sharing the server
	// with the aggressor.
	FairTenants int
	// AggressorWeight is the aggressor's scheduling weight.
	AggressorWeight float64
	// WorkersPerTenant is the closed-loop worker count per fair tenant;
	// the aggressor runs 4x as many (it floods).
	WorkersPerTenant int
	// StepLatency is the simulated grid-operation latency per flow.
	StepLatency time.Duration
	// MaxInflight caps the server worker pool. Kept small on purpose:
	// the phase measures admission scheduling, so admission must be the
	// bottleneck.
	MaxInflight int
}

// TenantDefaults is the full-scale preset.
func TenantDefaults() TenantOptions {
	return TenantOptions{
		Duration:         3 * time.Second,
		RegistryTenants:  120_000,
		FairTenants:      4,
		AggressorWeight:  10,
		WorkersPerTenant: 8,
		StepLatency:      3 * time.Millisecond,
		MaxInflight:      4,
	}
}

// TenantSmallDefaults is the CI-sized preset. The registry population
// stays at the acceptance floor — registering tenants is cheap, and
// shrinking it would measure a different footprint curve.
func TenantSmallDefaults() TenantOptions {
	return TenantOptions{
		Small:            true,
		Duration:         1200 * time.Millisecond,
		RegistryTenants:  100_000,
		FairTenants:      4,
		AggressorWeight:  10,
		WorkersPerTenant: 6,
		StepLatency:      2 * time.Millisecond,
		MaxInflight:      4,
	}
}

// TenantLane is one tenant's outcome in the isolation phase.
type TenantLane struct {
	Name    string  `json:"name"`
	Weight  float64 `json:"weight"`
	Workers int     `json:"workers"`
	Flows   int     `json:"flows"`
	// Share is the lane's fraction of all completed flows; FairShare is
	// weight/Σweights; Attained is Share/FairShare (1.0 = exactly fair).
	Share     float64 `json:"share"`
	FairShare float64 `json:"fair_share"`
	Attained  float64 `json:"attained"`
}

// TenantReport is the artifact `dgfbench -tenant` writes as
// BENCH_tenant.json; the CI tenancy job gates on it (docs/BENCH.md).
type TenantReport struct {
	Small       bool    `json:"small"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Duration    string  `json:"duration"`
	StepLatency string  `json:"step_latency"`
	MaxInflight int     `json:"max_inflight"`
	AggressorW  float64 `json:"aggressor_weight"`

	// Registry footprint: RegistryTenants registered with distinct
	// quotas, heap growth divided by the population.
	RegistryTenants        int     `json:"registry_tenants"`
	RegistryBytesPerTenant float64 `json:"registry_bytes_per_tenant"`
	RegistryMB             float64 `json:"registry_mb"`

	// Isolation phase: Lanes[0] is the aggressor, the rest are the fair
	// tenants. MinFairAttained is the gated quantity — the worst 1x
	// lane's attained fraction of its weight-proportional fair share.
	Lanes           []TenantLane `json:"lanes"`
	TotalFlows      int          `json:"total_flows"`
	MinFairAttained float64      `json:"min_fair_attained"`

	// FalseRejections counts quota rejections in the steady phase, where
	// no tenant has a resource limit — must be 0. SubmitErrors counts
	// every other error (transport, timeout) for information.
	FalseRejections int `json:"false_rejections"`
	SubmitErrors    int `json:"submit_errors"`
	// BreachRejections is the positive control: rejections observed when
	// a 2-flow quota is flooded — must be >= 1 or enforcement is dead.
	BreachRejections int `json:"breach_rejections"`
}

// String renders the report as the human-readable table dgfbench
// prints before writing the JSON artifact.
func (r *TenantReport) String() string {
	var b []byte
	b = fmt.Appendf(b, "== tenant load (window=%s inflight=%d step=%s gomaxprocs=%d) ==\n",
		r.Duration, r.MaxInflight, r.StepLatency, r.GoMaxProcs)
	b = fmt.Appendf(b, "registry: %d tenants, %.0f B/tenant, %.1f MB total\n",
		r.RegistryTenants, r.RegistryBytesPerTenant, r.RegistryMB)
	for _, l := range r.Lanes {
		b = fmt.Appendf(b, "%-12s w=%-5.1f workers=%-3d %6d flows  share %5.1f%%  fair %5.1f%%  attained %.2f\n",
			l.Name, l.Weight, l.Workers, l.Flows, l.Share*100, l.FairShare*100, l.Attained)
	}
	b = fmt.Appendf(b, "isolation: worst 1x tenant attained %.2f of fair share (gate >= 0.60)\n", r.MinFairAttained)
	b = fmt.Appendf(b, "quotas: %d false rejections (steady), %d other errors, %d breach rejections (positive control)\n",
		r.FalseRejections, r.SubmitErrors, r.BreachRejections)
	return string(b)
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

// RunTenant executes the multi-tenant phase and returns the report.
func RunTenant(opts TenantOptions) (*TenantReport, error) {
	if opts.Duration <= 0 || opts.FairTenants <= 0 || opts.WorkersPerTenant <= 0 ||
		opts.MaxInflight <= 0 || opts.RegistryTenants <= 0 {
		return nil, fmt.Errorf("loadgen: tenant options must be positive (got %+v)", opts)
	}
	rep := &TenantReport{
		Small:           opts.Small,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Duration:        opts.Duration.String(),
		StepLatency:     opts.StepLatency.String(),
		MaxInflight:     opts.MaxInflight,
		AggressorW:      opts.AggressorWeight,
		RegistryTenants: opts.RegistryTenants,
	}

	// Phase 1 — registry footprint at population scale.
	rep.RegistryBytesPerTenant, rep.RegistryMB = measureRegistryFootprint(opts.RegistryTenants)

	// Phase 2 — isolation. One narrow server, tokens verified, weights
	// enforced; every lane floods it with more demand than its share.
	h, err := newHarness(Options{MaxInflight: opts.MaxInflight})
	if err != nil {
		return nil, err
	}
	defer h.close()
	auth, err := tenant.NewAuthority([]byte("loadgen-tenant-bench-secret"))
	if err != nil {
		return nil, err
	}
	treg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	h.server.SetTenancy(auth, treg, true)

	type lane struct {
		name    string
		weight  float64
		workers int
		flows   atomic.Int64
	}
	lanes := []*lane{{name: "aggressor", weight: opts.AggressorWeight, workers: 4 * opts.WorkersPerTenant}}
	for i := 0; i < opts.FairTenants; i++ {
		lanes = append(lanes, &lane{name: fmt.Sprintf("fair%d", i), weight: 1, workers: opts.WorkersPerTenant})
	}
	for _, l := range lanes {
		// Weights only — no resource limits, so the steady phase must see
		// zero quota rejections.
		treg.Register(l.name, tenant.Quota{Weight: l.weight})
	}

	flow := sleepFlow(opts.StepLatency)
	var falseRejects, otherErrs atomic.Int64
	deadline := time.Now().Add(opts.Duration)
	var wg sync.WaitGroup
	var clients []*wire.Client
	defer func() { closeAll(clients) }()
	for _, l := range lanes {
		tok, err := auth.Mint(l.name, time.Hour)
		if err != nil {
			return nil, err
		}
		c, err := wire.Dial(h.addr)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		c.SetToken(tok)
		if _, err := c.Hello(); err != nil {
			return nil, err
		}
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					resp, err := c.SubmitFlow(l.name, flow)
					if err != nil {
						otherErrs.Add(1)
						return // a broken connection ends this worker
					}
					if resp.Error != "" {
						if quotaRejected(resp.Error) {
							falseRejects.Add(1)
						} else {
							otherErrs.Add(1)
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
	total := 0
	for _, l := range lanes {
		sumW += l.weight
		total += int(l.flows.Load())
	}
	rep.TotalFlows = total
	rep.MinFairAttained = 1
	for _, l := range lanes {
		tl := TenantLane{
			Name: l.name, Weight: l.weight, Workers: l.workers,
			Flows: int(l.flows.Load()), FairShare: l.weight / sumW,
		}
		if total > 0 {
			tl.Share = float64(tl.Flows) / float64(total)
			tl.Attained = tl.Share / tl.FairShare
		}
		rep.Lanes = append(rep.Lanes, tl)
		if l.weight == 1 && tl.Attained < rep.MinFairAttained {
			rep.MinFairAttained = tl.Attained
		}
	}
	rep.FalseRejections = int(falseRejects.Load())
	rep.SubmitErrors = int(otherErrs.Load())

	// Phase 3 — positive control: a 2-flow quota flooded with async
	// long-ish sleeps must draw rejections, proving enforcement was live
	// during the phases above rather than silently disabled.
	treg.Register("breach", tenant.Quota{Weight: 1, MaxFlows: 2})
	btok, err := auth.Mint("breach", time.Hour)
	if err != nil {
		return nil, err
	}
	bc, err := wire.Dial(h.addr)
	if err != nil {
		return nil, err
	}
	defer bc.Close()
	bc.SetToken(btok)
	if _, err := bc.Hello(); err != nil {
		return nil, err
	}
	hold := sleepFlow(300 * time.Millisecond)
	for i := 0; i < 24; i++ {
		if _, err := bc.SubmitAsync("breach", hold); err != nil {
			if quotaRejected(err.Error()) {
				rep.BreachRejections++
			} else {
				rep.SubmitErrors++
			}
		}
	}
	return rep, nil
}
