package experiments

import (
	"strings"
	"testing"
)

// The last committed Small-preset baselines of the retired
// BENCH_{store,shard,repl,tenant,vdata}.json artifacts: each must pass
// its experiment's check, and each case below breaks one figure of one
// of them.
func baseStore() storeReport {
	return storeReport{
		flows: 300, stepsPerFlow: 12,
		uncompactedRecords: 4500, storeReplayRecords: 300, replayReduction: 15,
		passivated: 300, residentAfterSweep: 0, residentAfterRecovery: 0,
		compactKept: 300, compactDropped: 4200,
		uncompactedOpenMs: 1.2, storeOpenMs: 1.7,
		resurrected: true,
	}
}

func baseShard() shardReport {
	return shardReport{
		shards: 32, capacity: 12, workersPerPeer: 6, flowsPerPhase: 120, stepMs: 4,
		speedup2: 1.73, speedup4: 2.57, speedupVsSingleOwner: 1.34,
		failoverMs: 327, failoverTTLMs: 300,
		takeoverOwned: true, survivorRegistered: true, acceptedDuringFailover: 15,
		failoverSubmitErrors: 0, replayedFromGenesis: 0,
	}
}

func baseRepl() replReport {
	return replReport{
		followers: 1, shards: 16, capacity: 16, workersPerPeer: 8, flowsPerPhase: 800, stepMs: 4,
		quorumOverheadFrac: 0.117,
		ackedLiveFlows:     6, lostFlows: 0, promotedFlows: 6,
		takeoverMs: 22.9, snapshotsShipped: 1, survivorRegistered: true,
	}
}

func baseTenant() tenantReport {
	return tenantReport{
		registryTenants: 100000, registryBytesPerTenant: 110.4,
		totalFlows: 1856, minFairAttained: 1,
		falseRejections: 0, breachRejections: 22,
	}
}

func baseVdata() vdataReport {
	return vdataReport{
		flows: 12, hitRate: 1, warmSpeedup: 371,
		entries: 12, replayedEntries: 12,
		remoteHits: 12, remoteSpeedup: 19.1,
	}
}

// TestInvariantsBite feeds each experiment's check a report with one
// invariant broken at a time and expects an error naming that figure.
// A timing that misses its old floor must NOT fail: ratios of two
// wall-clock phases are printed, and judged by the contract benchmark.
func TestInvariantsBite(t *testing.T) {
	cases := []struct {
		name  string
		check func() error
		want  string // substring of the error; "" means the check passes
	}{
		{"E14 baseline", func() error { r := baseStore(); return r.check() }, ""},
		{"E14 replay reduction", func() error {
			r := baseStore()
			r.storeReplayRecords, r.replayReduction = 600, 7
			return r.check()
		}, "replayReduction"},
		{"E14 resident after sweep", func() error { r := baseStore(); r.residentAfterSweep = 4; return r.check() }, "residentAfterSweep"},
		{"E14 resident after recovery", func() error { r := baseStore(); r.residentAfterRecovery = r.flows; return r.check() }, "residentAfterRecovery"},
		{"E14 resident at the 1% bound", func() error { r := baseStore(); r.residentAfterSweep = 3; return r.check() }, ""},
		{"E14 no resurrection", func() error { r := baseStore(); r.resurrected = false; return r.check() }, "resurrect"},
		{"E14 slow compacted open is not an error", func() error { r := baseStore(); r.storeOpenMs = 10 * r.uncompactedOpenMs; return r.check() }, ""},

		{"E15 baseline", func() error { r := baseShard(); return r.check() }, ""},
		{"E15 lease not taken over", func() error { r := baseShard(); r.takeoverOwned = false; return r.check() }, "lease"},
		{"E15 survivor evicted", func() error { r := baseShard(); r.survivorRegistered = false; return r.check() }, "survivor_registered"},
		{"E15 submit errors", func() error { r := baseShard(); r.failoverSubmitErrors = 1; return r.check() }, "failover_submit_errors"},
		{"E15 replayed from genesis", func() error { r := baseShard(); r.replayedFromGenesis = 1; return r.check() }, "replayed_from_genesis"},
		{"E15 poor scaling is not an error", func() error { r := baseShard(); r.speedup4 = 1.2; return r.check() }, ""},

		{"E16 baseline", func() error { r := baseRepl(); return r.check() }, ""},
		{"E16 lost flow", func() error { r := baseRepl(); r.lostFlows = 1; return r.check() }, "lost_flows"},
		{"E16 never promoted", func() error { r := baseRepl(); r.promotedFlows = 0; return r.check() }, "promoted_flows"},
		{"E16 nothing acked, nothing promoted", func() error {
			r := baseRepl()
			r.ackedLiveFlows, r.promotedFlows = 0, 0
			return r.check()
		}, ""},
		{"E16 survivor evicted", func() error { r := baseRepl(); r.survivorRegistered = false; return r.check() }, "survivor_registered"},
		{"E16 no snapshot shipped", func() error { r := baseRepl(); r.snapshotsShipped = 0; return r.check() }, "snapshots_shipped"},
		{"E16 high overhead is not an error", func() error { r := baseRepl(); r.quorumOverheadFrac = 0.4; return r.check() }, ""},

		{"E17 baseline", func() error { r := baseTenant(); return r.check() }, ""},
		{"E17 false rejection", func() error { r := baseTenant(); r.falseRejections = 1; return r.check() }, "false_rejections"},
		{"E17 dead enforcement", func() error { r := baseTenant(); r.breachRejections = 0; return r.check() }, "breach_rejections"},
		{"E17 starved tenant", func() error { r := baseTenant(); r.minFairAttained = 0.59; return r.check() }, "min_fair_attained"},
		{"E17 at the fairness floor", func() error { r := baseTenant(); r.minFairAttained = 0.6; return r.check() }, ""},

		{"E18 baseline", func() error { r := baseVdata(); return r.check() }, ""},
		{"E18 hit rate", func() error { r := baseVdata(); r.hitRate = 0.75; return r.check() }, "hit_rate"},
		{"E18 entry lost on reopen", func() error { r := baseVdata(); r.replayedEntries = r.entries - 1; return r.check() }, "replayed_entries"},
		{"E18 incomplete fleet reuse", func() error { r := baseVdata(); r.remoteHits = r.flows - 1; return r.check() }, "remote_hits"},
		{"E18 slow reuse is not an error", func() error { r := baseVdata(); r.remoteSpeedup = 0.9; return r.check() }, ""},
	}
	for _, c := range cases {
		err := c.check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: no error, want one naming %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}
