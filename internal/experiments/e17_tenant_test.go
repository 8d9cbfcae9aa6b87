package experiments

import (
	"testing"
	"time"
)

// TestRunTenantIsolation runs the multi-tenant phase at reduced scale
// and checks the report's invariants: the registry footprint is
// measured, no steady-phase quota rejection fires (the tenants have
// weights but no limits), the positive-control breach does fire, and
// the weight-1 lanes are not starved by the 10x aggressor. The
// threshold here is looser than E17's own 0.6 — half the window under
// -race adds scheduling noise the Small preset does not see.
func TestRunTenantIsolation(t *testing.T) {
	rep, err := runTenant(600*time.Millisecond, 10_000, 6, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s(%d flows)", rep.table(), rep.totalFlows)
	if rep.registryBytesPerTenant <= 0 {
		t.Error("registry footprint not measured")
	}
	if rep.falseRejections != 0 {
		t.Errorf("steady phase saw %d quota rejections; tenants have no limits", rep.falseRejections)
	}
	if rep.breachRejections == 0 {
		t.Error("positive control drew no rejections: quota enforcement is dead")
	}
	if len(rep.lanes) != 1+tenantFairLanes {
		t.Fatalf("lanes = %d, want %d", len(rep.lanes), 1+tenantFairLanes)
	}
	if rep.totalFlows == 0 {
		t.Fatal("no flows completed")
	}
	if rep.minFairAttained < 0.4 {
		t.Errorf("worst 1x tenant attained %.2f of fair share; aggressor starved it", rep.minFairAttained)
	}
}
