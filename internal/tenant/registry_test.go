package tenant

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
)

func TestCanonical(t *testing.T) {
	if Canonical("") != Anon {
		t.Fatalf("empty identity must map to %q", Anon)
	}
	if Canonical("alice") != "alice" {
		t.Fatal("named identity must pass through")
	}
	if Canonical(Anon) != Anon {
		t.Fatal("the reserved name maps onto itself (documented collision)")
	}
}

func TestRegistryDefaultsAndWeights(t *testing.T) {
	r := NewRegistry(Quota{Weight: 2}, obs.NewRegistry())
	if w := r.Weight("unknown"); w != 2 {
		t.Fatalf("unregistered tenant weight = %v, want default 2", w)
	}
	r.Register("alice", Quota{Weight: 10})
	if w := r.Weight("alice"); w != 10 {
		t.Fatalf("alice weight = %v, want 10", w)
	}
	r.Register("zero", Quota{})
	if w := r.Weight("zero"); w != 1 {
		t.Fatalf("zero weight must normalize to 1, got %v", w)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestFlowQuota(t *testing.T) {
	o := obs.NewRegistry()
	r := NewRegistry(Quota{}, o)
	r.Register("alice", Quota{MaxFlows: 2})

	if err := r.BeginFlow("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginFlow("alice"); err != nil {
		t.Fatal(err)
	}
	err := r.BeginFlow("alice")
	if !errors.Is(err, ErrFlowQuota) || !errors.Is(err, dgferr.ErrQuota) {
		t.Fatalf("over quota: got %v, want ErrFlowQuota/ErrQuota", err)
	}
	if got := o.Gauge("tenant_flows_inflight").Value(); got != 2 {
		t.Fatalf("tenant_flows_inflight = %d, want 2", got)
	}
	if got := o.Counter("tenant_quota_rejections_total", "resource", "flows").Value(); got != 1 {
		t.Fatalf("rejections{flows} = %d, want 1", got)
	}
	r.EndFlow("alice")
	if err := r.BeginFlow("alice"); err != nil {
		t.Fatalf("after EndFlow: %v", err)
	}
	// Unlimited tenants never reject.
	for i := 0; i < 100; i++ {
		if err := r.BeginFlow("bob"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndFlowFloorsAtZero(t *testing.T) {
	o := obs.NewRegistry()
	r := NewRegistry(Quota{}, o)
	r.EndFlow("ghost") // never began: must not underflow
	if got := o.Gauge("tenant_flows_inflight").Value(); got != 0 {
		t.Fatalf("inflight after spurious EndFlow = %d, want 0", got)
	}
}

func TestStoreQuotaGatesNewFlows(t *testing.T) {
	o := obs.NewRegistry()
	r := NewRegistry(Quota{}, o)
	r.Register("alice", Quota{MaxStoreBytes: 1000})

	if err := r.BeginFlow("alice"); err != nil {
		t.Fatal(err)
	}
	// Charges always land (durability: running flows keep appending)...
	r.ChargeStore("alice", 600)
	r.ChargeStore("alice", 600)
	if got := o.Gauge("tenant_bytes_stored").Value(); got != 1200 {
		t.Fatalf("tenant_bytes_stored = %d, want 1200", got)
	}
	// ...but the next flow admission is refused.
	err := r.BeginFlow("alice")
	if !errors.Is(err, ErrStoreQuota) {
		t.Fatalf("over byte quota: got %v, want ErrStoreQuota", err)
	}
	// Compaction reclaims space and re-opens admission.
	r.ChargeStore("alice", -900)
	if err := r.BeginFlow("alice"); err != nil {
		t.Fatalf("after compaction: %v", err)
	}
	// Reclaim below zero floors at zero.
	r.ChargeStore("alice", -10_000)
	if got := o.Gauge("tenant_bytes_stored").Value(); got != 0 {
		t.Fatalf("floored footprint gauge = %d, want 0", got)
	}
}

func TestDelegationQuota(t *testing.T) {
	r := NewRegistry(Quota{}, obs.NewRegistry())
	r.Register("alice", Quota{MaxDelegations: 1})
	if err := r.AcquireDelegation("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AcquireDelegation("alice"); !errors.Is(err, ErrDelegationQuota) {
		t.Fatalf("over slots: got %v, want ErrDelegationQuota", err)
	}
	r.ReleaseDelegation("alice")
	if err := r.AcquireDelegation("alice"); err != nil {
		t.Fatalf("after release: %v", err)
	}
	r.ReleaseDelegation("ghost") // no underflow
}

func TestSubmitRateBucket(t *testing.T) {
	r := NewRegistry(Quota{}, obs.NewRegistry())
	base := time.Unix(1_700_000_000, 0)
	now := base
	r.now = func() time.Time { return now }
	r.Register("alice", Quota{SubmitRate: 10, SubmitBurst: 2})

	// Burst of 2, then empty.
	if err := r.AllowSubmit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AllowSubmit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AllowSubmit("alice"); !errors.Is(err, ErrRate) {
		t.Fatalf("empty bucket: got %v, want ErrRate", err)
	}
	// 100ms at 10/s refills one token.
	now = now.Add(100 * time.Millisecond)
	if err := r.AllowSubmit("alice"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := r.AllowSubmit("alice"); !errors.Is(err, ErrRate) {
		t.Fatal("refill must not exceed elapsed*rate")
	}
	// A long idle period caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	if err := r.AllowSubmit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AllowSubmit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.AllowSubmit("alice"); !errors.Is(err, ErrRate) {
		t.Fatal("bucket must cap at burst")
	}
	// Zero-rate tenants are unlimited.
	for i := 0; i < 100; i++ {
		if err := r.AllowSubmit("unlimited"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotOrdersByActivity(t *testing.T) {
	r := NewRegistry(Quota{}, obs.NewRegistry())
	r.Register("idle", Quota{Weight: 3})
	for i := 0; i < 3; i++ {
		mustBegin(t, r, "busy")
	}
	mustBegin(t, r, "light")
	r.ChargeStore("heavy", 512)

	rows := r.Snapshot(0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].Name != "busy" || rows[0].Flows != 3 {
		t.Fatalf("top row = %+v, want busy/3", rows[0])
	}
	if rows[1].Name != "light" {
		t.Fatalf("second row = %+v, want light", rows[1])
	}
	if rows[2].Name != "heavy" || rows[2].StoreBytes != 512 {
		t.Fatalf("third row = %+v, want heavy/512B", rows[2])
	}
	if rows[3].Name != "idle" || rows[3].Weight != 3 {
		t.Fatalf("idle registered row = %+v, want idle weight 3", rows[3])
	}

	if got := r.Snapshot(2); len(got) != 2 || got[0].Name != "busy" {
		t.Fatalf("limited snapshot = %+v", got)
	}
}

func mustBegin(t *testing.T, r *Registry, name string) {
	t.Helper()
	if err := r.BeginFlow(name); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(Quota{MaxFlows: 1 << 20}, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g%4)
			for i := 0; i < 200; i++ {
				if err := r.BeginFlow(name); err == nil {
					r.ChargeStore(name, 10)
					r.EndFlow(name)
				}
				_ = r.AllowSubmit(name)
				if err := r.AcquireDelegation(name); err == nil {
					r.ReleaseDelegation(name)
				}
				r.Register(name, Quota{Weight: float64(i%3 + 1)})
				_ = r.Weight(name)
				_ = r.Snapshot(3)
			}
		}(g)
	}
	wg.Wait()
}

func TestHundredKTenantRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRegistry(Quota{}, obs.NewRegistry())
	for i := 0; i < 100_000; i++ {
		r.Register(fmt.Sprintf("tenant-%06d", i), Quota{Weight: float64(i%10 + 1)})
	}
	if r.Len() != 100_000 {
		t.Fatalf("Len = %d, want 100000", r.Len())
	}
	if w := r.Weight("tenant-000009"); w != 10 {
		t.Fatalf("weight lookup = %v, want 10", w)
	}
	if rows := r.Snapshot(5); len(rows) != 5 {
		t.Fatalf("snapshot of 100k registry = %d rows, want 5", len(rows))
	}
}
