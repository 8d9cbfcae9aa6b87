package tenant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
)

// Anon is the reserved tenant every anonymous identity maps onto: an
// empty user name, or an unauthenticated connection when the server does not require tokens.
// A grid user literally named "anon" therefore shares this tenant's
// quota and weight — the name is reserved, and the collision is by
// design (docs/TENANCY.md).
const Anon = "anon"

// Canonical maps an identity onto its tenant name: empty becomes the
// reserved Anon tenant, everything else passes through.
func Canonical(name string) string {
	if name == "" {
		return Anon
	}
	return name
}

// Typed quota rejections, one sentinel per resource. All belong to the
// quota class, so clients see errors.Is(err, dgferr.ErrQuota) across
// the wire and retry policies fail fast instead of hammering.
var (
	// ErrFlowQuota: the tenant is at its flows-in-flight bound.
	ErrFlowQuota = dgferr.Mark(dgferr.ErrQuota, "tenant: flows-in-flight quota exceeded")
	// ErrStoreQuota: the tenant's lifecycle-store footprint is at its
	// byte bound; new flows are refused until compaction shrinks it.
	ErrStoreQuota = dgferr.Mark(dgferr.ErrQuota, "tenant: store bytes quota exceeded")
	// ErrDelegationQuota: the tenant holds all its delegation slots.
	ErrDelegationQuota = dgferr.Mark(dgferr.ErrQuota, "tenant: delegation slots exhausted")
	// ErrRate: the tenant's submit token bucket is empty.
	ErrRate = dgferr.Mark(dgferr.ErrQuota, "tenant: submit rate exceeded")
)

// Quota is one tenant's resource bounds and scheduling weight. The zero
// value of any field means "unlimited" (weight: default 1), so the zero
// Quota is a fully open tenant — quotas are opt-in per deployment.
type Quota struct {
	// Weight is the tenant's share in the admission scheduler's
	// weighted deficit round-robin. <= 0 defaults to 1.
	Weight float64 `json:"weight,omitempty"`
	// MaxFlows bounds concurrently in-flight (non-terminal) flows.
	MaxFlows int `json:"max_flows,omitempty"`
	// MaxStoreBytes bounds the tenant's lifecycle-store footprint.
	// Checked at flow admission: records of already-admitted flows are
	// never dropped (durability outranks the quota; docs/TENANCY.md).
	MaxStoreBytes int64 `json:"max_store_bytes,omitempty"`
	// MaxDelegations bounds concurrently delegated subflows.
	MaxDelegations int `json:"max_delegations,omitempty"`
	// SubmitRate bounds flow submissions per second (token bucket).
	SubmitRate float64 `json:"submit_rate,omitempty"`
	// SubmitBurst is the bucket depth; <= 0 defaults to
	// max(1, SubmitRate) so a fresh tenant can always burst one second
	// of its steady rate.
	SubmitBurst int `json:"submit_burst,omitempty"`
}

// weight returns the normalized scheduling weight.
func (q Quota) weight() float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// burst returns the normalized token-bucket depth.
func (q Quota) burst() float64 {
	if q.SubmitBurst > 0 {
		return float64(q.SubmitBurst)
	}
	if q.SubmitRate > 1 {
		return q.SubmitRate
	}
	return 1
}

// usage is one tenant's live consumption. Guarded by its own mutex so
// 100k tenants do not serialize on a registry-wide lock; the registry's
// RWMutex only guards the maps.
type usage struct {
	mu          sync.Mutex
	flows       int
	delegations int
	storeBytes  int64
	tokens      float64 // submit token bucket level
	last        time.Time
	primed      bool // bucket initialized to burst on first use
}

// Info is one tenant's row in the `tenants` control verb reply and the
// dgfctl tenants table.
type Info struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	Flows       int     `json:"flows"`
	StoreBytes  int64   `json:"store_bytes"`
	Delegations int     `json:"delegations"`
}

// Registry tracks registered tenants, their quotas and their live
// usage, and emits the aggregate tenant metrics of docs/METRICS.md.
// Unknown tenants are admitted under the default quota (auto-admission
// keeps pre-tenant deployments working); Register pins a custom quota.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	defaults Quota
	quotas   map[string]Quota
	usages   map[string]*usage
	now      func() time.Time

	reg        *obs.Registry
	inflight   *obs.Gauge // tenant_flows_inflight
	stored     *obs.Gauge // tenant_bytes_stored
	registered *obs.Gauge // tenant_registered
}

// NewRegistry builds a registry whose unregistered tenants fall back to
// defaults. A nil obs registry falls back to obs.Default().
func NewRegistry(defaults Quota, reg *obs.Registry) *Registry {
	if reg == nil {
		reg = obs.Default()
	}
	return &Registry{
		defaults:   defaults,
		quotas:     make(map[string]Quota),
		usages:     make(map[string]*usage),
		now:        time.Now,
		reg:        reg,
		inflight:   reg.Gauge("tenant_flows_inflight"),
		stored:     reg.Gauge("tenant_bytes_stored"),
		registered: reg.Gauge("tenant_registered"),
	}
}

// Register pins a custom quota (and weight) for a tenant, replacing any
// previous registration.
func (r *Registry) Register(name string, q Quota) {
	name = Canonical(name)
	r.mu.Lock()
	if _, ok := r.quotas[name]; !ok {
		r.registered.Add(1)
	}
	r.quotas[name] = q
	r.mu.Unlock()
}

// Len returns the number of explicitly registered tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.quotas)
}

// Quota returns the effective quota for a tenant (registered or the
// registry default).
func (r *Registry) Quota(name string) Quota {
	r.mu.RLock()
	q, ok := r.quotas[Canonical(name)]
	r.mu.RUnlock()
	if !ok {
		return r.defaults
	}
	return q
}

// Weight returns the tenant's scheduling weight — the admission
// scheduler's WeightFn (scheduler.Admission.SetWeightFn).
func (r *Registry) Weight(name string) float64 {
	return r.Quota(name).weight()
}

// use returns (creating if needed) the tenant's usage record.
func (r *Registry) use(name string) *usage {
	r.mu.RLock()
	u, ok := r.usages[name]
	r.mu.RUnlock()
	if ok {
		return u
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if u, ok := r.usages[name]; ok {
		return u
	}
	u = &usage{}
	r.usages[name] = u
	return u
}

// reject counts one quota rejection against a resource and returns err.
func (r *Registry) reject(resource string, err error, name string) error {
	r.reg.Counter("tenant_quota_rejections_total", "resource", resource).Inc()
	return fmt.Errorf("%w (tenant %q)", err, name)
}

// AllowSubmit charges one flow submission against the tenant's token
// bucket, rejecting with ErrRate when the bucket is empty. Unlimited
// (zero-rate) quotas always pass.
func (r *Registry) AllowSubmit(name string) error {
	name = Canonical(name)
	q := r.Quota(name)
	if q.SubmitRate <= 0 {
		return nil
	}
	u := r.use(name)
	now := r.now()
	u.mu.Lock()
	defer u.mu.Unlock()
	burst := q.burst()
	if !u.primed {
		u.tokens, u.last, u.primed = burst, now, true
	}
	if el := now.Sub(u.last).Seconds(); el > 0 {
		u.tokens += el * q.SubmitRate
		if u.tokens > burst {
			u.tokens = burst
		}
		u.last = now
	}
	if u.tokens < 1 {
		return r.reject("submit_rate", ErrRate, name)
	}
	u.tokens--
	return nil
}

// BeginFlow admits one flow into flight, enforcing the flows-in-flight
// bound and the store-byte bound (a tenant over its lifecycle-store
// footprint cannot start new flows — the store-append checkpoint is at
// admission so records of running flows are never dropped). Every nil
// return must be paired with exactly one EndFlow.
func (r *Registry) BeginFlow(name string) error {
	name = Canonical(name)
	q := r.Quota(name)
	u := r.use(name)
	u.mu.Lock()
	defer u.mu.Unlock()
	if q.MaxFlows > 0 && u.flows >= q.MaxFlows {
		return r.reject("flows", ErrFlowQuota, name)
	}
	if q.MaxStoreBytes > 0 && u.storeBytes >= q.MaxStoreBytes {
		return r.reject("store_bytes", ErrStoreQuota, name)
	}
	u.flows++
	r.inflight.Add(1)
	return nil
}

// EndFlow returns a flow's in-flight slot (terminal state reached).
func (r *Registry) EndFlow(name string) {
	u := r.use(Canonical(name))
	u.mu.Lock()
	if u.flows > 0 {
		u.flows--
		r.inflight.Add(-1)
	}
	u.mu.Unlock()
}

// ChargeStore accounts n appended lifecycle-store bytes to the tenant.
// Negative n (compaction reclaimed space) shrinks the footprint, floored
// at zero. The charge always succeeds — enforcement happens at the next
// BeginFlow (see MaxStoreBytes).
func (r *Registry) ChargeStore(name string, n int64) {
	if n == 0 {
		return
	}
	u := r.use(Canonical(name))
	u.mu.Lock()
	before := u.storeBytes
	u.storeBytes += n
	if u.storeBytes < 0 {
		u.storeBytes = 0
	}
	r.stored.Add(u.storeBytes - before)
	u.mu.Unlock()
}

// AcquireDelegation claims one delegation slot, rejecting with
// ErrDelegationQuota when the tenant holds all of its slots. Every nil
// return must be paired with exactly one ReleaseDelegation.
func (r *Registry) AcquireDelegation(name string) error {
	name = Canonical(name)
	q := r.Quota(name)
	u := r.use(name)
	u.mu.Lock()
	defer u.mu.Unlock()
	if q.MaxDelegations > 0 && u.delegations >= q.MaxDelegations {
		return r.reject("delegations", ErrDelegationQuota, name)
	}
	u.delegations++
	return nil
}

// ReleaseDelegation returns a delegation slot.
func (r *Registry) ReleaseDelegation(name string) {
	u := r.use(Canonical(name))
	u.mu.Lock()
	if u.delegations > 0 {
		u.delegations--
	}
	u.mu.Unlock()
}

// Snapshot returns up to limit tenant rows ordered by activity (flows
// in flight, then store bytes, then name) — the `tenants` control verb
// reply. limit <= 0 means all active-or-registered tenants; tenants
// with neither usage nor registration never appear.
func (r *Registry) Snapshot(limit int) []Info {
	r.mu.RLock()
	rows := make([]Info, 0, len(r.usages))
	seen := make(map[string]bool, len(r.usages))
	for name, u := range r.usages {
		u.mu.Lock()
		rows = append(rows, Info{
			Name: name, Flows: u.flows, StoreBytes: u.storeBytes,
			Delegations: u.delegations,
		})
		u.mu.Unlock()
		seen[name] = true
	}
	// Registered-but-idle tenants appear only when they fit the limit
	// budget anyway; with 100k registered synthetic tenants the verb
	// must not serialize the world.
	if limit <= 0 || len(rows) < limit {
		for name := range r.quotas {
			if !seen[name] {
				rows = append(rows, Info{Name: name})
				if limit > 0 && len(rows) >= limit {
					break
				}
			}
		}
	}
	r.mu.RUnlock()
	for i := range rows {
		rows[i].Weight = r.Quota(rows[i].Name).weight()
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Flows != rows[j].Flows {
			return rows[i].Flows > rows[j].Flows
		}
		if rows[i].StoreBytes != rows[j].StoreBytes {
			return rows[i].StoreBytes > rows[j].StoreBytes
		}
		return rows[i].Name < rows[j].Name
	})
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}
