// Package obs is the observability substrate of the reproduction: a
// stdlib-only metrics registry (counters, gauges, histograms) and a
// structured trace-event stream (a ring buffer) that
// every layer — the matrix engine, the wire network, triggers, ILM and
// the scheduler — emits into.
//
// The paper's defining requirement is that datagridflows are *long-run*
// processes: flows run for weeks and must be monitorable at any moment,
// at any granularity. Hierarchical status ids answer "where is this
// flow?"; this package answers the operational questions around it —
// how many flows are in flight, how fast steps complete per operation
// type, what the wire layer is carrying, which triggers fire and veto,
// what ILM moved overnight.
//
// A Registry is safe for concurrent use. Time is pluggable via SetNow so
// simulations stamp snapshots with the virtual clock; components measure
// durations against their own grid clock, and hand a trace event the
// instant they read from it, so latency histograms and spans are
// meaningful under both real and simulated time.
//
// The metric and trace-event contract — every name, type, label and
// emission point — is documented in docs/METRICS.md. That document is
// the stability contract: a test diffs the names the code emits against
// it, so the two cannot drift.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds.
// They span sub-millisecond wire round trips to the multi-day step
// latencies of simulated long-run flows.
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
	1, 5, 10, 60, 300, 1800, 3600, 21600, 86400,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	name   string
	labels map[string]string
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	name   string
	labels map[string]string
	v      atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets with sum, min
// and max — enough to reconstruct latency percentiles coarsely without
// unbounded memory.
type Histogram struct {
	name   string
	labels map[string]string
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows

	mu       sync.Mutex
	counts   []int64 // len(bounds)+1
	count    int64
	sum      float64
	min, max float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// Registry holds one process's (or one grid's) metrics and its trace
// stream. The zero value is not usable; call NewRegistry.
type Registry struct {
	// now is the clock snapshots are stamped with, read without the
	// lock.
	now      atomic.Pointer[func() time.Time]
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *TraceBuffer
}

// NewRegistry returns an empty registry stamping with the wall clock and
// a trace ring buffer of DefaultTraceCap events, which takes memory only
// as events arrive.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trace:    NewTraceBuffer(DefaultTraceCap),
	}
	r.SetNow(time.Now)
	return r
}

var std = NewRegistry()

// Default returns the process-wide registry. Components that are not
// given an explicit registry (a dgms.Grid built without Options.Obs, a
// LookupServer) emit here, so single-grid processes like matrixd and
// dgfbench get a complete picture for free. Tests that assert on metric
// values should inject their own registry instead.
func Default() *Registry { return std }

// SetNow replaces the registry's time source (e.g. a sim.VirtualClock's
// Now) so snapshots carry simulated timestamps. Trace events carry the
// instant their emitter passes.
func (r *Registry) SetNow(now func() time.Time) { r.now.Store(&now) }

// Now returns the registry's current time.
func (r *Registry) Now() time.Time { return (*r.now.Load())() }

// Trace returns the registry's trace-event stream.
func (r *Registry) Trace() *TraceBuffer { return r.trace }

// appendKey appends the canonical identity of a series to b: the name,
// then "|k=v" for each label pair in key order. It reads kv in place —
// pairs are ordered through a small index, a repeated key keeps its last
// value and a trailing odd key an empty one, exactly as labelMap does —
// so a caller holding a stack buffer pays no allocation. `\`, `|` and `=`
// in a value are backslash-escaped: values come from user documents
// (op, tenant), and unescaped, ("a", "b|c=d") and ("a", "b", "c", "d")
// would name the same series.
func appendKey(b []byte, name string, kv []string) []byte {
	b = append(b, name...)
	var idx [8]int
	order := idx[:0] // offsets into kv of the keys, stably sorted by key
	for i := 0; i < len(kv); i += 2 {
		j := len(order)
		order = append(order, i)
		for ; j > 0 && kv[order[j-1]] > kv[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for n, i := range order {
		if n+1 < len(order) && kv[order[n+1]] == kv[i] {
			continue
		}
		b = append(b, '|')
		b = append(b, kv[i]...)
		b = append(b, '=')
		if i+1 == len(kv) {
			continue
		}
		v := kv[i+1]
		for j := strings.IndexAny(v, `\|=`); j >= 0; j = strings.IndexAny(v, `\|=`) {
			b = append(append(b, v[:j]...), '\\', v[j])
			v = v[j+1:]
		}
		b = append(b, v...)
	}
	return b
}

// lookup returns the series of m with the given identity, making it with
// mk on first use. A hit builds the key on the stack and takes only the
// read lock; the labels map, the key string and the write lock are paid
// once, at registration.
func lookup[T any](r *Registry, m map[string]*T, name string, kv []string, mk func(labels map[string]string) *T) *T {
	var buf [128]byte
	k := appendKey(buf[:0], name, kv)
	r.mu.RLock()
	v, ok := m[string(k)]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[string(k)]; ok {
		return v
	}
	v = mk(labelMap(kv))
	m[string(k)] = v
	return v
}

// labelMap pairs up a variadic "k1, v1, k2, v2, ..." list. A trailing
// odd key gets an empty value rather than panicking.
func labelMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2+1)
	for i := 0; i < len(kv); i += 2 {
		if i+1 < len(kv) {
			m[kv[i]] = kv[i+1]
		} else {
			m[kv[i]] = ""
		}
	}
	return m
}

// Counter returns (creating on first use) the counter with the given
// name and label pairs ("k1", "v1", "k2", "v2", ...).
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return lookup(r, r.counters, name, kv, func(labels map[string]string) *Counter {
		return &Counter{name: name, labels: labels}
	})
}

// Gauge returns (creating on first use) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return lookup(r, r.gauges, name, kv, func(labels map[string]string) *Gauge {
		return &Gauge{name: name, labels: labels}
	})
}

// Histogram returns (creating on first use) the histogram with the given
// name, label pairs and DefBuckets bounds.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	return r.HistogramBuckets(name, DefBuckets, kv...)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds (used
// for unit-less distributions like scope depth). The bounds of the first
// registration win; later calls with different bounds reuse the series.
func (r *Registry) HistogramBuckets(name string, bounds []float64, kv ...string) *Histogram {
	return lookup(r, r.hists, name, kv, func(labels map[string]string) *Histogram {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &Histogram{name: name, labels: labels, bounds: b, counts: make([]int64, len(b)+1)}
	})
}

// Point is one counter or gauge sample in a snapshot.
type Point struct {
	Name   string
	Labels map[string]string
	Value  int64
}

// HistPoint is one histogram sample in a snapshot. Counts[i] holds the
// observations ≤ Bounds[i]; the final element counts the overflow
// (+Inf) bucket.
type HistPoint struct {
	Name   string
	Labels map[string]string
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	Bounds []float64
	Counts []int64
}

// Snapshot is a point-in-time copy of every metric, ordered
// deterministically (by name, then by canonical label string) so equal
// registry states render equal text (Exposition).
type Snapshot struct {
	At         time.Time
	Counters   []Point
	Gauges     []Point
	Histograms []HistPoint
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{At: r.Now()}

	ckeys := sortedKeys(r.counters)
	for _, k := range ckeys {
		c := r.counters[k]
		snap.Counters = append(snap.Counters, Point{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	gkeys := sortedKeys(r.gauges)
	for _, k := range gkeys {
		g := r.gauges[k]
		snap.Gauges = append(snap.Gauges, Point{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	hkeys := sortedKeys(r.hists)
	for _, k := range hkeys {
		h := r.hists[k]
		h.mu.Lock()
		hp := HistPoint{
			Name: h.name, Labels: h.labels,
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
		}
		h.mu.Unlock()
		snap.Histograms = append(snap.Histograms, hp)
	}
	return snap
}

// sortedKeys orders canonical keys by name, then by the whole key: a
// plain sort would put "a_total_x" between "a_total" and "a_total|k=v",
// splitting one family's series around another's.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		ni, _, _ := strings.Cut(out[i], "|")
		nj, _, _ := strings.Cut(out[j], "|")
		if ni != nj {
			return ni < nj
		}
		return out[i] < out[j]
	})
	return out
}
