package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Traced runs produce the per-layer metrics. Everything here observes
// the program from outside: spans are recorded by this file around
// calls into a layer's public functions, counts are deltas of public
// counters. End-to-end metrics never come from a traced run.

const (
	tracedWindow = 4 * time.Second // the own-workload window recorded with live client spans
	rungWindow   = 2 * time.Second // one ladder rung
	mixWindow    = 3 * time.Second // the client_mix window that feeds the client spans
	directCalls  = 10000           // direct-call family: calls per metric ...
	directBudget = 500 * time.Millisecond
	directFloor  = 20 // ... or what fits the budget, never fewer than this
)

// span is one recorded interval. Spans of one client request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) { t.endNamed(id, "") }

// endNamed closes span id, renaming it when name is set (a client
// request learns its op kind only from the reply).
func (t *tracer) endNamed(id int, name string) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	if name != "" {
		t.spans[id-1].Name = name
	}
	t.mu.Unlock()
}

// spanFile is what a traced run writes when it ends.
type spanFile struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	Counters map[string]map[string]float64 `json:"counters"` // snapshot name → counter → value
	Metrics  map[string]value              `json:"metrics"`
	Spans    []span                        `json:"spans"`
}

// layers collects the metrics of a traced run.
type layers struct {
	tr       *tracer
	root     int
	metrics  map[string]value
	counters map[string]map[string]float64
	o        options
}

func (l *layers) set(name string, v float64, unit string) { l.metrics[name] = value{v, unit} }

// sample times fn until directCalls calls or directBudget have passed
// (never fewer than directFloor calls), one span per call of fn, and
// returns the median µs per unit. fn returns the interval it wants
// counted (zero: the whole call) and performs per units of work.
func (l *layers) sample(name string, per int, fn func() time.Duration) float64 {
	parent := l.tr.begin(name, l.root, 0)
	defer l.tr.end(parent)
	fn() // first call pays lazy initialisation; not counted
	var us []float64
	start := time.Now()
	for n := 0; n < directFloor || (n*per < directCalls && time.Since(start) < directBudget); n++ {
		id := l.tr.begin(name+".call", parent, 0)
		t0 := time.Now()
		d := fn()
		if d == 0 {
			d = time.Since(t0)
		}
		l.tr.end(id)
		us = append(us, float64(d)/float64(time.Microsecond)/float64(per))
	}
	return median(us)
}

// timeIt records metric name as the median µs of fn.
func (l *layers) timeIt(name string, fn func()) {
	l.set(name, l.sample(name, 1, func() time.Duration { fn(); return 0 }), "us")
}

// timeFast is timeIt for calls too short to time one at a time: each
// span covers a batch of 256.
func (l *layers) timeFast(name string, fn func()) {
	const batch = 256
	l.set(name, l.sample(name, batch, func() time.Duration {
		for i := 0; i < batch; i++ {
			fn()
		}
		return 0
	}), "us")
}

// allocsPer is testing.AllocsPerRun without the testing package: the
// mean number of mallocs per call of fn, with the process otherwise
// quiet.
func allocsPer(runs int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

// delta is b-a for one counter.
func delta(a, b map[string]float64, name string) float64 { return b[name] - a[name] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// shortResult is what one window of a traced run saw.
type shortResult struct {
	res            windowResult
	before, after  map[string]float64 // counters at the window's start and end
	cpuMsPerOp     float64
	attempted, bad int
}

// shortRun runs one window against a warmed instance. When traced,
// every client request is recorded live as a span.
func (l *layers) shortRun(label string, inst instance, r *runner, w workload, dur time.Duration, traced bool) (shortResult, error) {
	id := l.tr.begin(label, l.root, 0)
	defer l.tr.end(id)
	if traced {
		r.tr, r.trParent, r.kinds = l.tr, id, w.kinds
		defer func() { r.tr = nil }()
	}
	out := shortResult{before: inst.counters()}
	runtime.GC()
	out.res = r.window(dur)
	out.after = inst.counters()
	l.counters[label+".start"], l.counters[label+".end"] = out.before, out.after
	out.attempted, out.bad = len(out.res.samples), countFailed(out.res.samples)
	if out.bad > 0 {
		return out, fmt.Errorf("%s: %d of %d ops failed, first: %w", label, out.bad, out.attempted, r.err)
	}
	var cpu float64
	for _, s := range out.res.slices {
		cpu += s.cpuMs
	}
	out.cpuMsPerOp = ratio(cpu, float64(out.res.okOps))
	return out, nil
}

// runTraced is a whole traced run: the workload's own window traced
// and untraced, then the three per-layer families, which do not depend
// on which workload was asked for — every traced run emits every
// per-layer metric.
func runTraced(w workload, in *input, o options) (*report, error) {
	l := &layers{tr: newTracer(), metrics: map[string]value{}, counters: map[string]map[string]float64{}, o: o}
	l.root = l.tr.begin("trace", 0, 0)

	inst, r, dir, _, err := setUp(w, in, o.tmp, time.Now())
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer inst.close()
	// The untraced window is a full measured window: it is where the
	// client's own time-based figures come from.
	plain, err := l.shortRun(w.name+".untraced", inst, r, w, time.Duration(o.seconds*float64(time.Second)), false)
	if err != nil {
		return nil, err
	}
	if plain.res.okOps < minP90Ops {
		return nil, fmt.Errorf("only %d ops completed in the window: p90 needs %d", plain.res.okOps, minP90Ops)
	}
	traced, err := l.shortRun(w.name+".traced", inst, r, w, tracedWindow, true)
	if err != nil {
		return nil, err
	}
	if err := inst.check(); err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	inst.close()
	tm := plain.res.timings()
	l.set("client.ops_per_s", tm.opsPerS, "1/s")
	l.set("client.p50_ms", tm.p50, "ms")
	l.set("client.p90_ms", tm.p90, "ms")
	l.set("client.cpu_ms_per_op", tm.cpuPerOp, "ms")
	l.set("client.p99_ms", percentile(latencies(traced.res.samples, -1), 99), "ms")
	l.set("trace.overhead_ratio", ratio(medianSliceRate(traced.res.slices), tm.opsPerS), "1")

	if err := l.directCalls(); err != nil {
		return nil, fmt.Errorf("direct calls: %w", err)
	}
	if err := l.ladder(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := l.clientMix(); err != nil {
		return nil, fmt.Errorf("client spans: %w", err)
	}
	l.tr.end(l.root)

	for _, d := range perLayer {
		if v, ok := l.metrics[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	path := o.spans
	if path == "" {
		path = filepath.Join(o.tmp, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	}
	data, err := json.Marshal(spanFile{Workload: w.name, Seed: o.seed, Counters: l.counters, Metrics: l.metrics, Spans: l.tr.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(l.tr.spans), path)
	return &report{Correct: true, Attempted: plain.attempted + traced.attempted, Failed: plain.bad + traced.bad, Metrics: l.metrics}, nil
}

// rungs is the ablation ladder, bare engine to full fleet. Each rung
// adds one layer; the difference between neighbours is that layer's
// marginal cost, and the last rung is the fleet_submit configuration.
var rungs = []struct {
	name string
	spec fleetSpec
}{
	{"engine", fleetSpec{Peers: 1}},
	{"wire", fleetSpec{Wire: true, Peers: 1}},
	{"tenant", fleetSpec{Wire: true, Tenancy: true, Require: true, Peers: 1}},
	{"route", fleetSpec{Wire: true, Tenancy: true, Require: true, Peers: 4}},
	{"store", fleetSpec{Wire: true, Tenancy: true, Require: true, Peers: 4, Store: true}},
	{"replica", fleetSpec{Wire: true, Tenancy: true, Require: true, Peers: 4, Store: true, Replicate: true}},
	{"vdata", fullFleet},
}

func (l *layers) ladder() error {
	w := submitWorkload
	in := generate(l.o.seed, w.gen)
	for _, rung := range rungs {
		dir, err := mkRunDir(l.o.tmp)
		if err != nil {
			return err
		}
		s, err := startSubmit(rung.spec, in, dir)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("rung %s: %w", rung.name, err)
		}
		r := newRunner(s, in, w.callers)
		err = r.warm(w.warmup)
		var out shortResult
		if err == nil {
			out, err = l.shortRun("ladder."+rung.name, s, r, w, rungWindow, false)
		}
		if err == nil && rung.spec == fullFleet {
			l.fleetCounts(s.f, out)
		}
		if err == nil {
			err = s.check()
		}
		s.close()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("rung %s: %w", rung.name, err)
		}
		l.set("ladder."+rung.name+"_ms", percentile(latencies(out.res.samples, -1), 50), "ms")
		l.set("ladder."+rung.name+"_cpu_ms", out.cpuMsPerOp, "ms")
	}
	return nil
}

// fleetCounts turns the top rung's counter deltas into per-op counts
// at the layer boundaries.
func (l *layers) fleetCounts(f *fleet, out shortResult) {
	a, b := out.before, out.after
	ops := float64(out.res.okOps)
	per := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			sum += delta(a, b, n)
		}
		return ratio(sum, ops)
	}
	l.set("wire.frames_per_op", per("wire_frames_in_total", "wire_frames_out_total"), "1")
	l.set("wire.bytes_per_op", per("wire_bytes_in_total", "wire_bytes_out_total"), "B")
	l.set("shard.routed_share", per("shard_routes_total{outcome=routed}"), "1")
	l.set("matrix.steps_per_op", per("matrix_steps_total"), "1")
	l.set("store.records_per_op", per("store_records_total"), "1")
	l.set("store.fsyncs_per_op", per("journal_group_commits_total"), "1")
	l.set("store.records_per_fsync", ratio(delta(a, b, "journal_group_commit_records_total"), delta(a, b, "journal_group_commits_total")), "1")
	l.set("replica.frames_per_op", per("repl_frames_sent_total"), "1")
	l.set("replica.ack_timeouts", delta(a, b, "repl_ack_timeouts_total"), "count")
	hits, misses := delta(a, b, "vdata_hits_total"), delta(a, b, "vdata_misses_total")
	l.set("vdata.hit_ratio", ratio(hits, hits+misses), "1")
	l.set("tenant.rejections", delta(a, b, "tenant_quota_rejections_total"), "count")
	l.set("scheduler.rejected", delta(a, b, "sched_rejected_total"), "count")
	var bytes float64
	for _, n := range f.nodes {
		files, _ := recordLengths(filepath.Join(n.dir, "store")) // a missing directory counts as empty
		for _, size := range files {
			bytes += float64(size)
		}
	}
	l.set("store.bytes_per_flow", ratio(bytes, b["matrix_flows_started_total"]), "B")
}

func (l *layers) clientMix() error {
	w := mixWorkload
	in := generate(l.o.seed, w.gen)
	inst, r, dir, _, err := setUp(w, in, l.o.tmp, time.Now())
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer inst.close()
	out, err := l.shortRun("client_mix.spans", inst, r, w, mixWindow, true)
	if err != nil {
		return err
	}
	for kind, name := range w.kinds {
		l.set("client."+name+"_p50_ms", percentile(latencies(out.res.samples, kind), 50), "ms")
	}
	a, b := out.before, out.after
	statuses := float64(len(latencies(out.res.samples, 0)))
	l.set("wire.forwards_per_status", ratio(delta(a, b, "wire_peer_forwards_total"), statuses), "1")
	l.set("codec.fallback_share", ratio(delta(a, b, "codec_fallback_total"), delta(a, b, "wire_frames_in_total{kind=dgl}")), "1")
	return inst.check()
}
