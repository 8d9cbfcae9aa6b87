package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/replica"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// instance is one set-up of a workload: the system under test, built
// and preloaded, ready to take generated ops from its callers.
type instance interface {
	// prepare runs before an op's latency clock starts (restoring files
	// between recovery cycles); most workloads have nothing to do.
	prepare(caller int) error
	// op executes generated op number seq and verifies its reply. kind
	// labels the op for per-type client spans.
	op(caller int, seq int64, d opDesc) (kind uint8, err error)
	// settle brings the instance to the resident state live_heap_mb is
	// taken in: background work drained, long-lived state held open.
	settle() error
	// check runs the workload's end-of-run correctness check.
	check() error
	// counters returns the system's public counters, summed fleet-wide.
	counters() map[string]float64
	close()
}

// workload is one row of the benchmark: a named input shape, a caller
// count, and how to build an instance for it. Everything that differs
// between workloads lives in this table; no other code asks which
// workload it is running.
type workload struct {
	name    string
	why     string
	callers int
	warmup  int // ops run before the window opens — a fixed count, not a fixed time
	preload int // population built during set-up
	kinds   []string
	gen     genSpec
	build   func(w workload, in *input, dir string) (instance, error)
}

const (
	hotBindings   = 512  // memoized derivations fleet_submit re-requests
	pruneEvery    = 1000 // fleet_submit: Engine.Prune cadence, in ops
	pruneKeep     = 256
	dagItems      = 32 // engine_dag: forEach width
	dagLoops      = 8  // engine_dag: while iterations
	dagPruneEvery = 64
	dagPruneKeep  = 16
)

var workloads = []workload{
	{
		name:    "fleet_submit",
		why:     "sync 4-step flow through all of matrixd's production features at once: wire, codec, tenant, scheduler, shard route hop, store fsync, quorum replica, vdata",
		callers: 8, warmup: 2 * hotBindings, kinds: []string{"submit"},
		gen:   genSpec{Ops: 1 << 15, Kinds: []float64{1}, HotShare: 0.5, Hot: hotBindings, Tenants: fleetTenants, Names: 1024, Payloads: 64, PayloadB: 32},
		build: buildSubmit,
	},
	{
		name:    "client_mix",
		why:     "80% status / 20% async XML submit against the same fleet: the same layers used differently (reads beside writes, XML beside binary); store and replica nearly idle",
		callers: 8, warmup: 1500, preload: 2000, kinds: []string{"status", "submit"},
		gen:   genSpec{Ops: 1 << 16, Kinds: []float64{0.8, 0.2}, Hot: 2000, Tenants: fleetTenants, Names: 1024, Payloads: 64, PayloadB: 128},
		build: buildMix,
	},
	{
		name:    "engine_dag",
		why:     "137-step DAG on a bare engine over the virtual clock: bypasses wire, codec, tenant, store and replica, so an optimisation there predicts no change here",
		callers: 2, warmup: 1000, preload: 50000, kinds: []string{"run"},
		gen:   genSpec{Ops: 1 << 13, Kinds: []float64{1}, Hot: 50000, Tenants: fleetTenants, Names: 64, Payloads: 64, PayloadB: 16},
		build: buildDAG,
	},
	{
		name:    "restart_recovery",
		why:     "cold restart of an uncompacted binary store: replay, recover and finish the crash-abandoned flows; the read side of the store that fleet_submit only writes",
		callers: 1, warmup: 10, preload: 3000, kinds: []string{"cycle"},
		gen:   genSpec{Ops: 3000, Kinds: []float64{0.7, 0.2, 0.1}, Tenants: fleetTenants, Names: 64, Payloads: 64, PayloadB: 64},
		build: buildRecovery,
	},
}

// The traced run's shared families name the workloads whose inputs and
// configurations they reuse.
var (
	submitWorkload   = workloads[0]
	mixWorkload      = workloads[1]
	dagWorkload      = workloads[2]
	recoveryWorkload = workloads[3]
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the populations and the warm-up for toy runs (the
// smoke test); scale 1 is the benchmark.
func (w workload) scaled(scale float64) workload {
	if scale >= 1 {
		return w
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*scale), floor)
	}
	w.warmup = shrink(w.warmup, 4)
	w.preload = shrink(w.preload, 100)
	return w
}

// pruner runs fn in the background each time the op count crosses a
// multiple of every — maintenance by op count, so the completed
// population stays flat at any throughput.
type pruner struct {
	every int64
	kick  chan struct{}
	done  chan struct{}
}

func startPruner(every int64, fn func()) *pruner {
	p := &pruner{every: every, kick: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for range p.kick {
			fn()
		}
	}()
	return p
}

func (p *pruner) tick(seq int64) {
	if (seq+1)%p.every == 0 {
		select {
		case p.kick <- struct{}{}:
		default: // a prune is already pending; it will cover this one
		}
	}
}

func (p *pruner) stop() { close(p.kick); <-p.done }

func succeeded(resp *dgl.Response) error {
	switch {
	case resp == nil:
		return errors.New("no response")
	case resp.Error != "":
		return errors.New(resp.Error)
	case resp.Status == nil:
		return errors.New("response carries no status")
	case resp.Status.State != string(matrix.StateSucceeded):
		return fmt.Errorf("flow %s ended %s", resp.Status.ID, resp.Status.State)
	}
	return nil
}

// ---------------------------------------------------------------- fleet_submit

// submitInst drives sync flows through a fleet. It also serves every
// rung of the ablation ladder: the spec decides which layers exist.
type submitInst struct {
	f      *fleet
	in     *input
	pruner *pruner
	mu     sync.Mutex
	sample []string // execution ids of the seeded 1% sample
}

func buildSubmit(w workload, in *input, dir string) (instance, error) {
	return startSubmit(fullFleet, in, dir)
}

func startSubmit(spec fleetSpec, in *input, dir string) (*submitInst, error) {
	f, err := startFleet(spec, dir, 2)
	if err != nil {
		return nil, err
	}
	for _, n := range f.nodes {
		if err := n.grid.CreateCollectionAll(n.grid.Admin(), "/grid/w"); err != nil {
			f.close()
			return nil, err
		}
	}
	s := &submitInst{f: f, in: in}
	s.pruner = startPruner(pruneEvery, func() { f.prune(pruneKeep) })
	return s, nil
}

// submitFlow builds the fleet_submit flow for op seq: ingest → setMeta
// → pure exec → delete. A hot op re-requests one of hotBindings
// derivations under a fixed tenant and flow name, so it always routes
// to the peer that memoized it; a fresh op derives something new.
func submitFlow(in *input, seq int64, d opDesc) (tenant int, flow dgl.Flow) {
	tenant = int(d.Tenant)
	name := "job-" + strconv.Itoa(int(d.Name))
	binding := "fresh-" + strconv.FormatInt(seq, 10)
	if d.Hot == 1 {
		tenant = int(d.Target) % fleetTenants
		name = "hot-" + strconv.Itoa(int(d.Target))
		binding = name
	}
	path := "/grid/w/" + strconv.FormatInt(seq, 10) + ".dat"
	flow = dgl.NewFlow(name).
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{"path": path, "size": "4096", "resource": resourceName})).
		Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{"path": path, "attr": "run", "value": in.payloads[d.Payload]})).
		PureStep("derive", dgl.Op(dgl.OpExec, map[string]string{
			"command": "transform " + binding, "cpuSeconds": "0", "resultVar": "derived",
		}), "/grid/derived/"+binding+".dat").
		Step("drop", dgl.Op(dgl.OpDelete, map[string]string{"path": path})).
		Flow()
	return tenant, flow
}

func (s *submitInst) prepare(int) error { return nil }

func (s *submitInst) op(caller int, seq int64, d opDesc) (uint8, error) {
	if seq < hotBindings {
		// The first ops of an instance's life walk the hot pool once, so
		// every hot derivation is memoized before the window opens and
		// the hit ratio is the generator's HotShare from the first
		// measured op on.
		d.Hot, d.Target = 1, uint32(seq)
	}
	t, flow := submitFlow(s.in, seq, d)
	resp, err := s.f.submit(caller, t, dgl.NewRequest(s.f.tenants[t], "", flow))
	if err != nil {
		return 0, err
	}
	if err := succeeded(resp); err != nil {
		return 0, err
	}
	if d.Name%100 == 0 {
		id, _, _ := strings.Cut(resp.Status.ID, "/")
		s.mu.Lock()
		s.sample = append(s.sample, id)
		s.mu.Unlock()
	}
	s.pruner.tick(seq)
	return 0, nil
}

func (s *submitInst) settle() error { return nil }

// check proves the acks were what they claimed: for every sampled
// flow the owner's store holds exec.end, and — after a clean shutdown —
// so does the replica store its ring follower kept for it.
func (s *submitInst) check() error {
	byName := map[string]*node{}
	var names []string
	for _, n := range s.f.nodes {
		byName[n.name] = n
		names = append(names, n.name)
	}
	if s.f.spec.Store {
		for _, id := range s.sample {
			owner := byName[wire.OwnerOf(id)]
			if owner == nil {
				return fmt.Errorf("sampled flow %s has no owner in the fleet", id)
			}
			if ent, ok := owner.store.Entry(id); !ok || !ent.Ended {
				return fmt.Errorf("owner %s: no durable exec.end for acknowledged flow %s", owner.name, id)
			}
		}
	}
	s.close()
	if !s.f.spec.Replicate {
		return nil
	}
	replicas := map[string]*store.Store{}
	defer func() {
		for _, st := range replicas {
			st.Close()
		}
	}()
	for _, id := range s.sample {
		owner := wire.OwnerOf(id)
		st := replicas[owner]
		if st == nil {
			follower := replica.SelectFollowers(owner, names, 1)[0]
			var err error
			st, err = store.Open(filepath.Join(byName[follower].dir, "replica", owner), store.Options{Binary: true})
			if err != nil {
				return fmt.Errorf("open %s's replica of %s: %w", follower, owner, err)
			}
			replicas[owner] = st
		}
		if ent, ok := st.Entry(id); !ok || !ent.Ended {
			return fmt.Errorf("replica of %s: no exec.end for quorum-acknowledged flow %s", owner, id)
		}
	}
	return nil
}

func (s *submitInst) counters() map[string]float64 { return s.f.counters() }

func (s *submitInst) close() {
	if !s.f.closed {
		s.pruner.stop()
	}
	s.f.close()
}

// ---------------------------------------------------------------- client_mix

// mixInst is the client-facing mix: status queries against a preloaded
// population beside async XML submits, on text sessions.
type mixInst struct {
	f         *fleet
	in        *input
	ids       []string // preloaded execution ids
	names     []string // flow name of ids[i]
	submitted [][]string
	preloaded float64 // matrix_flows_succeeded_total after preload
}

func mixFlow(in *input, d opDesc) dgl.Flow {
	b := dgl.NewFlow("mix-" + strconv.Itoa(int(d.Name)))
	for v := 0; v < 8; v++ {
		b.Var("v"+strconv.Itoa(v), in.payloads[(int(d.Payload)+v)%len(in.payloads)])
	}
	return b.Step("noop", dgl.Op(dgl.OpNoop, nil)).Flow()
}

func buildMix(w workload, in *input, dir string) (instance, error) {
	spec := fullFleet
	spec.XML = true
	// Tokens are offered and verified on every request but not required:
	// the peer-to-peer hop of a forwarded status query carries no token,
	// so under -tenant-require every cross-peer status is refused
	// ("server requires a tenant token") — three quarters of this mix.
	spec.Require = false
	f, err := startFleet(spec, dir, 2)
	if err != nil {
		return nil, err
	}
	m := &mixInst{f: f, in: in, submitted: make([][]string, w.callers)}
	if err := m.preload(w); err != nil {
		f.close()
		return nil, err
	}
	return m, nil
}

// preload submits w.preload async flows through the wire — routed to
// their shard owners, so the population spreads over the four peers —
// and waits until every one has ended.
func (m *mixInst) preload(w workload) error {
	m.ids = make([]string, w.preload)
	m.names = make([]string, w.preload)
	var next atomic.Int64
	errs := make(chan error, w.callers)
	for c := 0; c < w.callers; c++ {
		go func(c int) {
			for {
				i := next.Add(1) - 1
				if i >= int64(w.preload) {
					errs <- nil
					return
				}
				t := int(i) % fleetTenants
				name := "pre-" + strconv.FormatInt(i, 10)
				flow := dgl.NewFlow(name).Step("noop", dgl.Op(dgl.OpNoop, nil)).Flow()
				resp, err := m.f.submit(c, t, dgl.NewRequest(m.f.tenants[t], "", flow), wire.WithAsync())
				if err == nil && (resp.Error != "" || resp.Ack == nil || !resp.Ack.Valid) {
					err = fmt.Errorf("preload %s: not acknowledged: %s", name, resp.Error)
				}
				if err != nil {
					errs <- err
					return
				}
				m.ids[i], m.names[i] = resp.Ack.ID, name
			}
		}(c)
	}
	for c := 0; c < w.callers; c++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	if err := m.drain(float64(w.preload)); err != nil {
		return err
	}
	m.preloaded = float64(w.preload)
	return nil
}

// drain waits until want flows have succeeded fleet-wide.
func (m *mixInst) drain(want float64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got float64
		for _, n := range m.f.nodes {
			got += float64(n.reg.Counter("matrix_flows_succeeded_total").Value())
		}
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %.0f of %.0f async flows succeeded", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (m *mixInst) prepare(int) error { return nil }

func (m *mixInst) op(caller int, seq int64, d opDesc) (uint8, error) {
	t := int(d.Tenant)
	user := m.f.tenants[t]
	if d.Kind == 1 {
		resp, err := m.f.submit(caller, t, dgl.NewRequest(user, "", mixFlow(m.in, d)), wire.WithAsync())
		if err != nil {
			return 1, err
		}
		if resp.Error != "" || resp.Ack == nil || !resp.Ack.Valid {
			return 1, fmt.Errorf("submit not acknowledged: %s", resp.Error)
		}
		m.submitted[caller] = append(m.submitted[caller], resp.Ack.ID)
		return 1, nil
	}
	i := int(d.Target) % len(m.ids)
	detail := d.Detail == 1
	resp, err := m.f.submit(caller, t, dgl.NewStatusRequest(user, m.ids[i], detail))
	if err != nil {
		return 0, err
	}
	if err := succeeded(resp); err != nil {
		return 0, err
	}
	st := resp.Status
	if st.Name != m.names[i] || (detail && len(st.Children) != 1) || (!detail && len(st.Children) != 0) {
		return 0, fmt.Errorf("status of %s: got %s with %d children", m.ids[i], st.Name, len(st.Children))
	}
	return 0, nil
}

func (m *mixInst) submittedCount() (n int) {
	for _, ids := range m.submitted {
		n += len(ids)
	}
	return n
}

func (m *mixInst) settle() error { return m.drain(m.preloaded + float64(m.submittedCount())) }

// check resolves a spread of the ids the window's submits were
// acknowledged with; settle already proved every one of them ended.
func (m *mixInst) check() error {
	if err := m.settle(); err != nil {
		return err
	}
	for c, ids := range m.submitted {
		step := max(len(ids)/100, 1)
		for i := 0; i < len(ids); i += step {
			resp, err := m.f.submit(c, 0, dgl.NewStatusRequest(m.f.tenants[0], ids[i], false))
			if err == nil {
				err = succeeded(resp)
			}
			if err != nil {
				return fmt.Errorf("submitted flow %s does not resolve: %w", ids[i], err)
			}
		}
	}
	return nil
}

func (m *mixInst) counters() map[string]float64 { return m.f.counters() }
func (m *mixInst) close()                       { m.f.close() }

// ---------------------------------------------------------------- engine_dag

// dagInst runs a many-step flow straight into a bare engine on the
// virtual clock: no wire, no store, no tenant, no real sleeping.
type dagInst struct {
	in      *input
	reg     *obs.Registry
	engine  *matrix.Engine
	objects int
	callers int
	pruner  *pruner
	// tagged[c] remembers, for caller c, the last value its ops wrote to
	// the tag attribute of each preloaded object. Callers write disjoint
	// objects one op at a time, so the last write is well defined.
	tagged []map[int]string
}

func prePath(i int) string { return "/grid/pre/" + strconv.Itoa(i) + ".dat" }

func buildDAG(w workload, in *input, dir string) (instance, error) {
	// The provenance store is closed: every record is still built and
	// offered, none is retained. Retained, a window's 5 M records make
	// the store's slice regrow in 500 MB steps under its lock, which
	// stalls both callers for seconds at a time (bench/README.md) — a
	// finding about the system, not a steady state a bound can sit on.
	prov := provenance.NewMemory()
	prov.Close()
	g, reg, err := newGrid(sim.NewVirtualClock(sim.Epoch), vfs.Disk, prov)
	if err != nil {
		return nil, err
	}
	admin := g.Admin()
	if err := g.CreateCollectionAll(admin, "/grid/work"); err != nil {
		return nil, err
	}
	if err := g.CreateCollectionAll(admin, "/grid/pre"); err != nil {
		return nil, err
	}
	for i := 0; i < w.preload; i++ {
		if err := g.Ingest(admin, prePath(i), 1024, nil, resourceName); err != nil {
			return nil, err
		}
	}
	d := &dagInst{
		in: in, reg: reg, objects: w.preload, callers: w.callers,
		engine: matrix.NewEngineConfig(g, matrix.Config{MaxParallel: dagItems}),
		tagged: make([]map[int]string, w.callers),
	}
	for c := range d.tagged {
		d.tagged[c] = map[int]string{}
	}
	d.pruner = startPruner(dagPruneEvery, func() { d.engine.Prune(dagPruneKeep) })
	return d, nil
}

// dagTargets are the dagItems preloaded objects an op tags: a run of
// consecutive slots starting at the descriptor's draw, inside the
// caller's own residue class so no two callers ever tag one object.
func (d *dagInst) dagTargets(caller int, desc opDesc) []int {
	slots := d.objects / d.callers
	out := make([]int, dagItems)
	for i := range out {
		out[i] = (int(desc.Target)+i)%slots*d.callers + caller
	}
	return out
}

// dagFlow builds the engine_dag flow: setVariable; parallel forEach
// over dagItems items { ingest; switch on an expr over the item;
// setMeta }; a while loop of dagLoops iterations with an expr guard;
// forEach delete of the ingested objects. 1 + 3·32 + 8 + 32 = 137
// steps. The items are the indices of the preloaded objects to tag.
func dagFlow(seq int64, desc opDesc, targets []int, value string) dgl.Flow {
	items := make([]string, len(targets))
	for i, t := range targets {
		items[i] = strconv.Itoa(t)
	}
	list := strings.Join(items, ",")
	work := "/grid/work/" + strconv.FormatInt(seq, 10) + "-${it}.dat"
	fan := dgl.NewFlow("fan").ForEachIn("it", list).ParallelIterations().
		SubFlow(dgl.NewFlow("put").Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
			"path": work, "size": "1024", "resource": resourceName}))).
		SubFlow(dgl.NewFlow("pick").SwitchOn(`"arm" + ($it % 2)`).
			Step("arm0", dgl.Op(dgl.OpNoop, nil)).
			Step("arm1", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "odd", "value": "${it}"}))).
		SubFlow(dgl.NewFlow("tag").Step("meta", dgl.Op(dgl.OpSetMeta, map[string]string{
			"path": "/grid/pre/${it}.dat", "attr": "tag", "value": value})))
	return dgl.NewFlow("dag-"+strconv.Itoa(int(desc.Name))).Var("i", "0").Var("run", "").Var("odd", "").
		SubFlow(dgl.NewFlow("init").Step("set", dgl.Op(dgl.OpSetVariable, map[string]string{
			"name": "run", "expr": `"run-" + ` + strconv.FormatInt(seq, 10)}))).
		SubFlow(fan).
		SubFlow(dgl.NewFlow("loop").WhileLoop("$i < "+strconv.Itoa(dagLoops)).
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "i", "expr": "$i + 1"}))).
		SubFlow(dgl.NewFlow("clean").ForEachIn("it", list).
			Step("drop", dgl.Op(dgl.OpDelete, map[string]string{"path": work}))).
		Flow()
}

func (d *dagInst) prepare(int) error { return nil }

func (d *dagInst) op(caller int, seq int64, desc opDesc) (uint8, error) {
	targets := d.dagTargets(caller, desc)
	value := d.in.payloads[desc.Payload] + "-" + strconv.FormatInt(seq, 10)
	ex, err := d.engine.Run("user"+strconv.Itoa(int(desc.Tenant)), dagFlow(seq, desc, targets, value))
	if err != nil {
		return 0, err
	}
	if err := ex.Err(); err != nil {
		return 0, err
	}
	for _, t := range targets {
		d.tagged[caller][t] = value
	}
	d.pruner.tick(seq)
	return 0, nil
}

func (d *dagInst) settle() error { return nil }

// check: every flow deleted what it ingested, so the namespace is back
// to the preloaded population, and the tags the callers remember
// writing are the tags the namespace holds.
func (d *dagInst) check() error {
	ns := d.engine.Grid().Namespace()
	if got := ns.Stats().Objects; got != d.objects {
		return fmt.Errorf("namespace holds %d objects, want the preloaded %d", got, d.objects)
	}
	for _, tags := range d.tagged {
		for obj, want := range tags {
			got, ok, err := ns.GetMeta(prePath(obj), "tag")
			if err != nil || !ok || got != want {
				return fmt.Errorf("object %s: tag = %q (%v, %v), want %q", prePath(obj), got, ok, err, want)
			}
		}
	}
	return nil
}

func (d *dagInst) counters() map[string]float64 {
	out := map[string]float64{}
	addCounters(out, d.reg)
	return out
}

func (d *dagInst) close() {
	if d.pruner != nil {
		d.pruner.stop()
		d.pruner = nil
	}
}

// ---------------------------------------------------------------- restart_recovery

// gateOp is the engine-registered operation the recovery flows block
// on during set-up, so they can be passivated or abandoned at a known
// step; recovering engines register it as a pass-through.
const gateOp = "benchGate"

// recoveryInst holds one crashed store directory and replays it, cycle
// after cycle, from identical bytes.
type recoveryInst struct {
	dir        string
	files      map[string]int64 // the store directory as set-up left it
	passivated int
	abandoned  int
	held       *recovered // the last settle()'s open engine, closed before the next cycle
}

// recovered is one restarted process: the reopened store and the
// engine that resumed its flows.
type recovered struct {
	reg   *obs.Registry
	store *store.Store
}

func recoveryFlow(in *input, i int, d opDesc) dgl.Flow {
	b := dgl.NewFlow("rec-"+strconv.Itoa(int(d.Name))).Var("note", in.payloads[d.Payload])
	for s := 0; s < 2; s++ {
		b.Step("work"+strconv.Itoa(s), dgl.Op(dgl.OpNoop, nil))
	}
	if d.Kind != 0 {
		b.Step("gate", dgl.Op(gateOp, nil))
	}
	return b.Step("tail0", dgl.Op(dgl.OpNoop, nil)).Step("tail1", dgl.Op(dgl.OpNoop, nil)).Flow()
}

// buildRecovery writes the crashed store through a real engine: kind 0
// flows run to their end, kind 1 flows are passivated at the gate
// (behind an exec.snap), kind 2 flows are abandoned at the gate — two
// noop steps before their end — when the store closes under them.
func buildRecovery(w workload, in *input, dir string) (instance, error) {
	g, _, err := newGrid(sim.RealClock{}, vfs.Memory, nil)
	if err != nil {
		return nil, err
	}
	r := &recoveryInst{dir: filepath.Join(dir, "store")}
	st, err := store.Open(r.dir, store.Options{Binary: true})
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{})
	e.SetStore(st)
	release := make(chan struct{})
	var gated atomic.Int64
	e.RegisterOp(gateOp, func(c *matrix.OpContext) error {
		gated.Add(1)
		select {
		case <-release:
			return nil
		case <-c.Cancel:
			return matrix.ErrCancelled
		}
	})
	var parked, open []*matrix.Execution
	var running []*matrix.Execution
	for i := 0; i < w.preload; i++ {
		d := in.at(int64(i))
		ex, err := e.Start("user"+strconv.Itoa(int(d.Tenant)), recoveryFlow(in, i, d))
		if err != nil {
			st.Close()
			return nil, err
		}
		switch d.Kind {
		case 0:
			running = append(running, ex)
		case 1:
			parked = append(parked, ex)
		default:
			open = append(open, ex)
		}
		if len(running) >= fleetInflight {
			// Bounded concurrency: the group commit batches what is in
			// flight, like a server's admission pool would.
			for _, ex := range running {
				if err := ex.Wait(); err != nil {
					st.Close()
					return nil, err
				}
			}
			running = running[:0]
		}
	}
	for _, ex := range running {
		if err := ex.Wait(); err != nil {
			st.Close()
			return nil, err
		}
	}
	for gated.Load() < int64(len(parked)+len(open)) {
		time.Sleep(time.Millisecond)
	}
	// Passivate in parallel so the snapshots and markers share group
	// commits: one at a time they are 2 × len(parked) sequential fsyncs,
	// and set-up time would mostly measure the disk's mood.
	sem := make(chan struct{}, fleetInflight)
	passErrs := make(chan error, len(parked))
	for _, ex := range parked {
		sem <- struct{}{}
		go func(id string) {
			passErrs <- e.Passivate(id)
			<-sem
		}(ex.ID)
	}
	for range parked {
		if err := <-passErrs; err != nil {
			st.Close()
			return nil, err
		}
	}
	// The crash: the store goes away with the abandoned flows still at
	// their gate. They are then released to unwind in memory; their
	// appends fail against the closed store and leave no trace.
	if err := st.Close(); err != nil {
		return nil, err
	}
	close(release)
	for _, ex := range open {
		<-ex.Done()
	}
	r.passivated, r.abandoned = len(parked), len(open)
	if r.files, err = recordLengths(r.dir); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *recoveryInst) release() {
	if r.held != nil {
		r.held.store.Close()
		r.held = nil
	}
}

func (r *recoveryInst) prepare(int) error {
	r.release()
	return restoreLengths(r.dir, r.files)
}

// restart is one cold start: open (replay), attach, recover, and run
// the resumed flows to completion. It verifies what it recovered.
func (r *recoveryInst) restart() (*recovered, error) {
	g, reg, err := newGrid(sim.RealClock{}, vfs.Memory, nil)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(r.dir, store.Options{Binary: true})
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{})
	e.RegisterOp(gateOp, func(*matrix.OpContext) error { return nil })
	e.SetStore(st)
	resumed, err := e.RecoverFromStore()
	if err != nil {
		st.Close()
		return nil, err
	}
	for _, ex := range resumed {
		if err := ex.Wait(); err != nil {
			st.Close()
			return nil, fmt.Errorf("resumed flow %s: %w", ex.ID, err)
		}
	}
	// Exactly the abandoned flows ran — so no ended flow ran again — and
	// the passivated ones are still parked on disk.
	started := reg.Counter("matrix_flows_started_total").Value()
	if len(resumed) != r.abandoned || started != int64(r.abandoned) {
		st.Close()
		return nil, fmt.Errorf("recovery resumed %d flows (%d started), want %d", len(resumed), started, r.abandoned)
	}
	if got := st.Stats().Passivated; got != r.passivated {
		st.Close()
		return nil, fmt.Errorf("recovery left %d flows passivated, want %d", got, r.passivated)
	}
	return &recovered{reg: reg, store: st}, nil
}

func (r *recoveryInst) op(int, int64, opDesc) (uint8, error) {
	rec, err := r.restart()
	if err != nil {
		return 0, err
	}
	return 0, rec.store.Close()
}

// settle leaves one recovered process open, so live_heap_mb is what a
// restarted server keeps resident: the index, not the parked flows.
func (r *recoveryInst) settle() error {
	if err := r.prepare(0); err != nil {
		return err
	}
	rec, err := r.restart()
	r.held = rec
	return err
}

func (r *recoveryInst) check() error {
	// Every cycle checked itself; what is left to prove is that the
	// directory can still be brought back to the recorded bytes.
	if err := r.prepare(0); err != nil {
		return err
	}
	now, err := recordLengths(r.dir)
	if err != nil {
		return err
	}
	for name, n := range r.files {
		if now[name] != n {
			return fmt.Errorf("%s: %d bytes after restore, recorded %d", name, now[name], n)
		}
	}
	if len(now) != len(r.files) {
		return fmt.Errorf("%d files after restore, recorded %d", len(now), len(r.files))
	}
	return nil
}

func (r *recoveryInst) counters() map[string]float64 {
	out := map[string]float64{}
	if r.held != nil {
		addCounters(out, r.held.reg)
	}
	return out
}

func (r *recoveryInst) close() { r.release() }
