package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datagridflow/internal/baseline"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/ilm"
	"datagridflow/internal/infra"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/sim"
	"datagridflow/internal/trigger"
	"datagridflow/internal/vfs"
	"datagridflow/internal/workload"
)

// E5Scalability quantifies the §3.1 scalability requirement: steps per
// flow, and concurrent flows per engine.
func E5Scalability(s Scale) (*Report, error) {
	r := &Report{
		ID: "E5", Title: "§3.1 — engine scalability (steps/flow, concurrent flows)",
		Header: []string{"dimension", "size", "wall", "steps/sec"},
	}
	_, e, err := newEngine()
	if err != nil {
		return nil, err
	}
	flowOf := func(n int) dgl.Flow {
		b := dgl.NewFlow("scale")
		for i := 0; i < n; i++ {
			b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpNoop, nil))
		}
		return b.Flow()
	}
	sizes := []int{10, 100, pick(s, 1000, 10000)}
	for _, n := range sizes {
		flow := flowOf(n)
		t0 := time.Now()
		ex, err := e.Run("user", flow)
		if err != nil {
			return nil, err
		}
		if err := ex.Wait(); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		r.Row("steps/flow", fmt.Sprint(n), wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(n)/wall.Seconds()))
	}
	conc := []int{1, 8, pick(s, 32, 256)}
	per := pick(s, 20, 50)
	for _, c := range conc {
		flow := flowOf(per)
		t0 := time.Now()
		execs := make([]*matrix.Execution, c)
		for i := range execs {
			ex, err := e.Start("user", flow)
			if err != nil {
				return nil, err
			}
			execs[i] = ex
		}
		for _, ex := range execs {
			if err := ex.Wait(); err != nil {
				return nil, err
			}
		}
		wall := time.Since(t0)
		total := c * per
		r.Row("concurrent flows", fmt.Sprintf("%d×%d", c, per),
			wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(total)/wall.Seconds()))
	}
	return r, nil
}

// flakyOnce returns an op that fails exactly once (the injected outage),
// plus the equivalent cron-script closure.
func flakyOnce() (matrix.OpHandler, baseline.ScriptOp) {
	var mu sync.Mutex
	failed := false
	failOnce := func() error {
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			return errors.New("injected outage")
		}
		return nil
	}
	return func(*matrix.OpContext) error { return failOnce() },
		func(*dgms.Grid) error { return failOnce() }
}

// e6Grid builds the BBSRC topology: hospital domains with local disk
// plus the archiver's tape silo, over slow hospital uplinks.
func e6Grid(hospitals int) (*dgms.Grid, error) {
	g := dgms.New(dgms.Options{})
	if err := g.RegisterResource(vfs.New("archive-tape", "archiver", vfs.Archive, 0)); err != nil {
		return nil, err
	}
	for h := 0; h < hospitals; h++ {
		domain := fmt.Sprintf("hospital%02d", h)
		if err := g.RegisterResource(vfs.New(domain+"-disk", domain, vfs.Disk, 0)); err != nil {
			return nil, err
		}
		g.Network().SetSymmetric(domain, "archiver", sim.Link{Bandwidth: 5 << 20, Latency: 80 * time.Millisecond})
	}
	return g, nil
}

// E6ImplodingStar compares the DfMS-managed archival flow against the
// cron-script baseline on the BBSRC imploding-star scenario, with one
// injected mid-run outage.
func E6ImplodingStar(s Scale) (*Report, error) {
	hospitals := pick(s, 3, 12)
	perHospital := pick(s, 6, 100)
	specsByDomain := workload.Hospitals(sim.NewRand(6), hospitals, perHospital)
	total := hospitals * perHospital
	outageAt := total / 2

	type result struct {
		attempts  int
		redundant int
		bytes     int64
		provOK    int
		archived  int
	}

	// --- DfMS: migration flow with a once-failing outage step, restart
	// with checkpoints after the failure.
	runMatrix := func() (result, error) {
		g, err := e6Grid(hospitals)
		if err != nil {
			return result{}, err
		}
		for domain, specs := range specsByDomain {
			if err := workload.Ingest(g, g.Admin(), domain+"-disk", specs); err != nil {
				return result{}, err
			}
		}
		g.Network().Reset()
		e := matrix.NewEngine(g)
		outage, _ := flakyOnce()
		e.RegisterOp("outage", outage)
		b := dgl.NewFlow("bbsrc-implode")
		i := 0
		for h := 0; h < hospitals; h++ {
			domain := fmt.Sprintf("hospital%02d", h)
			for _, spec := range specsByDomain[domain] {
				if i == outageAt {
					b.Step("outage", dgl.Op("outage", nil))
				}
				b.Step(fmt.Sprintf("pull-%05d", i), dgl.Op(dgl.OpMigrate, map[string]string{
					"path": spec.Path, "from": domain + "-disk", "to": "archive-tape",
				}))
				i++
			}
		}
		ex, err := e.Run(g.Admin(), b.Flow())
		if err != nil {
			return result{}, err
		}
		_ = ex.Wait() // fails at the outage
		ex2, err := e.Restart(ex.ID)
		if err != nil {
			return result{}, err
		}
		if err := ex2.Wait(); err != nil {
			return result{}, err
		}
		var res result
		res.bytes = g.Network().TotalTraffic()
		res.attempts = g.Provenance().Count(provenance.Filter{Action: "step.start"})
		res.redundant = g.Provenance().Count(provenance.Filter{Action: "migrate"}) - total
		res.provOK = g.Provenance().Count(provenance.Filter{Action: "migrate", Outcome: provenance.OutcomeOK})
		tape, _ := g.Resource("archive-tape")
		res.archived = tape.Count()
		return res, nil
	}

	// --- Cron baseline: hard-wired script, aborts at the outage, re-runs
	// from the top (tolerating already-migrated records at a cost).
	runCron := func() (result, error) {
		g, err := e6Grid(hospitals)
		if err != nil {
			return result{}, err
		}
		for domain, specs := range specsByDomain {
			if err := workload.Ingest(g, g.Admin(), domain+"-disk", specs); err != nil {
				return result{}, err
			}
		}
		g.Network().Reset()
		_, outage := flakyOnce()
		script := &baseline.CronScript{Name: "bbsrc-archive"}
		i := 0
		redundant := 0
		for h := 0; h < hospitals; h++ {
			domain := fmt.Sprintf("hospital%02d", h)
			for _, spec := range specsByDomain[domain] {
				if i == outageAt {
					script.Ops = append(script.Ops, outage)
				}
				path, from := spec.Path, domain+"-disk"
				script.Ops = append(script.Ops, func(g *dgms.Grid) error {
					err := g.Migrate(g.Admin(), path, from, "archive-tape")
					if errors.Is(err, dgms.ErrNoReplica) {
						redundant++ // `|| true` around the re-run
						return nil
					}
					return err
				})
				i++
			}
		}
		if err := script.RunUntilSuccess(g, time.Hour, 5); err != nil {
			return result{}, err
		}
		var res result
		res.bytes = g.Network().TotalTraffic()
		res.attempts = script.OpsExecuted
		res.redundant = redundant
		res.provOK = 0 // a script's only record is its exit code
		tape, _ := g.Resource("archive-tape")
		res.archived = tape.Count()
		return res, nil
	}

	m, err := runMatrix()
	if err != nil {
		return nil, err
	}
	c, err := runCron()
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "E6",
		Title:  fmt.Sprintf("§2.1 — BBSRC imploding star, %d records, outage at %d", total, outageAt),
		Header: []string{"engine", "archived", "op-attempts", "redundant", "bytes-moved", "provenance-records"},
	}
	r.Row("matrix (restart)", fmt.Sprint(m.archived), fmt.Sprint(m.attempts), fmt.Sprint(m.redundant),
		sim.FormatBytes(m.bytes), fmt.Sprint(m.provOK))
	r.Row("cron scripts", fmt.Sprint(c.archived), fmt.Sprint(c.attempts), fmt.Sprint(c.redundant),
		sim.FormatBytes(c.bytes), fmt.Sprint(c.provOK))
	if m.archived != total || c.archived != total {
		return nil, fmt.Errorf("E6: archive incomplete (%d/%d vs %d)", m.archived, c.archived, total)
	}
	if m.redundant != 0 {
		return nil, fmt.Errorf("E6: matrix re-executed %d migrations", m.redundant)
	}
	if c.redundant <= 0 {
		return nil, fmt.Errorf("E6: cron baseline showed no redundancy")
	}
	r.Note("matrix restart skipped all completed migrations; cron re-attempted %d", c.redundant)
	return r, nil
}

// e7Grid builds the CMS topology: tier-0 (cern) plus two tiers, with
// bandwidth falling off away from the source.
func e7Grid() (*dgms.Grid, [][]string, error) {
	g := dgms.New(dgms.Options{})
	domains := []string{"cern", "fnal", "in2p3", "ufl", "caltech"}
	for _, d := range domains {
		if err := g.RegisterResource(vfs.New(d, d, vfs.Disk, 0)); err != nil {
			return nil, nil, err
		}
	}
	fast := sim.Link{Bandwidth: 100 << 20, Latency: 50 * time.Millisecond}
	med := sim.Link{Bandwidth: 50 << 20, Latency: 30 * time.Millisecond}
	slow := sim.Link{Bandwidth: 10 << 20, Latency: 120 * time.Millisecond}
	for _, t1 := range []string{"fnal", "in2p3"} {
		g.Network().SetSymmetric("cern", t1, fast)
		for _, t2 := range []string{"ufl", "caltech"} {
			g.Network().SetSymmetric(t1, t2, med)
		}
	}
	for _, t2 := range []string{"ufl", "caltech"} {
		g.Network().SetSymmetric("cern", t2, slow)
	}
	tiers := [][]string{{"fnal", "in2p3"}, {"ufl", "caltech"}}
	return g, tiers, nil
}

// E7ExplodingStar measures the CMS tiered push: staged replication
// (tier N pulls from tier N-1) versus naive direct fan-out from the
// source, on identical topologies.
func E7ExplodingStar(s Scale) (*Report, error) {
	n := pick(s, 4, 32)
	specs := workload.CMSRuns(sim.NewRand(7), n)

	type result struct {
		cernOut int64
		total   int64
		elapsed time.Duration
	}
	load := func(g *dgms.Grid) error {
		if err := workload.Ingest(g, g.Admin(), "cern", specs); err != nil {
			return err
		}
		g.Network().Reset()
		return nil
	}
	measure := func(g *dgms.Grid, start time.Time) result {
		var out result
		for _, d := range []string{"fnal", "in2p3", "ufl", "caltech"} {
			out.cernOut += g.Network().Traffic("cern", d)
		}
		out.total = g.Network().TotalTraffic()
		out.elapsed = g.Clock().Now().Sub(start)
		return out
	}

	// Staged.
	g1, tiers, err := e7Grid()
	if err != nil {
		return nil, err
	}
	if err := load(g1); err != nil {
		return nil, err
	}
	e1 := matrix.NewEngine(g1)
	flow, err := ilm.ExplodingStar(g1, g1.Admin(), "/grid/cms", tiers)
	if err != nil {
		return nil, err
	}
	start := g1.Clock().Now()
	ex, err := e1.Run(g1.Admin(), flow)
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	staged := measure(g1, start)

	// Naive: every replica pulled straight from CERN.
	g2, _, err := e7Grid()
	if err != nil {
		return nil, err
	}
	if err := load(g2); err != nil {
		return nil, err
	}
	e2 := matrix.NewEngine(g2)
	b := dgl.NewFlow("naive-fanout").Parallel()
	for ri, res := range []string{"fnal", "in2p3", "ufl", "caltech"} {
		per := dgl.NewFlow(fmt.Sprintf("to-%s-%d", res, ri))
		for ei, spec := range specs {
			per.Step(fmt.Sprintf("rep-%04d", ei), dgl.Op(dgl.OpReplicate, map[string]string{
				"path": spec.Path, "to": res, "from": "cern",
			}))
		}
		b.SubFlow(per)
	}
	start2 := g2.Clock().Now()
	ex2, err := e2.Run(g2.Admin(), b.Flow())
	if err != nil {
		return nil, err
	}
	if err := ex2.Wait(); err != nil {
		return nil, err
	}
	naive := measure(g2, start2)

	r := &Report{
		ID:     "E7",
		Title:  fmt.Sprintf("§2.1 — CMS exploding star, %d runs (%s)", n, sim.FormatBytes(workload.TotalBytes(specs))),
		Header: []string{"strategy", "cern-outbound", "total-traffic", "sim-elapsed"},
	}
	r.Row("staged tiers", sim.FormatBytes(staged.cernOut), sim.FormatBytes(staged.total), staged.elapsed.Round(time.Second).String())
	r.Row("direct fan-out", sim.FormatBytes(naive.cernOut), sim.FormatBytes(naive.total), naive.elapsed.Round(time.Second).String())
	if staged.cernOut >= naive.cernOut {
		return nil, fmt.Errorf("E7: staging did not reduce source egress (%d vs %d)", staged.cernOut, naive.cernOut)
	}
	r.Note("staging halves tier-0 egress: %d vs %d bytes", staged.cernOut, naive.cernOut)
	return r, nil
}

// E8Triggers measures trigger matching/firing throughput and the
// multi-user ordering divergence the paper flags as an open issue.
func E8Triggers(s Scale) (*Report, error) {
	r := &Report{
		ID: "E8", Title: "§2.2 — trigger throughput and ordering divergence",
		Header: []string{"measure", "value"},
	}
	// Throughput.
	g, e, err := newEngine()
	if err != nil {
		return nil, err
	}
	m := trigger.NewManager(g, e, 4, 8192)
	defer m.Close()
	nTrig := pick(s, 5, 20)
	for i := 0; i < nTrig; i++ {
		err := m.Define(trigger.Trigger{
			Name: fmt.Sprintf("t%d", i), Owner: "user",
			Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
			Condition: fmt.Sprintf("endsWith($path, '.%03d')", i),
			Operations: []dgl.Operation{
				dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$path", "attr": "classified", "value": fmt.Sprint(i)}),
			},
		})
		if err != nil {
			return nil, err
		}
	}
	nFiles := pick(s, 60, 2000)
	t0 := time.Now()
	for i := 0; i < nFiles; i++ {
		path := fmt.Sprintf("/grid/f%06d.%03d", i, i%nTrig)
		if err := g.Ingest("user", path, 1, nil, "sdsc-disk"); err != nil {
			return nil, err
		}
	}
	m.Flush()
	wall := time.Since(t0)
	fired := 0
	failed := 0
	for _, f := range m.Firings() {
		fired++
		if f.Err != nil {
			failed++
		}
	}
	r.Row("triggers defined", fmt.Sprint(nTrig))
	r.Row("events published", fmt.Sprint(nFiles))
	r.Row("firings", fmt.Sprint(fired))
	r.Row("failed actions", fmt.Sprint(failed))
	r.Row("events/sec", fmt.Sprintf("%.0f", float64(nFiles)/wall.Seconds()))
	if fired != nFiles || failed != 0 {
		return nil, fmt.Errorf("E8: fired %d/%d, failed %d", fired, nFiles, failed)
	}

	// Ordering divergence: two users' triggers contest one attribute.
	contested := pick(s, 10, 100)
	outcome := func(order dgms.DeliveryOrder, seed int64) (string, error) {
		g2, e2, err := newEngine()
		if err != nil {
			return "", err
		}
		g2.Bus().SetDeliveryOrder(order, seed)
		m2 := trigger.NewManager(g2, e2, 1, 8192)
		defer m2.Close()
		for _, who := range []string{"alice", "bob"} {
			if err := g2.Namespace().SetPermission("/grid", who, namespace.PermWrite); err != nil {
				return "", err
			}
			err := m2.Define(trigger.Trigger{
				Name: "classify-" + who, Owner: who,
				Events: []dgms.EventType{dgms.EventIngest}, Phase: dgms.After,
				Operations: []dgl.Operation{
					dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$path", "attr": "class", "value": who}),
				},
			})
			if err != nil {
				return "", err
			}
		}
		winners := map[string]int{}
		for i := 0; i < contested; i++ {
			path := fmt.Sprintf("/grid/c%04d", i)
			if err := g2.Ingest("user", path, 1, nil, "sdsc-disk"); err != nil {
				return "", err
			}
			m2.Flush()
			v, _, _ := g2.Namespace().GetMeta(path, "class")
			winners[v]++
		}
		return fmt.Sprintf("alice=%d bob=%d", winners["alice"], winners["bob"]), nil
	}
	fwd, err := outcome(dgms.OrderSubscription, 0)
	if err != nil {
		return nil, err
	}
	rev, err := outcome(dgms.OrderReverse, 0)
	if err != nil {
		return nil, err
	}
	shuf, err := outcome(dgms.OrderShuffled, 99)
	if err != nil {
		return nil, err
	}
	r.Row("contested outcome (subscription order)", fwd)
	r.Row("contested outcome (reverse order)", rev)
	r.Row("contested outcome (shuffled order)", shuf)
	if fwd == rev {
		return nil, fmt.Errorf("E8: ordering had no observable effect")
	}
	r.Note("identical events, different trigger orderings, different final metadata — the paper's open issue, observed")
	return r, nil
}

// E9Planner compares placement strategies and measures the virtual-data
// shortcut.
func E9Planner(s Scale) (*Report, error) {
	nTasks := pick(s, 12, 120)
	mkRig := func() (*dgms.Grid, *scheduler.Broker, error) {
		g := dgms.New(dgms.Options{})
		desc := &infra.Description{
			Domains: []infra.Domain{
				{Name: "sdsc",
					Storage: []infra.Storage{{Name: "sdsc-disk", Class: "disk"}},
					Compute: []infra.Compute{{Name: "sdsc-cluster", Nodes: 4, Power: 1.0}}},
				{Name: "ncsa",
					Storage: []infra.Storage{{Name: "ncsa-disk", Class: "disk"}},
					Compute: []infra.Compute{{Name: "ncsa-cluster", Nodes: 4, Power: 2.0}}},
			},
			Links: []infra.Link{{From: "sdsc", To: "ncsa", BandwidthMBps: 5, LatencyMs: 50, Symmetric: true}},
		}
		nodes, err := desc.Apply(g)
		if err != nil {
			return nil, nil, err
		}
		if err := g.CreateCollectionAll(g.Admin(), "/grid/in"); err != nil {
			return nil, nil, err
		}
		rnd := sim.NewRand(9)
		for i := 0; i < nTasks; i++ {
			if err := g.Ingest(g.Admin(), fmt.Sprintf("/grid/in/d%04d", i), rnd.FileSize(256<<20, 0.5), nil, "sdsc-disk"); err != nil {
				return nil, nil, err
			}
		}
		g.Network().Reset()
		return g, scheduler.NewBroker(g, nodes, 31), nil
	}
	tasks := func() []*scheduler.Task {
		out := make([]*scheduler.Task, nTasks)
		for i := range out {
			t := &scheduler.Task{
				Name:           fmt.Sprintf("t%04d", i),
				Transformation: "analyze",
				Inputs:         []string{fmt.Sprintf("/grid/in/d%04d", i)},
				Output:         fmt.Sprintf("/grid/in/out%04d", i),
				OutputSize:     1 << 20,
				CPUSeconds:     60,
			}
			if i%3 == 0 { // a third are CPU-bound Monte Carlo style
				t.CPUSeconds = 7200
			}
			out[i] = t
		}
		return out
	}
	r := &Report{
		ID: "E9", Title: fmt.Sprintf("§2.3 — placement strategies over %d tasks", nTasks),
		Header: []string{"strategy", "data-moved", "makespan", "virtual-data-hits"},
	}
	var costMoved, randomMoved int64
	var costSpan, staticSpan time.Duration
	for _, strat := range []scheduler.Strategy{scheduler.CostBased, scheduler.RandomPlacement, scheduler.StaticPlacement} {
		g, b, err := mkRig()
		if err != nil {
			return nil, err
		}
		start := g.Clock().Now()
		for _, task := range tasks() {
			if _, err := b.Execute(task, strat, ""); err != nil {
				return nil, err
			}
		}
		moved := g.Network().TotalTraffic()
		span := b.Makespan(start)
		_, skipped := b.Stats()
		r.Row(strat.String(), sim.FormatBytes(moved), span.Round(time.Second).String(), fmt.Sprint(skipped))
		switch strat {
		case scheduler.CostBased:
			costMoved, costSpan = moved, span
		case scheduler.RandomPlacement:
			randomMoved = moved
		case scheduler.StaticPlacement:
			staticSpan = span
		}
	}
	// Shape assertions: the cost-based broker finishes no later than the
	// do-nothing static placement (which hoards everything on node 0) and
	// moves no more data than random placement.
	if costSpan > staticSpan {
		return nil, fmt.Errorf("E9: cost-based makespan %v exceeds static %v", costSpan, staticSpan)
	}
	if costMoved > randomMoved {
		return nil, fmt.Errorf("E9: cost-based moved more data (%d) than random (%d)", costMoved, randomMoved)
	}
	// Virtual data: re-submit the same derivations.
	g, b, err := mkRig()
	if err != nil {
		return nil, err
	}
	for _, task := range tasks() {
		if _, err := b.Execute(task, scheduler.CostBased, ""); err != nil {
			return nil, err
		}
	}
	for _, task := range tasks() { // identical derivations again
		if _, err := b.Execute(task, scheduler.CostBased, ""); err != nil {
			return nil, err
		}
	}
	executed, skipped := b.Stats()
	r.Row("cost-based + virtual data (2nd pass)", sim.FormatBytes(g.Network().TotalTraffic()),
		"-", fmt.Sprintf("%d/%d", skipped, executed+skipped))
	if skipped != int64(nTasks) {
		return nil, fmt.Errorf("E9: virtual data skipped %d, want %d", skipped, nTasks)
	}
	r.Note("second pass recomputed nothing: %d derivations served from the catalog", skipped)
	return r, nil
}

// E10LongRun measures long-run process control: pause responsiveness,
// restart redundancy (matrix vs the client-side GridAnt model), and
// provenance query latency as the log grows.
func E10LongRun(s Scale) (*Report, error) {
	r := &Report{
		ID: "E10", Title: "§3.1/§5 — long-run control: pause, restart, provenance",
		Header: []string{"measure", "condition", "value"},
	}
	// (a) Pause responsiveness: steps completed after the pause request.
	_, e, err := newEngine()
	if err != nil {
		return nil, err
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.RegisterOp("gate", func(*matrix.OpContext) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	})
	nSteps := pick(s, 30, 200)
	b := dgl.NewFlow("long")
	b.Step("gate", dgl.Op("gate", nil))
	for i := 0; i < nSteps; i++ {
		b.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpNoop, nil))
	}
	ex, err := e.Start("user", b.Flow())
	if err != nil {
		return nil, err
	}
	<-started
	ex.Pause()
	close(release)
	time.Sleep(10 * time.Millisecond)
	pausedSt := ex.Status(true)
	after := pausedSt.CountByState()[string(matrix.StateSucceeded)]
	r.Row("steps run after pause", fmt.Sprintf("%d pending", nSteps), fmt.Sprint(after))
	ex.Resume()
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	if after > 1 {
		return nil, fmt.Errorf("E10: %d steps ran after pause", after)
	}

	// (b) Restart redundancy at three failure points.
	for _, frac := range []int{25, 50, 75} {
		total := pick(s, 20, 100)
		failAt := total * frac / 100
		// Matrix.
		gm, em, err := newEngine()
		if err != nil {
			return nil, err
		}
		matrixRuns := 0
		var mmu sync.Mutex
		failedOnce := false
		em.RegisterOp("counted", func(c *matrix.OpContext) error {
			mmu.Lock()
			defer mmu.Unlock()
			matrixRuns++
			if c.ParamOr("i", "") == fmt.Sprint(failAt) && !failedOnce {
				failedOnce = true
				return errors.New("outage")
			}
			return nil
		})
		fb := dgl.NewFlow("job")
		for i := 0; i < total; i++ {
			fb.Step(fmt.Sprintf("s%d", i), dgl.Op("counted", map[string]string{"i": fmt.Sprint(i)}))
		}
		exm, err := em.Run("user", fb.Flow())
		if err != nil {
			return nil, err
		}
		_ = exm.Wait()
		exm2, err := em.Restart(exm.ID)
		if err != nil {
			return nil, err
		}
		if err := exm2.Wait(); err != nil {
			return nil, err
		}
		matrixRedundant := matrixRuns - total - 1 // one extra attempt at the failing step
		_ = gm
		// Client engine (GridAnt model): crash at the same point, re-run.
		gc, err := newGrid()
		if err != nil {
			return nil, err
		}
		ce := baseline.NewClientEngine(gc, "user")
		cb := dgl.NewFlow("job")
		for i := 0; i < total; i++ {
			cb.Step(fmt.Sprintf("s%d", i), dgl.Op(dgl.OpMakeCollection, map[string]string{
				"path": fmt.Sprintf("/grid/w%d", i),
			}))
		}
		cflow := cb.Flow()
		ce.CrashAfter = failAt
		_ = ce.Run(cflow)
		ce.CrashAfter = 0
		if err := ce.Run(cflow); err != nil {
			return nil, err
		}
		clientRedundant := ce.StepsExecuted - total - 1
		r.Row("redundant step executions", fmt.Sprintf("failure at %d%%", frac),
			fmt.Sprintf("matrix=%d client-side=%d", matrixRedundant, clientRedundant))
		if matrixRedundant != 0 || clientRedundant <= 0 {
			return nil, fmt.Errorf("E10: redundancy matrix=%d client=%d at %d%%", matrixRedundant, clientRedundant, frac)
		}
	}

	// (c) Cross-process restart: the first "process" dies mid-flow with
	// its checkpoints only in a provenance file; a second process resumes
	// from the file alone.
	if err := func() error {
		dir, err := os.MkdirTemp("", "dgf-e10-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		provPath := filepath.Join(dir, "prov.log")
		total := pick(s, 20, 100)
		failAt := total / 2
		mk := func(failing bool) (*matrix.Engine, *int, func(), error) {
			store, err := provenance.Open(provPath)
			if err != nil {
				return nil, nil, nil, err
			}
			g := dgms.New(dgms.Options{Provenance: store})
			if err := g.RegisterResource(vfs.New("d", "x", vfs.Disk, 0)); err != nil {
				store.Close()
				return nil, nil, nil, err
			}
			eng := matrix.NewEngine(g)
			runs := 0
			var mu sync.Mutex
			eng.RegisterOp("w", func(c *matrix.OpContext) error {
				mu.Lock()
				defer mu.Unlock()
				runs++
				if failing && c.ParamOr("i", "") == fmt.Sprint(failAt) {
					return errors.New("process death")
				}
				return nil
			})
			return eng, &runs, func() { store.Close() }, nil
		}
		doc := func() dgl.Flow {
			fb := dgl.NewFlow("durable")
			for i := 0; i < total; i++ {
				fb.Step(fmt.Sprintf("s%d", i), dgl.Op("w", map[string]string{"i": fmt.Sprint(i)}))
			}
			return fb.Flow()
		}
		e1, _, close1, err := mk(true)
		if err != nil {
			return err
		}
		defer close1()
		ex, err := e1.Run("user", doc())
		if err != nil {
			return err
		}
		_ = ex.Wait()
		priorID := ex.ID
		// The first process dies without a flush or a close: the second
		// opens the log as the first left it.
		e2, runs2, close2, err := mk(false)
		if err != nil {
			return err
		}
		defer close2()
		ex2, err := e2.RestartFromProvenance(priorID, dgl.NewAsyncRequest("user", "", doc()))
		if err != nil {
			return err
		}
		if err := ex2.Wait(); err != nil {
			return err
		}
		remaining := total - failAt
		r.Row("cross-process restart", fmt.Sprintf("crash at %d/%d, new process", failAt, total),
			fmt.Sprintf("re-ran %d (remaining work %d)", *runs2, remaining))
		if *runs2 != remaining {
			return fmt.Errorf("cross-process restart re-ran %d, want %d", *runs2, remaining)
		}
		return nil
	}(); err != nil {
		return nil, fmt.Errorf("E10 cross-process: %w", err)
	}

	// (d) Provenance query latency vs log size.
	for _, size := range []int{1000, pick(s, 10000, 100000)} {
		store := provenance.NewMemory()
		for i := 0; i < size; i++ {
			if _, err := store.Append(provenance.Record{
				Time: sim.Epoch, Action: "op", FlowID: fmt.Sprintf("f%d", i%97),
			}); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		const reps = 20
		for i := 0; i < reps; i++ {
			_ = store.Query(provenance.Filter{FlowID: "f13"})
		}
		r.Row("provenance query latency", fmt.Sprintf("%d records", size),
			(time.Since(t0) / reps).Round(time.Microsecond).String())
	}
	return r, nil
}
