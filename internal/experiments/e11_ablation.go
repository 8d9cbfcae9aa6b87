package experiments

import (
	"fmt"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/ilm"
	"datagridflow/internal/matrix"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
	"datagridflow/internal/workload"
)

// E11HSMvsILM ablates the paper's central ILM claim: "Unlike traditional
// Hierarchical Storage Management (HSM) solutions, which normally use
// data freshness as the most important attribute in determining data
// placement, ILM solutions use data value and business policies."
//
// Setup: a collection whose files are all old (freshness ≈ 0) but whose
// access pattern is Zipfian — a small hot set absorbs most reads. The
// HSM policy (freshness valuer) sends everything to tape; the ILM policy
// (access-driven value model) keeps the hot set on fast storage. We then
// replay a month of accesses under each placement and compare what users
// actually waited for, tape recall counts, and the retention bill.
func E11HSMvsILM(s Scale) (*Report, error) {
	nFiles := pick(s, 20, 200)
	nAccesses := pick(s, 120, 2000)

	type outcome struct {
		toTape      int
		toFast      int
		serviceTime time.Duration
		tapeReads   int64
		monthlyCost float64
	}

	run := func(useILM bool) (outcome, error) {
		g := dgms.New(dgms.Options{})
		fast := vfs.New("gpfs", "site", vfs.ParallelFS, 0)
		tape := vfs.New("tape", "site", vfs.Archive, 0)
		for _, r := range []*vfs.Resource{fast, tape} {
			if err := g.RegisterResource(r); err != nil {
				return outcome{}, err
			}
		}
		e := matrix.NewEngine(g)
		// Ingest the collection onto fast storage, then age it 90 days:
		// every file is stale by freshness standards.
		specs := workload.LibraryDocs(sim.NewRand(11), nFiles)
		if err := workload.Ingest(g, g.Admin(), "gpfs", specs); err != nil {
			return outcome{}, err
		}
		g.Clock().Sleep(90 * 24 * time.Hour)
		paths := make([]string, len(specs))
		for i, sp := range specs {
			paths[i] = sp.Path
		}
		// A warm-up fortnight of accesses establishes the hot set (only
		// the ILM value model can see it).
		model := ilm.NewValueModel()
		sub := ilm.TrackAccesses(g, model)
		defer g.Bus().Unsubscribe(sub)
		warmup := workload.AccessTrace(sim.NewRand(12), paths, nAccesses/2, 10*time.Minute, 1.4)
		if _, err := workload.Replay(g, g.Admin(), warmup); err != nil {
			return outcome{}, err
		}
		// The nightly lifecycle pass under the chosen policy.
		var valuer ilm.Valuer = ilm.FreshnessValuer{}
		if useILM {
			valuer = ilm.ModelValuer{Model: model}
		}
		pol := ilm.Policy{
			Name: "tiering", Owner: g.Admin(), Scope: "/grid/library",
			Tiers: []ilm.Tier{
				{MinValue: 25, Resource: "gpfs"},
				{MinValue: 0, Resource: "tape"},
			},
		}
		decisions, _, err := pol.Plan(g, valuer, g.Clock().Now())
		if err != nil {
			return outcome{}, err
		}
		ex, err := e.Run(g.Admin(), pol.Compile(decisions))
		if err != nil {
			return outcome{}, err
		}
		if err := ex.Wait(); err != nil {
			return outcome{}, err
		}
		var out outcome
		out.toTape = tape.Count()
		out.toFast = fast.Count()
		// The next month of accesses, same Zipf law: what do users wait?
		tapeReadsBefore, _ := tape.Stats()
		month := workload.AccessTrace(sim.NewRand(13), paths, nAccesses, 20*time.Minute, 1.4)
		service, err := workload.Replay(g, g.Admin(), month)
		if err != nil {
			return outcome{}, err
		}
		tapeReadsAfter, _ := tape.Stats()
		out.serviceTime = service
		out.tapeReads = tapeReadsAfter - tapeReadsBefore
		out.monthlyCost = fast.RetentionCost(30*24*time.Hour) + tape.RetentionCost(30*24*time.Hour)
		return out, nil
	}

	hsm, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("E11 hsm: %w", err)
	}
	ilmOut, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("E11 ilm: %w", err)
	}
	r := &Report{
		ID:     "E11",
		Title:  fmt.Sprintf("§2.1 ablation — HSM (freshness) vs ILM (domain value), %d old files, Zipf reads", nFiles),
		Header: []string{"policy", "on-fast", "on-tape", "tape-recalls", "user-wait (sim)", "retention $/month"},
	}
	r.Row("HSM freshness-only", fmt.Sprint(hsm.toFast), fmt.Sprint(hsm.toTape),
		fmt.Sprint(hsm.tapeReads), hsm.serviceTime.Round(time.Second).String(),
		fmt.Sprintf("%.2f", hsm.monthlyCost))
	r.Row("ILM domain-value", fmt.Sprint(ilmOut.toFast), fmt.Sprint(ilmOut.toTape),
		fmt.Sprint(ilmOut.tapeReads), ilmOut.serviceTime.Round(time.Second).String(),
		fmt.Sprintf("%.2f", ilmOut.monthlyCost))
	// Shape assertions: HSM archives everything (all files are stale);
	// ILM keeps a hot set fast; user-visible wait under ILM is far lower
	// because the hot set never mounts tape.
	if hsm.toTape != nFiles {
		return nil, fmt.Errorf("E11: HSM left %d files off tape", nFiles-hsm.toTape)
	}
	if ilmOut.toFast == 0 || ilmOut.toFast >= nFiles {
		return nil, fmt.Errorf("E11: ILM hot set = %d of %d", ilmOut.toFast, nFiles)
	}
	if ilmOut.serviceTime >= hsm.serviceTime {
		return nil, fmt.Errorf("E11: ILM wait %v not below HSM %v", ilmOut.serviceTime, hsm.serviceTime)
	}
	if ilmOut.tapeReads >= hsm.tapeReads {
		return nil, fmt.Errorf("E11: ILM recalls %d not below HSM %d", ilmOut.tapeReads, hsm.tapeReads)
	}
	speedup := float64(hsm.serviceTime) / float64(ilmOut.serviceTime)
	r.Note("value-aware placement cut user-visible wait %.1f× (hot set stayed off tape) at a %.0f%% higher retention bill",
		speedup, (ilmOut.monthlyCost/hsm.monthlyCost-1)*100)
	return r, nil
}
