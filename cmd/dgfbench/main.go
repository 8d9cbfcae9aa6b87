// Command dgfbench regenerates the reproduction's experiments (E1–E18):
// the paper's four figures as executable artifacts plus the quantified
// claims and scenarios. Output is the set of tables recorded in
// EXPERIMENTS.md. An experiment whose invariants do not hold prints
// "<id> FAILED: <reason>" and the command exits 1.
//
// Usage:
//
//	dgfbench              # run everything at full scale
//	dgfbench -exp E6,E7   # run a subset
//	dgfbench -small       # quick pass (CI-sized)
//	dgfbench -metrics=false   # suppress the engine metrics snapshot
//
// After the experiment tables, dgfbench emits the process-wide engine
// metrics snapshot (docs/METRICS.md) as JSON: engine-level counters
// (flows run, steps executed, bytes tiered, placements evaluated)
// alongside the wall-clock numbers. Timings are judged by the contract
// benchmark (bench/README.md), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"datagridflow/internal/experiments"
	"datagridflow/internal/obs"
)

// selectExperiments resolves -exp: "all", or a comma-separated list of
// ids in any case. An id that names no experiment is an error listing
// the valid ones, so a typo or a renamed experiment cannot pass as an
// empty, successful run.
func selectExperiments(list string) ([]experiments.Experiment, error) {
	all := experiments.All()
	if strings.EqualFold(list, "all") {
		return all, nil
	}
	known := map[string]bool{}
	var valid []string
	for _, exp := range all {
		known[exp.ID] = true
		valid = append(valid, exp.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, or all)", id, strings.Join(valid, " "))
		}
		want[id] = true
	}
	var picked []experiments.Experiment
	for _, exp := range all {
		if want[exp.ID] {
			picked = append(picked, exp)
		}
	}
	return picked, nil
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E18) or 'all'")
	small := flag.Bool("small", false, "run at small (CI) scale instead of full scale")
	metrics := flag.Bool("metrics", true, "emit the engine metrics snapshot (JSON) after the experiment tables")
	flag.Parse()

	picked, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgfbench: -exp: %v\n", err)
		os.Exit(2)
	}
	scale := experiments.Full
	if *small {
		scale = experiments.Small
	}
	failed := 0
	for _, exp := range picked {
		t0 := time.Now()
		report, err := exp.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", exp.ID, err)
			failed++
			continue
		}
		fmt.Println(report.String())
		fmt.Printf("(%s completed in %v)\n\n", exp.ID, time.Since(t0).Round(time.Millisecond))
	}
	if *metrics {
		// Experiment grids emit into obs.Default(), so this snapshot
		// aggregates engine counters across every experiment just run.
		data, err := json.Marshal(obs.Default().Snapshot())
		if err == nil {
			fmt.Printf("== engine metrics snapshot (docs/METRICS.md) ==\n%s\n", data)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
