// Command bench is the repository's contract benchmark (BENCHMARK.json,
// bench/README.md): it stands the real system up in-process on
// loopback, drives it closed-loop from a seeded generator, checks the
// outputs, and prints every metric by name with its unit.
//
//	bench -workload fleet_submit -seed 1 -seconds 20            # measure
//	bench -workload fleet_submit -seed 1 -seconds 20 -trace 1   # per-layer
//	bench -aa 5 -seconds 20                                      # noise contract
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procStart approximates process start: package initialisation runs
// before main and before any set-up work.
var procStart = time.Now()

// setupReps is how many times a measured run sets the workload up; the
// median is reported, the last instance is measured.
const setupReps = 3

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	tmp      string
	spans    string
}

func main() {
	var o options
	var aa int
	flag.StringVar(&o.workload, "workload", "", "workload to run: one of the names in BENCHMARK.json")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	flag.IntVar(&aa, "aa", 0, "A/A mode: two interleaved sets of N runs per workload, compared against the bounds")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for stores, catalogs and the span file")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default <tmp>/spans-<workload>-<seed>.json)")
	flag.Parse()

	if aa > 0 {
		os.Exit(runAA(aa, o))
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	rep, err := runOne(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printReport(rep, o.trace == 1)
}

// runOne runs one workload in this process and returns its report. An
// error means the run is not a measurement: set-up failed, an op
// failed, or the correctness check did.
func runOne(w workload, o options) (*report, error) {
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d window=%gs callers=%d (closed loop) GOMAXPROCS=%d NumCPU=%d\n",
		w.name, o.seed, o.seconds, w.callers, runtime.GOMAXPROCS(0), runtime.NumCPU())
	in := generate(o.seed, w.gen)
	if o.trace == 1 {
		return runTraced(w, in, o)
	}
	return runMeasured(w, in, o)
}

func runMeasured(w workload, in *input, o options) (*report, error) {
	var inst instance
	var r *runner
	var dir string
	setups := make([]float64, 0, setupReps)
	from := procStart
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
			os.RemoveAll(dir)
			from = time.Now()
		}
		var secs float64
		var err error
		if inst, r, dir, secs, err = setUp(w, in, o.tmp, from); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer os.RemoveAll(dir)
	defer inst.close()

	heap := liveHeapMB()
	res := r.window(time.Duration(o.seconds * float64(time.Second)))
	failed := countFailed(res.samples)
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d ops failed, first: %w", failed, len(res.samples), r.err)
	}
	if err := inst.check(); err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	if res.okOps < minP90Ops {
		return nil, fmt.Errorf("only %d ops completed in the window: p90 needs %d", res.okOps, minP90Ops)
	}
	tm := res.timings()
	fmt.Fprintf(os.Stderr, "bench: %d ops attempted = latency samples, %d completed in the window, set-ups %.3v s\n", len(res.samples), res.okOps, setups)
	for _, sl := range res.slices {
		fmt.Fprintf(os.Stderr, "bench: slice %.2fs %d ops %.0f/s cpu %.3f ms/op\n", sl.seconds, sl.ops, float64(sl.ops)/sl.seconds, sl.cpuMs/float64(max(sl.ops, 1)))
	}
	fmt.Fprintf(os.Stderr, "bench: window (not gated): %.1f ops/s, p50 %.3f ms, p90 %.3f ms, cpu %.4f ms/op\n", tm.opsPerS, tm.p50, tm.p90, tm.cpuPerOp)
	return &report{
		Correct: true, Attempted: len(res.samples), Failed: failed,
		Metrics: map[string]value{
			"setup_s":       {median(setups), "s"},
			"allocs_per_op": {float64(res.mallocs) / float64(res.okOps), "1"},
			"live_heap_mb":  {heap, "MB"},
		},
	}, nil
}

// printReport prints every metric by name with its unit, in declared
// order, then the one-line JSON object the driver reads.
func printReport(rep *report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := rep.Metrics[d.Name]; ok {
			fmt.Printf("%-32s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
