package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the noise contract's evidence: two interleaved sets of n
// runs per workload, every run a fresh process with its own seed, and
// per metric both medians, both quartile pairs, the relative gap and
// the bound. Both sets run the same code, so it fails a metric whose
// medians differ by more than the bound in either direction, and
// (setup_s excepted, as in the driver's rule) one whose quartile
// distance exceeds the bound as a share of its median in either set.
// It returns the exit code.
func runAA(n int, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	exit := 0
	fmt.Printf("%-17s %-14s %12s %12s %12s | %12s %12s %12s | %7s %7s %6s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "gap", "spread", "bound")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			rep, err := childRun(self, w.name, o.seed+int64(i), o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			for name, v := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			gap := (mb - ma) / ma // positive: B reads worse
			if d.Better == "higher" {
				gap = -gap
			}
			spread := max((a3-a1)/ma, (b3-b1)/mb)
			verdict := ""
			if math.Abs(gap) > d.Bound {
				verdict, exit = "  GAP EXCEEDS", 1
			}
			if d.Name != "setup_s" && spread > d.Bound {
				verdict, exit = verdict+"  SPREAD EXCEEDS", 1
			}
			fmt.Printf("%-17s %-14s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %6.1f%% %6.1f%% %5.0f%%%s\n",
				w.name, d.Name, ma, a1, a3, mb, b1, b3, 100*gap, 100*spread, 100*d.Bound, verdict)
		}
	}
	return exit
}

// childRun measures one workload in a fresh process — one workload per
// process, so no run inherits another's heap, ports or page cache
// state — and parses the report from the last line it prints.
func childRun(self, workload string, seed int64, o options) (*report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-tmp", o.tmp)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("last line is not a report: %w", err)
	}
	return &rep, nil
}
