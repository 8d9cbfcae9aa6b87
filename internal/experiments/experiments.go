// Package experiments implements the reproduction's evaluation harness.
//
// The paper is an introduction/system paper with no quantitative tables;
// its four figures are DGL schema diagrams and its claims are functional
// (scalability, long-run control, scenario support). Each experiment
// here regenerates one figure as an executable artifact (E1–E4) or
// quantifies one claim/scenario with the baselines the paper names
// (E5–E10). Every experiment is deterministic for a given Scale and
// seed; cmd/dgfbench prints the reports and EXPERIMENTS.md records them.
package experiments

import (
	"fmt"
	"strings"

	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
)

// Scale selects experiment sizes: Small keeps everything under a second
// (tests, quick benches); Full is what EXPERIMENTS.md records.
type Scale int

// Scales.
const (
	Small Scale = iota
	Full
)

// Report is one experiment's output.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Row appends one formatted row.
func (r *Report) Row(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a note line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one entry of the harness: its id and the function
// that runs it. Run returns an error when the experiment cannot run or
// when an invariant it asserts is broken.
type Experiment struct {
	ID  string
	Run func(Scale) (*Report, error)
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1FlowSchema},
		{"E2", E2RequestSchema},
		{"E3", E3ControlPatterns},
		{"E4", E4AsyncStatus},
		{"E5", E5Scalability},
		{"E6", E6ImplodingStar},
		{"E7", E7ExplodingStar},
		{"E8", E8Triggers},
		{"E9", E9Planner},
		{"E10", E10LongRun},
		{"E11", E11HSMvsILM},
		{"E12", E12FaultSweep},
		{"E13", E13Federation},
		{"E14", E14Store},
		{"E15", E15Shard},
		{"E16", E16Replica},
		{"E17", E17Tenant},
		{"E18", E18Vdata},
	}
}

// newGrid builds a standard experiment grid: three domains with mixed
// storage classes and full write access for "user".
func newGrid() (*dgms.Grid, error) {
	g := dgms.New(dgms.Options{})
	for _, r := range []*vfs.Resource{
		vfs.New("sdsc-gpfs", "sdsc", vfs.ParallelFS, 0),
		vfs.New("sdsc-disk", "sdsc", vfs.Disk, 0),
		vfs.New("cern-disk", "cern", vfs.Disk, 0),
		vfs.New("tape", "archive", vfs.Archive, 0),
	} {
		if err := g.RegisterResource(r); err != nil {
			return nil, err
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		return nil, err
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		return nil, err
	}
	return g, nil
}

// newRealGrid builds a one-resource grid on the real clock with its own
// metrics registry, writable by every user: the grid of the networked
// experiments (E13–E18), where a sleep step must consume wall time and
// counters must not cross phases.
func newRealGrid(name string) (*dgms.Grid, *obs.Registry, error) {
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg, Clock: sim.RealClock{}})
	if err := g.RegisterResource(vfs.New(name+"-disk", name, vfs.Disk, 0)); err != nil {
		return nil, nil, err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		return nil, nil, err
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		return nil, nil, err
	}
	return g, reg, nil
}

func newEngine() (*dgms.Grid, *matrix.Engine, error) {
	g, err := newGrid()
	if err != nil {
		return nil, nil, err
	}
	return g, matrix.NewEngine(g), nil
}

func pick(s Scale, small, full int) int {
	if s == Full {
		return full
	}
	return small
}
