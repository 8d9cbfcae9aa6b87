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
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/node"
	"datagridflow/internal/obs"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
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

// fleet is a lookup server and the peers registered with it, each
// booted by node.Start on loopback with a registry of its own: the
// network of the networked experiments (E13, E15, E16, E18).
type fleet struct {
	lookup *wire.LookupServer
	reg    *obs.Registry // the lookup server's: no fleet counts into obs.Default()
	nodes  []*node.Node
}

// newFleet starts a lookup server — the lease authority of shards
// shards when shards > 0, evicting peers silent for ttl when ttl > 0 —
// and n peers on it, named prefix+"A", prefix+"B", …, each booted from
// peer(name) with its name and lookup filled in and /grid writable by
// every user. Every peer runs on the real clock, so a sleep step
// consumes wall time. Membership is settled by forced ticks (beatAll),
// not by the timer.
func newFleet(n int, prefix string, shards int, ttl time.Duration, peer func(name string) (node.Config, error)) (*fleet, error) {
	f := &fleet{lookup: wire.NewLookupServer(), reg: obs.NewRegistry()}
	f.lookup.SetObs(f.reg)
	f.lookup.SetShards(shards)
	if ttl > 0 {
		f.lookup.SetTTL(ttl)
	}
	addr, err := f.lookup.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%c", prefix, 'A'+i)
		cfg, err := peer(name)
		var nd *node.Node
		if err == nil {
			cfg.Name, cfg.Lookup, cfg.Open = name, addr, true
			nd, err = node.Start(cfg)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
	}
	beatAll(f.nodes)
	return f, nil
}

func (cl *fleet) close() {
	for _, nd := range cl.nodes {
		nd.Close()
	}
	cl.lookup.Close()
}

// submitSleeps drives flows synchronous one-step sleep flows of stepMs
// through the first peers peers of the fleet — workers closed-loop
// workers per peer, each submitting to its peer over one multiplexed
// session, flow names and users spread uniformly over the key space —
// and returns flows/sec. Every submission must succeed.
func (cl *fleet) submitSleeps(peers, workers, flows int, stepMs float64, opts ...wire.SubmitOption) (float64, error) {
	sleep := time.Duration(stepMs * float64(time.Millisecond))
	var clients []*wire.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, nd := range cl.nodes[:peers] {
		c, err := wire.Dial(nd.Addr())
		if err != nil {
			return 0, err
		}
		clients = append(clients, c)
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1); i <= int64(flows); i = next.Add(1) {
					flow := dgl.NewFlow(fmt.Sprintf("job%d", i)).
						Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": sleep.String()})).Flow()
					res, err := c.Submit(context.Background(), dgl.NewRequest(fmt.Sprintf("u%d", i%16), "", flow), opts...)
					if err != nil || res.Err() != nil {
						failed.Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(t0)
	if n := failed.Load(); n > 0 {
		return 0, fmt.Errorf("%d of %d submissions failed", n, flows)
	}
	return float64(flows) / wall.Seconds(), nil
}

// beatAll forces two membership ticks on every peer: the first round
// spreads registrations (and releases what the ring moved away), the
// second reads the completed roster (and claims what the first freed).
func beatAll(nodes []*node.Node) {
	for range [2]int{} {
		for _, nd := range nodes {
			_ = nd.Peer().Beat()
		}
	}
}

// beatEvery is a fleet's membership interval: a third of its registry
// TTL, or once a minute without one, so that no tick lands inside a
// measured phase or undoes a topology the harness imposed (funnelTo).
func beatEvery(ttl time.Duration) time.Duration {
	if ttl > 0 {
		return ttl / 3
	}
	return time.Minute
}

// stillRegistered reports whether the registry lists p live, asked over
// p's own registry link.
func stillRegistered(p *wire.Peer) (bool, error) {
	infos, err := p.Lookup().Peers()
	for _, in := range infos {
		if in.Name == p.Name {
			return true, err
		}
	}
	return false, err
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
