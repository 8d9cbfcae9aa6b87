package workload

import (
	"fmt"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/sim"
)

// Access is one read in a replayable trace.
type Access struct {
	// Path is the logical object read.
	Path string
	// Gap is the interarrival time before this access.
	Gap time.Duration
}

// AccessTrace synthesizes n reads over the given paths with Zipfian
// popularity (exponent s > 1; lower ranks are hotter) and exponential
// interarrival times around meanGap. Access popularity in archives is
// classically Zipfian — a small hot set absorbs most reads — which is
// exactly the structure domain-value ILM exploits and freshness-only
// HSM cannot see.
func AccessTrace(r *sim.Rand, paths []string, n int, meanGap time.Duration, s float64) []Access {
	if len(paths) == 0 || n <= 0 {
		return nil
	}
	out := make([]Access, n)
	for i := range out {
		rank := int(r.Zipf(uint64(len(paths)), s))
		out[i] = Access{
			Path: paths[rank],
			Gap:  time.Duration(r.Exp(float64(meanGap))),
		}
	}
	return out
}

// Replay performs the trace against the grid as user, advancing the
// grid clock by each gap, and returns the service time: the simulated
// time spent inside reads (IO + transfer), i.e. what the users actually
// waited. Read errors abort the replay.
func Replay(g *dgms.Grid, user string, trace []Access) (service time.Duration, err error) {
	clock := g.Clock()
	for i, a := range trace {
		clock.Sleep(a.Gap)
		before := clock.Now()
		if _, err := g.Get(user, "", a.Path); err != nil {
			return service, fmt.Errorf("workload: replay access %d (%s): %w", i, a.Path, err)
		}
		service += clock.Now().Sub(before)
	}
	return service, nil
}
