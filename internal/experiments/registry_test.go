package experiments

import (
	"testing"

	"datagridflow/internal/obs"
	"datagridflow/internal/scheduler"
)

// TestClustersCountIntoTheirOwnRegistries: the lookup server of each
// cluster an experiment builds counts into a registry of its own, so two
// clusters in one process each report their own peers' registrations,
// and neither adds to obs.Default() — the snapshot dgfbench prints after
// a run.
func TestClustersCountIntoTheirOwnRegistries(t *testing.T) {
	registrations := func(reg *obs.Registry) int64 {
		return reg.Counter("lookup_requests_total", "op", "register").Value()
	}
	before := registrations(obs.Default())
	fed, err := newCluster(2, 1, &scheduler.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.close()
	shards, err := newShardCluster(3, &shardReport{shards: 8, capacity: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.close()
	repl, err := newReplCluster(2, &replReport{followers: 1, shards: 8, capacity: 1}, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer repl.close()
	for _, c := range []struct {
		name string
		reg  *obs.Registry
		want int64
	}{{"E13's", fed.reg, 2}, {"E15's", shards.reg, 3}, {"E16's", repl.reg, 2}} {
		if got := registrations(c.reg); got != c.want {
			t.Errorf("%s cluster counted %d registrations, want its own %d peers'", c.name, got, c.want)
		}
	}
	if got := registrations(obs.Default()) - before; got != 0 {
		t.Errorf("the clusters added %d registrations to obs.Default()", got)
	}
}
