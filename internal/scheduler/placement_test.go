package scheduler

import (
	"sync"
	"testing"
)

func cand(name string, load PeerLoad) Candidate {
	return Candidate{Name: name, Load: load}
}

func TestPeerLoadScoreOrdering(t *testing.T) {
	idle := PeerLoad{Capacity: 4}
	busy := PeerLoad{Inflight: 3, Capacity: 4}
	queued := PeerLoad{Inflight: 4, Queued: 2, Capacity: 4}
	if !(idle.Score() < busy.Score() && busy.Score() < queued.Score()) {
		t.Fatalf("score ordering: idle=%v busy=%v queued=%v",
			idle.Score(), busy.Score(), queued.Score())
	}
	// Queue wait dominates pool pressure: one queued request outweighs
	// any partially-used pool.
	nearFull := PeerLoad{Inflight: 3, Capacity: 4}
	oneQueued := PeerLoad{Queued: 1, Capacity: 4}
	if oneQueued.Score() <= nearFull.Score() {
		t.Errorf("queue wait should dominate: queued=%v nearFull=%v",
			oneQueued.Score(), nearFull.Score())
	}
	// Zero capacity must not divide by zero.
	_ = PeerLoad{Inflight: 2}.Score()
}

func TestLeastLoadedPick(t *testing.T) {
	p := LeastLoaded{}
	if p.Name() != "least-loaded" {
		t.Errorf("name = %q", p.Name())
	}
	if _, ok := p.Pick("self", Hint{}, nil); ok {
		t.Error("picked from empty candidate set")
	}
	peers := []Candidate{
		cand("b", PeerLoad{Inflight: 2, Capacity: 4}),
		cand("a", PeerLoad{Queued: 5, Capacity: 4}),
		cand("c", PeerLoad{Capacity: 4}),
	}
	if got, ok := p.Pick("self", Hint{}, peers); !ok || got != "c" {
		t.Errorf("pick = %q, %v", got, ok)
	}
	// Equal loads tie-break by name.
	tied := []Candidate{
		cand("z", PeerLoad{Capacity: 4}),
		cand("m", PeerLoad{Capacity: 4}),
		cand("a", PeerLoad{Capacity: 4}),
	}
	if got, _ := p.Pick("self", Hint{}, tied); got != "a" {
		t.Errorf("tie-break = %q, want a", got)
	}
}

func TestRoundRobinPick(t *testing.T) {
	p := &RoundRobin{}
	if p.Name() != "round-robin" {
		t.Errorf("name = %q", p.Name())
	}
	if _, ok := p.Pick("self", Hint{}, nil); ok {
		t.Error("picked from empty candidate set")
	}
	peers := []Candidate{cand("b", PeerLoad{}), cand("a", PeerLoad{}), cand("c", PeerLoad{})}
	var got []string
	for i := 0; i < 6; i++ {
		name, ok := p.Pick("self", Hint{}, peers)
		if !ok {
			t.Fatal("round-robin refused candidates")
		}
		got = append(got, name)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinConcurrent(t *testing.T) {
	p := &RoundRobin{}
	peers := []Candidate{cand("a", PeerLoad{}), cand("b", PeerLoad{})}
	var wg sync.WaitGroup
	counts := make([]map[string]int, 8)
	for w := 0; w < 8; w++ {
		counts[w] = map[string]int{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name, ok := p.Pick("self", Hint{}, peers)
				if !ok {
					return
				}
				counts[w][name]++
			}
		}(w)
	}
	wg.Wait()
	total := map[string]int{}
	for _, c := range counts {
		for k, v := range c {
			total[k] += v
		}
	}
	// The counter is shared, so the spread stays perfectly even.
	if total["a"] != 200 || total["b"] != 200 {
		t.Errorf("spread = %v", total)
	}
}

func TestLocalityPick(t *testing.T) {
	p := Locality{}
	if p.Name() != "locality" {
		t.Errorf("name = %q", p.Name())
	}
	peers := []Candidate{
		cand("idle", PeerLoad{Capacity: 4}),
		cand("hosting", PeerLoad{Inflight: 3, Capacity: 4, Resources: []string{"disk1"}}),
		cand("hostingBusy", PeerLoad{Queued: 4, Capacity: 4, Resources: []string{"disk1"}}),
	}
	// Hint matches: work moves to the (least-loaded) data holder even
	// though another peer is idler.
	if got, ok := p.Pick("self", Hint{Resource: "disk1"}, peers); !ok || got != "hosting" {
		t.Errorf("hinted pick = %q, %v", got, ok)
	}
	// No resource hint — a holder hint is vdata-locality's: plain
	// least-loaded.
	if got, _ := p.Pick("self", Hint{Holder: "hosting"}, peers); got != "idle" {
		t.Errorf("unhinted pick = %q", got)
	}
	// Hint nobody hosts: fall back to least-loaded over everyone.
	if got, _ := p.Pick("self", Hint{Resource: "tape9"}, peers); got != "idle" {
		t.Errorf("unhosted hint pick = %q", got)
	}
	if _, ok := p.Pick("self", Hint{Resource: "disk1"}, nil); ok {
		t.Error("picked from empty candidate set")
	}
}

func TestVdataLocalityPick(t *testing.T) {
	p := VdataLocality{}
	if p.Name() != VdataLocalityName {
		t.Errorf("name = %q", p.Name())
	}
	peers := []Candidate{
		cand("idle", PeerLoad{Capacity: 4}),
		cand("holder", PeerLoad{Queued: 8, Capacity: 4}),
	}
	// The derivation holder wins outright, however loaded: running there
	// skips the work entirely, which beats any queue.
	if got, ok := p.Pick("self", Hint{Holder: "holder"}, peers); !ok || got != "holder" {
		t.Errorf("hinted pick = %q, %v", got, ok)
	}
	// No holder hint — a resource hint is locality's — or a holder that
	// is no longer a live candidate: plain least-loaded.
	if got, _ := p.Pick("self", Hint{Resource: "holder"}, peers); got != "idle" {
		t.Errorf("unhinted pick = %q", got)
	}
	if got, _ := p.Pick("self", Hint{Holder: "departed"}, peers); got != "idle" {
		t.Errorf("dead-holder pick = %q", got)
	}
	if _, ok := p.Pick("self", Hint{Holder: "holder"}, nil); ok {
		t.Error("picked from empty candidate set")
	}
}

func TestNewPolicy(t *testing.T) {
	for name, want := range map[string]string{
		"":               "least-loaded",
		"least-loaded":   "least-loaded",
		"round-robin":    "round-robin",
		"locality":       "locality",
		"vdata-locality": "vdata-locality",
	} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}
