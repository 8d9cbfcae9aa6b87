package fault

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	in := Plan{
		Seed: 42,
		Events: []Event{
			{At: 30 * time.Second, Target: "disk1", Kind: ResourceDown, Duration: 5 * time.Minute},
			{Target: "disk2", Kind: ResourceFlaky, Prob: 0.25},
			{At: time.Hour, Target: "matrixA", Kind: PeerCrash, Duration: time.Minute},
			{Target: "matrixB", Kind: ConnDrop, Prob: 0.1},
			{Target: "tape", Kind: Latency, Delay: 2 * time.Second},
		},
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seed != in.Seed || len(out.Events) != len(in.Events) {
		t.Fatalf("round trip = %+v", out)
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
}

func TestParsePlanHandWritten(t *testing.T) {
	// The documented hand-writable form: durations as strings.
	doc := `{"seed": 7, "events": [
		{"at": "30s", "target": "disk1", "kind": "resource-down", "duration": "5m"},
		{"target": "disk1", "kind": "resource-flaky", "prob": 0.5}
	]}`
	p, err := ParsePlan([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Events[0].At != 30*time.Second || p.Events[0].Duration != 5*time.Minute {
		t.Errorf("parsed event = %+v", p.Events[0])
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: ResourceDown}}},                              // no target
		{Events: []Event{{Target: "x", Kind: "meteor-strike"}}},              // unknown kind
		{Events: []Event{{Target: "x", Kind: ResourceFlaky, Prob: 1.5}}},     // prob out of range
		{Events: []Event{{Target: "x", Kind: ConnDrop, Prob: -0.1}}},         // prob out of range
		{Events: []Event{{Target: "x", Kind: ResourceDown, At: -time.Hour}}}, // negative offset
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, dgferr.ErrInvalid) {
			t.Errorf("plan %d: Validate = %v, want ErrInvalid", i, err)
		}
		if _, err := NewInjector(sim.NewVirtualClock(sim.Epoch), p); err == nil {
			t.Errorf("plan %d: NewInjector accepted invalid plan", i)
		}
	}
}

func TestOutageWindow(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := NewInjector(clock, Plan{Events: []Event{
		{At: time.Minute, Target: "disk1", Kind: ResourceDown, Duration: time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckOp("disk1"); err != nil {
		t.Errorf("before window: %v", err)
	}
	clock.Sleep(90 * time.Second)
	if err := in.CheckOp("disk1"); !errors.Is(err, dgferr.ErrResourceDown) {
		t.Errorf("inside window: %v, want ErrResourceDown", err)
	}
	if !in.Down("disk1") {
		t.Errorf("Down = false inside window")
	}
	if err := in.CheckOp("disk2"); err != nil {
		t.Errorf("other target faulted: %v", err)
	}
	clock.Sleep(time.Minute)
	if err := in.CheckOp("disk1"); err != nil {
		t.Errorf("after window: %v", err)
	}
	if in.Down("disk1") {
		t.Errorf("Down = true after window")
	}
}

func TestOpenEndedWindow(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := NewInjector(clock, Plan{Events: []Event{
		{Target: "disk1", Kind: ResourceDown}, // Duration 0: holds forever
	}})
	if err != nil {
		t.Fatal(err)
	}
	clock.Sleep(1000 * time.Hour)
	if err := in.CheckOp("disk1"); !errors.Is(err, dgferr.ErrResourceDown) {
		t.Errorf("open-ended window lapsed: %v", err)
	}
}

func TestFlakyDeterminism(t *testing.T) {
	// The same seeded plan replayed against the same operation sequence
	// must produce the identical fault sequence.
	run := func(seed int64) []bool {
		in, err := NewInjector(sim.NewVirtualClock(sim.Epoch), Plan{
			Seed:   seed,
			Events: []Event{{Target: "disk1", Kind: ResourceFlaky, Prob: 0.3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.CheckOp("disk1") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: fault sequences diverge under the same seed", i)
		}
		if a[i] {
			fired++
		}
	}
	// Statistically ~60/200 at prob 0.3; fail only on gross miscalibration.
	if fired < 30 || fired > 90 {
		t.Errorf("prob 0.3 fired %d/200 times", fired)
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced the identical 200-op fault sequence")
	}
}

func TestFlakyProbEdges(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	in, _ := NewInjector(clock, Plan{Events: []Event{
		{Target: "never", Kind: ResourceFlaky, Prob: 0},
		{Target: "always", Kind: ResourceFlaky, Prob: 1},
	}})
	for i := 0; i < 50; i++ {
		if err := in.CheckOp("never"); err != nil {
			t.Fatalf("prob 0 fired: %v", err)
		}
		if err := in.CheckOp("always"); err == nil {
			t.Fatalf("prob 1 did not fire")
		}
	}
}

func TestLatencyChargesClock(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := NewInjector(clock, Plan{Events: []Event{
		{Target: "disk1", Kind: Latency, Delay: 3 * time.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	if err := in.CheckOp("disk1"); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(before); got != 3*time.Second {
		t.Errorf("latency charged %v, want 3s", got)
	}
}

func TestConnFault(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := NewInjector(clock, Plan{Events: []Event{
		{At: time.Minute, Target: "matrixA", Kind: PeerCrash, Duration: time.Minute},
		{Target: "matrixB", Kind: Latency, Delay: time.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if drop, _ := in.ConnFault("matrixA"); drop {
		t.Errorf("dropped before crash window")
	}
	clock.Sleep(90 * time.Second)
	if drop, _ := in.ConnFault("matrixA"); !drop {
		t.Errorf("survived inside crash window")
	}
	if !in.Down("matrixA") {
		t.Errorf("Down = false during peer crash")
	}
	clock.Sleep(time.Minute)
	if drop, _ := in.ConnFault("matrixA"); drop {
		t.Errorf("dropped after restart")
	}
	if drop, delay := in.ConnFault("matrixB"); drop || delay != time.Second {
		t.Errorf("latency fault = %v %v", drop, delay)
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if err := in.CheckOp("disk1"); err != nil {
		t.Errorf("nil CheckOp = %v", err)
	}
	if drop, delay := in.ConnFault("x"); drop || delay != 0 {
		t.Errorf("nil ConnFault = %v %v", drop, delay)
	}
	if in.Down("x") {
		t.Errorf("nil Down = true")
	}
}

func TestInjectionMetrics(t *testing.T) {
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := NewInjector(clock, Plan{Events: []Event{
		{Target: "disk1", Kind: ResourceDown},
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	in.SetObs(reg)
	_ = in.CheckOp("disk1")
	_ = in.CheckOp("disk1")
	if got := reg.Counter("fault_injections_total", "kind", string(ResourceDown)).Value(); got != 2 {
		t.Errorf("fault_injections_total = %v, want 2", got)
	}
}
