package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver's contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesCommand holds BENCHMARK.json and the command to
// each other: every workload and metric the command prints is declared
// with the same unit, direction and bound, and nothing else is.
func TestManifestMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads declared, command has %d (contract: 2..8)", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q / command %q (or their why differs)", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, contract allows 200", w.name, len(w.why))
		}
		if w.callers > 8 {
			t.Errorf("%s: %d callers exceed 2 connections x 4 in flight", w.name, w.callers)
		}
	}

	if len(m.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, command has %d (contract: <= 16)", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		unique(d.Name)
		got := m.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, command %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", d.Name, d.Unit, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}

	if len(m.PerLayer) != len(perLayer) || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, command has %d (contract: 1..128)", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.Name)
		got := m.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, command %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q outside the contract", d.Name, d.Unit, d.Better)
		}
	}
	if m.RunSeconds < 15 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 15..60", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}
