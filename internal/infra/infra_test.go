package infra

import (
	"errors"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgms"
)

func sampleDesc() *Description {
	return &Description{
		Name: "teragrid",
		Domains: []Domain{
			{
				Name: "sdsc",
				Storage: []Storage{
					{Name: "sdsc-gpfs", Class: "parallel-fs", CapacityGB: 100},
					{Name: "sdsc-tape", Class: "archive"},
				},
				Compute: []Compute{{Name: "sdsc-cluster", Nodes: 8, Power: 1.0}},
				SLAs: []SLA{
					{Name: "public", Priority: 1},
					{Name: "scec-gold", Users: []string{"scec"}, Priority: 10},
				},
			},
			{
				Name:    "ncsa",
				Storage: []Storage{{Name: "ncsa-disk", Class: "disk"}},
				Compute: []Compute{{Name: "ncsa-cluster", Nodes: 4, Power: 2.0}},
			},
		},
		Links: []Link{
			{From: "sdsc", To: "ncsa", BandwidthMBps: 40, LatencyMs: 30, Symmetric: true},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	d := sampleDesc()
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `<storageResource name="sdsc-gpfs"`) {
		t.Errorf("marshal output missing elements:\n%s", b)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Domains) != 2 || back.Domains[0].Storage[0].Name != "sdsc-gpfs" {
		t.Errorf("round trip: %+v", back)
	}
	if back.Links[0].BandwidthMBps != 40 || !back.Links[0].Symmetric {
		t.Errorf("link round trip: %+v", back.Links[0])
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Description)
	}{
		{"no domains", func(d *Description) { d.Domains = nil }},
		{"empty domain name", func(d *Description) { d.Domains[0].Name = "" }},
		{"duplicate domain", func(d *Description) { d.Domains[1].Name = "sdsc" }},
		{"empty storage name", func(d *Description) { d.Domains[0].Storage[0].Name = "" }},
		{"duplicate resource", func(d *Description) { d.Domains[1].Storage[0].Name = "sdsc-gpfs" }},
		{"bad class", func(d *Description) { d.Domains[0].Storage[0].Class = "floppy" }},
		{"negative capacity", func(d *Description) { d.Domains[0].Storage[0].CapacityGB = -1 }},
		{"empty compute name", func(d *Description) { d.Domains[0].Compute[0].Name = "" }},
		{"zero nodes", func(d *Description) { d.Domains[0].Compute[0].Nodes = 0 }},
		{"zero power", func(d *Description) { d.Domains[0].Compute[0].Power = 0 }},
		{"compute name collides with storage", func(d *Description) { d.Domains[0].Compute[0].Name = "ncsa-disk" }},
		{"link to unknown domain", func(d *Description) { d.Links[0].To = "mars" }},
		{"zero bandwidth", func(d *Description) { d.Links[0].BandwidthMBps = 0 }},
	}
	for _, tc := range cases {
		d := sampleDesc()
		tc.mut(d)
		if err := d.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	if _, err := Parse([]byte("<oops")); err == nil {
		t.Errorf("bad XML accepted")
	}
}

func TestApply(t *testing.T) {
	g := dgms.New(dgms.Options{})
	nodes, err := sampleDesc().Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("nodes = %+v", nodes)
	}
	if len(g.Resources()) != 3 {
		t.Errorf("resources = %d", len(g.Resources()))
	}
	gpfs, err := g.Resource("sdsc-gpfs")
	if err != nil {
		t.Fatal(err)
	}
	if gpfs.Free() != 100<<30 || gpfs.Domain() != "sdsc" {
		t.Errorf("gpfs = free %d domain %s", gpfs.Free(), gpfs.Domain())
	}
	// Link installed both ways: 100 MiB at 40 MiB/s = 2.5 s + 30 ms.
	d1, err := g.Network().TransferTime("sdsc", "ncsa", 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := g.Network().TransferTime("ncsa", "sdsc", 100<<20)
	want := 2500*time.Millisecond + 30*time.Millisecond
	if d1 != want || d2 != want {
		t.Errorf("link times = %v, %v, want %v", d1, d2, want)
	}
	// Applying again fails on duplicate resources.
	if _, err := sampleDesc().Apply(g); err == nil {
		t.Errorf("double apply accepted")
	}
	// Invalid descriptions refuse to apply.
	bad := sampleDesc()
	bad.Domains[0].Storage[0].Class = "floppy"
	if _, err := bad.Apply(dgms.New(dgms.Options{})); err == nil {
		t.Errorf("invalid apply accepted")
	}
}

func TestSLAFor(t *testing.T) {
	d := sampleDesc()
	sla, ok := d.SLAFor("sdsc", "scec")
	if !ok || sla.Name != "scec-gold" {
		t.Errorf("scec SLA = %+v, %v", sla, ok)
	}
	sla, ok = d.SLAFor("sdsc", "randomuser")
	if !ok || sla.Name != "public" {
		t.Errorf("public SLA = %+v, %v", sla, ok)
	}
	if _, ok := d.SLAFor("ncsa", "anyone"); ok {
		t.Errorf("ncsa has no SLAs")
	}
	if _, ok := d.SLAFor("mars", "anyone"); ok {
		t.Errorf("unknown domain has SLA")
	}
}
