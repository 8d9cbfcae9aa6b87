package main

import (
	"bytes"
	"testing"
)

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(7, w.gen).bytes(), generate(7, w.gen).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if c := generate(8, w.gen).bytes(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same input", w.name)
		}
	}
}

func TestGeneratorRealisesSharesExactly(t *testing.T) {
	spec := genSpec{Ops: 1000, Kinds: []float64{0.8, 0.2}, HotShare: 0.5, Hot: 10, Tenants: 4, Names: 8, Payloads: 2, PayloadB: 4}
	in := generate(1, spec)
	var kind1, hot, detail int
	for _, o := range in.ops {
		kind1 += int(o.Kind)
		hot += int(o.Hot)
		detail += int(o.Detail)
		if int(o.Tenant) >= spec.Tenants || int(o.Name) >= spec.Names || int(o.Target) >= spec.Hot {
			t.Fatalf("op %+v outside its pools", o)
		}
	}
	if kind1 != 200 || hot != 500 || detail != 500 {
		t.Errorf("kind 1: %d (want 200), hot: %d (want 500), detail: %d (want 500)", kind1, hot, detail)
	}
	if in.at(1000) != in.ops[0] {
		t.Error("the op list does not cycle")
	}
}
