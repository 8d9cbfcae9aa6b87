package dgl

import (
	"errors"
	"reflect"
	"testing"
)

func TestValidatePureRequiresOutputs(t *testing.T) {
	f := NewFlow("p").StepWith(Step{
		Name: "derive", Pure: true,
		Operation: Operation{Type: "noop"},
	}).Flow()
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("pure step without outputs validated: %v", err)
	}

	ok := NewFlow("p").PureStep("derive", Operation{Type: "noop"}, "/out/a").Flow()
	if err := ValidateFlow(&ok, nil); err != nil {
		t.Fatalf("pure step with outputs rejected: %v", err)
	}

	// Outputs on an impure step are legal (declarative only).
	impure := NewFlow("p").StepWith(Step{
		Name: "s", Outputs: "/out/a",
		Operation: Operation{Type: "noop"},
	}).Flow()
	if err := ValidateFlow(&impure, nil); err != nil {
		t.Fatalf("impure step with outputs rejected: %v", err)
	}
}

func TestValidateOutputsRejectsEmptyPaths(t *testing.T) {
	for _, outs := range []string{"/out/a,,/out/b", ",/out/a", "/out/a,"} {
		f := NewFlow("p").StepWith(Step{
			Name: "s", Pure: true, Outputs: outs,
			Operation: Operation{Type: "noop"},
		}).Flow()
		if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
			t.Fatalf("outputs %q validated: %v", outs, err)
		}
	}
	// Pure with only whitespace in outputs is still "no outputs".
	f := NewFlow("p").StepWith(Step{
		Name: "s", Pure: true, Outputs: "   ",
		Operation: Operation{Type: "noop"},
	}).Flow()
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("whitespace outputs validated: %v", err)
	}
}

func TestOutputListParsing(t *testing.T) {
	outputs := func(s Step) []string {
		var outs []string
		s.EachOutput(func(i int, out string) {
			if i != len(outs) {
				t.Fatalf("EachOutput index %d after %d items", i, len(outs))
			}
			outs = append(outs, out)
		})
		if len(outs) != s.OutputCount() {
			t.Fatalf("OutputCount = %d, EachOutput gave %q", s.OutputCount(), outs)
		}
		return outs
	}
	if got := outputs(Step{Outputs: " /out/a , /out/b "}); !reflect.DeepEqual(got, []string{"/out/a", "/out/b"}) {
		t.Fatalf("outputs = %q", got)
	}
	if got := outputs(Step{Outputs: "a,, b,"}); !reflect.DeepEqual(got, []string{"a", "", "b", ""}) {
		t.Fatalf("interior and trailing empty items = %q", got)
	}
	if got := outputs(Step{Outputs: " \t"}); got != nil {
		t.Fatalf("blank outputs parsed to %q", got)
	}
	if got := outputs(Step{}); got != nil {
		t.Fatalf("empty outputs parsed to %q", got)
	}
}

// A pure step built programmatically must survive the XML round trip
// with its attributes intact.
func TestPureStepRoundTrip(t *testing.T) {
	flow := NewFlow("dag").
		PureStep("fft", Operation{Type: "exec", Params: []Param{{Name: "command", Value: "fft /in"}}},
			"/out/spectrum", "/out/phase").
		Step("publish", Operation{Type: "exec", Params: []Param{{Name: "command", Value: "publish"}}}).
		Flow()
	req := NewRequest("physicist", "vo", flow)
	data, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	st := back.Flow.Steps[0]
	if !st.Pure || st.Outputs != "/out/spectrum,/out/phase" {
		t.Fatalf("round trip lost pure attrs: %+v", st)
	}
	if back.Flow.Steps[1].Pure {
		t.Fatal("impure step came back pure")
	}
	// Parsed documents must be stable under a second round trip.
	data2, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseRequest(data2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, back2) {
		t.Fatal("round trip changed the document")
	}
}
