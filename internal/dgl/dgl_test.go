package dgl

import (
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// sampleFlow builds the kind of document the paper's Appendix A
// describes: nested flows, every control pattern, variables, rules.
func sampleFlow() Flow {
	ingest := NewFlow("ingest-stage").
		ForEachIn("file", "a.dat,b.dat,c.dat").
		Step("ingest-one", Op(OpIngest, map[string]string{
			"path": "/grid/scec/$file", "size": "1048576", "resource": "sdsc-disk",
		})).Flow()

	checksum := NewFlow("fixity").
		Parallel().
		Step("verify-a", Op(OpVerify, map[string]string{"path": "/grid/scec/a.dat"})).
		Step("verify-b", Op(OpVerify, map[string]string{"path": "/grid/scec/b.dat"})).Flow()

	retry := NewFlow("drain").
		WhileLoop("$remaining > 0").
		Step("dec", Op(OpSetVariable, map[string]string{"name": "remaining", "value": "$remaining - 1"})).Flow()

	route := NewFlow("route").
		SwitchOn("$tier").
		SubFlow(NewFlow("hot").Step("to-gpfs", Op(OpNoop, nil))).
		SubFlow(NewFlow("default").Step("to-tape", Op(OpNoop, nil))).Flow()

	root := NewFlow("scec-pipeline").
		Var("remaining", "3").
		Var("tier", "hot").
		OnEntry(Op(OpSetMeta, map[string]string{"path": "/grid/scec", "attr": "state", "value": "running"})).
		OnExit(Op(OpSetMeta, map[string]string{"path": "/grid/scec", "attr": "state", "value": "done"})).
		SubFlow(&FlowBuilder{flow: ingest}).
		SubFlow(&FlowBuilder{flow: checksum}).
		SubFlow(&FlowBuilder{flow: retry}).
		SubFlow(&FlowBuilder{flow: route}).Flow()
	return root
}

// TestE1FlowRoundTrip reproduces Figure 1: the full Flow structure
// survives an XML round trip exactly.
func TestE1FlowRoundTrip(t *testing.T) {
	f := sampleFlow()
	if err := ValidateFlow(&f, nil); err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<flowLogic>") || !strings.Contains(string(b), "<control>forEach</control>") {
		t.Errorf("marshalled XML missing schema elements:\n%s", b)
	}
	var back Flow
	if err := xml.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Errorf("round trip changed the flow:\nbefore: %+v\nafter:  %+v", f, back)
	}
}

// TestE2RequestRoundTrip reproduces Figure 2: DataGridRequest with
// document metadata, grid user, VO and the Flow/FlowStatusQuery choice.
func TestE2RequestRoundTrip(t *testing.T) {
	req := NewAsyncRequest("jonw", "SCEC", sampleFlow())
	req.Metadata.Description = "SCEC ingest pipeline"
	req.Metadata.CreatedAt = "2005-08-01T00:00:00Z"
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Flow, back.Flow) || back.User != req.User || !back.Async {
		t.Errorf("request round trip mismatch")
	}
	// Status-query variant.
	sq := NewStatusRequest("jonw", "req-42", true)
	b2, err := Marshal(sq)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseRequest(b2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.StatusQuery == nil || back2.StatusQuery.ID != "req-42" || !back2.StatusQuery.Detail {
		t.Errorf("status query round trip: %+v", back2.StatusQuery)
	}
}

// TestE4ResponseRoundTrip reproduces Figure 4: DataGridResponse with ack
// and status-tree variants.
func TestE4ResponseRoundTrip(t *testing.T) {
	resp := &Response{Ack: &Ack{ID: "req-7", Status: "pending", Valid: true, Message: "queued"}}
	b, err := Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ack == nil || back.Ack.ID != "req-7" || !back.Ack.Valid {
		t.Errorf("ack round trip: %+v", back.Ack)
	}
	st := &Response{Status: &FlowStatus{
		ID: "f1", Name: "root", Kind: "flow", State: "running",
		Children: []FlowStatus{
			{ID: "f1.1", Name: "s1", Kind: "step", State: "succeeded"},
			{ID: "f1.2", Name: "s2", Kind: "step", State: "failed", Error: "disk full"},
		},
	}}
	b2, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseResponse(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Status, back2.Status) {
		t.Errorf("status round trip mismatch:\n%+v\n%+v", st.Status, back2.Status)
	}
	if _, err := ParseResponse([]byte("<not-xml")); err == nil {
		t.Errorf("bad response XML accepted")
	}
}

func TestFlowStatusHelpers(t *testing.T) {
	s := FlowStatus{ID: "a", Name: "root", Kind: "flow", State: "running", Children: []FlowStatus{
		{ID: "b", Name: "x", Kind: "step", State: "succeeded"},
		{ID: "c", Name: "y", Kind: "flow", State: "running", Children: []FlowStatus{
			{ID: "d", Name: "z", Kind: "step", State: "pending"},
		}},
	}}
	n, ok := s.Find("d")
	if !ok || n.Name != "z" {
		t.Errorf("Find(d) = %+v, %v", n, ok)
	}
	if _, ok := s.Find("zz"); ok {
		t.Errorf("Find(zz) should miss")
	}
	counts := s.CountByState()
	if counts["running"] != 2 || counts["succeeded"] != 1 || counts["pending"] != 1 {
		t.Errorf("CountByState = %v", counts)
	}
	if !strings.Contains(s.Summary(), "root") {
		t.Errorf("Summary = %q", s.Summary())
	}
	e := FlowStatus{ID: "e", Name: "bad", Kind: "step", State: "failed", Error: "boom"}
	if !strings.Contains(e.Summary(), "boom") {
		t.Errorf("Summary should include error: %q", e.Summary())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Flow)
	}{
		{"empty flow name", func(f *Flow) { f.Name = "" }},
		{"no control", func(f *Flow) { f.Logic.Control = "" }},
		{"unknown control", func(f *Flow) { f.Logic.Control = "zigzag" }},
		{"sequential with condition", func(f *Flow) { f.Logic.Condition = "1" }},
		{"sequential with iterate", func(f *Flow) { f.Logic.Iterate = &Iterate{Var: "x", Times: 1} }},
		{"mixed children", func(f *Flow) {
			f.Flows = append(f.Flows, Flow{Name: "sub", Logic: FlowLogic{Control: Sequential}})
		}},
		{"duplicate step names", func(f *Flow) { f.Steps = append(f.Steps, f.Steps[0]) }},
		{"step without operation type", func(f *Flow) { f.Steps[0].Operation.Type = "" }},
		{"unknown operation", func(f *Flow) { f.Steps[0].Operation.Type = "teleport" }},
		{"unnamed param", func(f *Flow) {
			f.Steps[0].Operation.Params = append(f.Steps[0].Operation.Params, Param{Name: "", Value: "x"})
		}},
		{"duplicate param", func(f *Flow) {
			f.Steps[0].Operation.Params = append(f.Steps[0].Operation.Params,
				Param{Name: "p", Value: "1"}, Param{Name: "p", Value: "2"})
		}},
		{"empty variable name", func(f *Flow) { f.Variables = append(f.Variables, Variable{Name: ""}) }},
		{"duplicate variable", func(f *Flow) {
			f.Variables = append(f.Variables, Variable{Name: "v"}, Variable{Name: "v"})
		}},
		{"bad onError", func(f *Flow) { f.Steps[0].OnError = "explode" }},
		{"negative retries", func(f *Flow) { f.Steps[0].OnError = OnErrorRetry; f.Steps[0].Retries = -1 }},
		{"retries without retry policy", func(f *Flow) { f.Steps[0].Retries = 2 }},
		{"empty step name", func(f *Flow) { f.Steps[0].Name = "" }},
	}
	for _, tc := range cases {
		f := NewFlow("ok").Step("s1", Op(OpNoop, map[string]string{"k": "v"})).Flow()
		tc.mut(&f)
		if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestValidateControlPatterns(t *testing.T) {
	// while requires a parseable condition.
	f := NewFlow("w").WhileLoop("$$$bad((").Step("s", Op(OpNoop, nil)).Flow()
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad while condition: %v", err)
	}
	f = NewFlow("w").WhileLoop("").Step("s", Op(OpNoop, nil)).Flow()
	f.Logic.Control = While
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing while condition: %v", err)
	}
	// switch requires condition.
	f = NewFlow("sw").Step("s", Op(OpNoop, nil)).Flow()
	f.Logic.Control = Switch
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing switch condition: %v", err)
	}
	// forEach source constraints.
	f = NewFlow("fe").Step("s", Op(OpNoop, nil)).Flow()
	f.Logic.Control = ForEach
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing iterate: %v", err)
	}
	f.Logic.Iterate = &Iterate{Var: ""}
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing var: %v", err)
	}
	f.Logic.Iterate = &Iterate{Var: "x"}
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("no source: %v", err)
	}
	f.Logic.Iterate = &Iterate{Var: "x", In: "a,b", Times: 2}
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("two sources: %v", err)
	}
	f.Logic.Iterate = &Iterate{Var: "x", Times: -1}
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative times: %v", err)
	}
	// while with iterate is invalid.
	f = NewFlow("wi").WhileLoop("true").Step("s", Op(OpNoop, nil)).Flow()
	f.Logic.Iterate = &Iterate{Var: "x", Times: 1}
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("while with iterate: %v", err)
	}
	// switch with iterate is invalid.
	f = NewFlow("si").SwitchOn("$x").Step("s", Op(OpNoop, nil)).Flow()
	f.Logic.Iterate = &Iterate{Var: "x", Times: 1}
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("switch with iterate: %v", err)
	}
}

func TestValidateRules(t *testing.T) {
	mk := func(r Rule) error {
		f := NewFlow("f").Rule(r).Step("s", Op(OpNoop, nil)).Flow()
		return ValidateFlow(&f, nil)
	}
	good := Rule{Name: "r1", Condition: "$x > 1", Actions: []Action{{Name: "true", Operation: &Operation{Type: OpNoop}}}}
	if err := mk(good); err != nil {
		t.Errorf("good rule rejected: %v", err)
	}
	bads := []Rule{
		{Name: "", Condition: "1", Actions: []Action{{Name: "a"}}},
		{Name: "r", Condition: "", Actions: []Action{{Name: "a"}}},
		{Name: "r", Condition: "((", Actions: []Action{{Name: "a"}}},
		{Name: "r", Condition: "1", Actions: nil},
		{Name: "r", Condition: "1", Actions: []Action{{Name: ""}}},
		{Name: "r", Condition: "1", Actions: []Action{{Name: "a"}, {Name: "a"}}},
		{Name: "r", Condition: "1", Actions: []Action{{Name: "a", Operation: &Operation{Type: "bogus"}}}},
	}
	for i, r := range bads {
		if err := mk(r); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad rule %d accepted: %v", i, err)
		}
	}
	// Duplicate rule names.
	f := NewFlow("f").Rule(good).Rule(good).Step("s", Op(OpNoop, nil)).Flow()
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("duplicate rules accepted: %v", err)
	}
}

func TestValidateRequest(t *testing.T) {
	flow := NewFlow("f").Step("s", Op(OpNoop, nil)).Flow()
	// Both flow and status query.
	r := NewRequest("u", "", flow)
	r.StatusQuery = &StatusQuery{ID: "x"}
	if err := r.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("both choices accepted: %v", err)
	}
	// Neither.
	r2 := &Request{User: GridUser{Name: "u"}}
	if err := r2.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty choice accepted: %v", err)
	}
	// Missing user.
	r3 := NewRequest("", "", flow)
	if err := r3.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing user accepted: %v", err)
	}
	// Status query without id.
	r4 := NewStatusRequest("u", "", false)
	if err := r4.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty status id accepted: %v", err)
	}
	// ParseRequest validates.
	if _, err := ParseRequest([]byte("<dataGridRequest></dataGridRequest>")); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid request parsed: %v", err)
	}
	if _, err := ParseRequest([]byte("not xml at all")); err == nil {
		t.Errorf("garbage parsed")
	}
}

func TestExtensionOps(t *testing.T) {
	f := NewFlow("f").Step("s", Op("extractMetadata", map[string]string{"path": "/x"})).Flow()
	if err := ValidateFlow(&f, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("extension op accepted without registration: %v", err)
	}
	if err := ValidateFlow(&f, map[string]bool{"extractMetadata": true}); err != nil {
		t.Errorf("registered extension rejected: %v", err)
	}
	if !IsBuiltinOp(OpIngest) || IsBuiltinOp("extractMetadata") {
		t.Errorf("IsBuiltinOp wrong")
	}
}

func TestOperationHelpers(t *testing.T) {
	o := Op(OpIngest, map[string]string{"b": "2", "a": "1"})
	// Deterministic param order.
	if o.Params[0].Name != "a" || o.Params[1].Name != "b" {
		t.Errorf("param order: %+v", o.Params)
	}
	if v, ok := o.Param("a"); !ok || v != "1" {
		t.Errorf("Param(a) = %q, %v", v, ok)
	}
	if _, ok := o.Param("z"); ok {
		t.Errorf("Param(z) should miss")
	}
	if o.ParamOr("z", "dflt") != "dflt" || o.ParamOr("a", "x") != "1" {
		t.Errorf("ParamOr wrong")
	}
}

func TestFlowHelpers(t *testing.T) {
	f := sampleFlow()
	// ingest-stage has 1 step, fixity 2, drain 1, route 2 (one per subflow).
	if got := f.CountSteps(); got != 6 {
		t.Errorf("CountSteps = %d", got)
	}
	if !strings.Contains(NewRequest("u", "vo", f).String(), "dataGridRequest") {
		t.Errorf("Request.String not XML")
	}
}

// Property: any flow built from a generated spec survives the XML round
// trip unchanged.
func TestQuickFlowRoundTrip(t *testing.T) {
	f := func(names []string, par bool, nVars uint8) bool {
		b := NewFlow("root")
		if par {
			b.Parallel()
		}
		for i := 0; i < int(nVars%5); i++ {
			b.Var(fmt.Sprintf("v%d", i), fmt.Sprintf("val%d", i))
		}
		seen := map[string]bool{}
		for i, n := range names {
			if i >= 8 {
				break
			}
			name := fmt.Sprintf("s%d_%x", i, len(n))
			if seen[name] {
				continue
			}
			seen[name] = true
			b.Step(name, Op(OpNoop, map[string]string{"idx": fmt.Sprint(i)}))
		}
		flow := b.Flow()
		data, err := Marshal(&flow)
		if err != nil {
			return false
		}
		var back Flow
		if err := xml.Unmarshal(data, &back); err != nil {
			return false
		}
		return reflect.DeepEqual(flow, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkE1FlowRoundTrip(b *testing.B) {
	f := sampleFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(&f)
		if err != nil {
			b.Fatal(err)
		}
		var back Flow
		if err := xml.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2RequestRoundTrip(b *testing.B) {
	req := NewAsyncRequest("jonw", "SCEC", sampleFlow())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseRequest(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	f := sampleFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ValidateFlow(&f, nil); err != nil {
			b.Fatal(err)
		}
	}
}
