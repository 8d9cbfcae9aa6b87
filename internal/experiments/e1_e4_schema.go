package experiments

import (
	"context"
	"encoding/xml"
	"fmt"
	"reflect"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/wire"
)

// sampleFlow is the canonical document used by the schema experiments:
// it exercises every element of Figures 1 and 3 — nested flows, all five
// control patterns, variables, user-defined rules with beforeEntry and
// afterExit, steps with operations and fault policies.
func sampleFlow(steps int) dgl.Flow {
	ingest := dgl.NewFlow("ingest-stage").ForEachIn("file", "a.dat,b.dat,c.dat")
	for i := 0; i < steps; i++ {
		ingest.Step(fmt.Sprintf("ingest-%d", i), dgl.Op(dgl.OpNoop, map[string]string{
			"path": "/grid/scec/$file", "idx": fmt.Sprint(i),
		}))
	}
	fixity := dgl.NewFlow("fixity").Parallel().
		Step("verify-a", dgl.Op(dgl.OpVerify, map[string]string{"path": "/grid/a"})).
		StepWith(dgl.Step{
			Name: "verify-b", OnError: dgl.OnErrorRetry, Retries: 3,
			Operation: dgl.Op(dgl.OpVerify, map[string]string{"path": "/grid/b"}),
		})
	drain := dgl.NewFlow("drain").WhileLoop("$remaining > 0").
		Step("dec", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "remaining", "expr": "$remaining - 1"}))
	route := dgl.NewFlow("route").SwitchOn("$tier").
		SubFlow(dgl.NewFlow("hot").Step("h", dgl.Op(dgl.OpNoop, nil))).
		SubFlow(dgl.NewFlow("default").Step("d", dgl.Op(dgl.OpNoop, nil)))
	return dgl.NewFlow("pipeline").
		Var("remaining", "3").
		Var("tier", "hot").
		OnEntry(dgl.Op(dgl.OpSetMeta, map[string]string{"path": "/grid", "attr": "state", "value": "running"})).
		OnExit(dgl.Op(dgl.OpSetMeta, map[string]string{"path": "/grid", "attr": "state", "value": "done"})).
		SubFlow(ingest).SubFlow(fixity).SubFlow(drain).SubFlow(route).Flow()
}

// E1FlowSchema reproduces Figure 1 (Structure of a Flow): the Flow
// schema, its XML rendering, lossless round-tripping, and the validator
// catching every malformed variant.
func E1FlowSchema(s Scale) (*Report, error) {
	r := &Report{
		ID: "E1", Title: "Figure 1 — Flow schema round-trip and validation",
		Header: []string{"document", "steps", "xml-bytes", "round-trip", "valid"},
	}
	for _, n := range []int{1, pick(s, 4, 16), pick(s, 16, 64)} {
		f := sampleFlow(n)
		data, err := dgl.Marshal(&f)
		if err != nil {
			return nil, err
		}
		var back dgl.Flow
		if err := xml.Unmarshal(data, &back); err != nil {
			return nil, err
		}
		lossless := reflect.DeepEqual(f, back)
		valid := dgl.ValidateFlow(&f, nil) == nil
		r.Row(fmt.Sprintf("pipeline/%d", n), fmt.Sprint(f.CountSteps()),
			fmt.Sprint(len(data)), fmt.Sprint(lossless), fmt.Sprint(valid))
		if !lossless || !valid {
			return nil, fmt.Errorf("E1: round trip or validation failed for %d steps", n)
		}
	}
	// The validation corpus: every mutation class the schema forbids.
	bad := 0
	mutations := []func(*dgl.Flow){
		func(f *dgl.Flow) { f.Logic.Control = "zigzag" },
		func(f *dgl.Flow) {
			f.Flows = append(f.Flows, dgl.Flow{Name: "x", Logic: dgl.FlowLogic{Control: dgl.Sequential}})
		},
		func(f *dgl.Flow) { f.Steps[0].Operation.Type = "teleport" },
		func(f *dgl.Flow) { f.Steps = append(f.Steps, f.Steps[0]) },
		func(f *dgl.Flow) { f.Variables = append(f.Variables, dgl.Variable{Name: "v"}, dgl.Variable{Name: "v"}) },
	}
	for _, mut := range mutations {
		f := dgl.NewFlow("probe").Step("s", dgl.Op(dgl.OpNoop, nil)).Flow()
		mut(&f)
		if dgl.ValidateFlow(&f, nil) != nil {
			bad++
		}
	}
	r.Note("validator rejected %d/%d malformed variants", bad, len(mutations))
	if bad != len(mutations) {
		return nil, fmt.Errorf("E1: validator missed a malformed variant")
	}
	return r, nil
}

// E2RequestSchema reproduces Figure 2 (DataGridRequest): document
// metadata, grid user / virtual organization, and the Flow vs
// FlowStatusQuery choice, over the wire format.
func E2RequestSchema(s Scale) (*Report, error) {
	r := &Report{
		ID: "E2", Title: "Figure 2 — DataGridRequest round-trip",
		Header: []string{"variant", "xml-bytes", "round-trip"},
	}
	flowReq := dgl.NewAsyncRequest("jonw", "SCEC", sampleFlow(pick(s, 4, 16)))
	flowReq.Metadata.Description = "SCEC ingestion pipeline"
	flowReq.Metadata.CreatedAt = "2005-08-01T00:00:00Z"
	statusReq := dgl.NewStatusRequest("jonw", "dgf-000001/pipeline/fixity", true)
	for _, tc := range []struct {
		name string
		req  *dgl.Request
	}{{"flow", flowReq}, {"statusQuery", statusReq}} {
		data, err := dgl.Marshal(tc.req)
		if err != nil {
			return nil, err
		}
		back, err := dgl.ParseRequest(data)
		if err != nil {
			return nil, err
		}
		ok := back.User == tc.req.User &&
			reflect.DeepEqual(back.Flow, tc.req.Flow) &&
			reflect.DeepEqual(back.StatusQuery, tc.req.StatusQuery)
		r.Row(tc.name, fmt.Sprint(len(data)), fmt.Sprint(ok))
		if !ok {
			return nil, fmt.Errorf("E2: %s round trip failed", tc.name)
		}
	}
	return r, nil
}

// E3ControlPatterns reproduces Figure 3 (flowlogic schema) as behaviour:
// each control pattern executes with its specified semantics, and the
// beforeEntry/afterExit rules fire around the flow.
func E3ControlPatterns(s Scale) (*Report, error) {
	g, e, err := newEngine()
	if err != nil {
		return nil, err
	}
	_ = g
	r := &Report{
		ID: "E3", Title: "Figure 3 — control patterns execute per spec",
		Header: []string{"pattern", "expectation", "observed", "ok"},
	}
	check := func(pattern, expectation, observed string, ok bool) error {
		r.Row(pattern, expectation, observed, fmt.Sprint(ok))
		if !ok {
			return fmt.Errorf("E3: %s failed (%s != %s)", pattern, observed, expectation)
		}
		return nil
	}
	// sequential: order preserved.
	seq := dgl.NewFlow("seq").Var("log", "").
		Step("a", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "expr": "$log + 'a'"})).
		Step("b", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "expr": "$log + 'b'"})).
		Step("c", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "expr": "$log + 'c'"})).Flow()
	ex, err := e.Run("user", seq)
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	if err := check("sequential", "abc", ex.Vars()["log"], ex.Vars()["log"] == "abc"); err != nil {
		return nil, err
	}
	// parallel: all children complete.
	n := pick(s, 8, 64)
	par := dgl.NewFlow("par").Parallel()
	for i := 0; i < n; i++ {
		par.Step(fmt.Sprintf("p%d", i), dgl.Op(dgl.OpNoop, nil))
	}
	ex, err = e.Run("user", par.Flow())
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	st := ex.Status(true)
	done := st.CountByState()[string(matrix.StateSucceeded)]
	if err := check("parallel", fmt.Sprint(n+1), fmt.Sprint(done), done == n+1); err != nil {
		return nil, err
	}
	// while: loop count.
	k := pick(s, 5, 50)
	wl := dgl.NewFlow("wl").Var("n", "0").
		SubFlow(dgl.NewFlow("body").WhileLoop(fmt.Sprintf("$n < %d", k)).
			Step("inc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "n", "expr": "$n + 1"}))).Flow()
	ex, err = e.Run("user", wl)
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	if err := check("while", fmt.Sprint(k), ex.Vars()["n"], ex.Vars()["n"] == fmt.Sprint(k)); err != nil {
		return nil, err
	}
	// forEach: iteration binding.
	fe := dgl.NewFlow("fe").Var("seen", "").
		SubFlow(dgl.NewFlow("body").ForEachIn("x", "1,2,3").
			Step("acc", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "seen", "expr": "$seen + $x"}))).Flow()
	ex, err = e.Run("user", fe)
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	// String concatenation of numeric strings: "1"+"2" adds numerically
	// in this language, so expect 6.
	if err := check("forEach", "6", ex.Vars()["seen"], ex.Vars()["seen"] == "6"); err != nil {
		return nil, err
	}
	// switch: arm selection + skipped siblings.
	sw := dgl.NewFlow("sw").Var("tier", "cold").Var("chose", "").
		SubFlow(dgl.NewFlow("sel").SwitchOn("$tier").
			SubFlow(dgl.NewFlow("hot").Step("h", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "chose", "value": "hot"}))).
			SubFlow(dgl.NewFlow("cold").Step("c", dgl.Op(dgl.OpSetVariable, map[string]string{"name": "chose", "value": "cold"})))).Flow()
	ex, err = e.Run("user", sw)
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	if err := check("switch", "cold", ex.Vars()["chose"], ex.Vars()["chose"] == "cold"); err != nil {
		return nil, err
	}
	// rules: beforeEntry then afterExit.
	rf := dgl.NewFlow("ruled").Var("log", "").
		OnEntry(dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "value": "in"})).
		OnExit(dgl.Op(dgl.OpSetVariable, map[string]string{"name": "log", "expr": "$log + '-out'"})).
		Step("work", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex, err = e.Run("user", rf)
	if err != nil {
		return nil, err
	}
	if err := ex.Wait(); err != nil {
		return nil, err
	}
	if err := check("rules", "in-out", ex.Vars()["log"], ex.Vars()["log"] == "in-out"); err != nil {
		return nil, err
	}
	return r, nil
}

// E4AsyncStatus reproduces Figure 4 (DataGridResponse): synchronous
// responses carry the status tree, asynchronous ones a request
// acknowledgement whose id resolves to status at every granularity —
// including over the wire protocol.
func E4AsyncStatus(s Scale) (*Report, error) {
	g, e, err := newEngine()
	if err != nil {
		return nil, err
	}
	// The sample pipeline's fixity stage verifies these objects.
	for _, p := range []string{"/grid/a", "/grid/b"} {
		if err := g.Ingest("user", p, 1024, nil, "sdsc-disk"); err != nil {
			return nil, err
		}
	}
	r := &Report{
		ID: "E4", Title: "Figure 4 — sync/async responses and status granularity",
		Header: []string{"path", "mode", "result", "ok"},
	}
	flow := sampleFlow(pick(s, 3, 10))
	// Synchronous: final tree in the response.
	resp, err := e.Submit(dgl.NewRequest("user", "SCEC", flow))
	if err != nil {
		return nil, err
	}
	okSync := resp.Status != nil && resp.Status.State == string(matrix.StateSucceeded)
	r.Row("in-process", "sync", "status tree", fmt.Sprint(okSync))
	// Asynchronous: ack then poll.
	resp, err = e.Submit(dgl.NewAsyncRequest("user", "SCEC", flow))
	if err != nil {
		return nil, err
	}
	okAck := resp.Ack != nil && resp.Ack.Valid
	r.Row("in-process", "async", "ack id "+resp.Ack.ID, fmt.Sprint(okAck))
	exec, _ := e.Execution(resp.Ack.ID)
	if err := exec.Wait(); err != nil {
		return nil, err
	}
	// Granular status: root, mid-flow, leaf step.
	granularOK := true
	for _, id := range []string{
		resp.Ack.ID,
		resp.Ack.ID + "/pipeline/fixity",
		resp.Ack.ID + "/pipeline/fixity/verify-a",
	} {
		st, err := e.Status(id, false)
		if err != nil || st.State == "" {
			granularOK = false
		}
	}
	r.Row("in-process", "status query", "root/flow/step ids resolve", fmt.Sprint(granularOK))
	// Over the wire.
	srv := wire.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	t0 := time.Now()
	res, err := client.Submit(context.Background(), dgl.NewRequest("user", "", flow), wire.WithAsync())
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return nil, err
	}
	ackLatency := time.Since(t0)
	id := res.ID
	exec2, _ := e.Execution(id)
	if err := exec2.Wait(); err != nil {
		return nil, err
	}
	st, err := client.Status("user", id, true)
	wireOK := err == nil && st.State == string(matrix.StateSucceeded)
	r.Row("wire", "async+status", fmt.Sprintf("ack in %v", ackLatency.Round(time.Microsecond)), fmt.Sprint(wireOK))
	if !okSync || !okAck || !granularOK || !wireOK {
		return nil, fmt.Errorf("E4: a response mode failed")
	}
	return r, nil
}
