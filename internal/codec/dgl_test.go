package codec

import (
	"testing"

	"datagridflow/internal/dgl"
)

// testRequest builds a request exercising every DGL construct the codec
// encodes: nested flows, iteration with a namespace query, rules with
// actions, step attributes, variables and parameters.
func testRequest() *dgl.Request {
	return &dgl.Request{
		Async: true,
		Metadata: dgl.DocumentMeta{
			CreatedBy:   "alice",
			CreatedAt:   "2026-08-08T00:00:00Z",
			Description: "codec round-trip fixture",
		},
		User: dgl.GridUser{Name: "alice", VO: "cms"},
		Flow: &dgl.Flow{
			Name: "pipeline",
			Variables: []dgl.Variable{
				{Name: "src", Value: "/grid/data/in"},
				{Name: "dst", Value: "/grid/data/out"},
			},
			Logic: dgl.FlowLogic{Control: dgl.Sequential},
			Flows: []dgl.Flow{{
				Name: "fanout",
				Logic: dgl.FlowLogic{
					Control: dgl.ForEach,
					Iterate: &dgl.Iterate{
						Var:      "chunk",
						Parallel: true,
						Times:    3,
						Query: &dgl.NSQuery{
							Scope:       "/grid/data/in",
							ObjectsOnly: true,
							Conditions:  []dgl.QueryCond{{Attr: "size", Op: "gt", Value: "0"}},
						},
					},
					Rules: []dgl.Rule{{
						Name:      "onBigChunk",
						Condition: "${size} > 1024",
						Actions: []dgl.Action{{
							Name:      "log",
							Operation: &dgl.Operation{Type: "noop"},
						}},
					}},
				},
				Steps: []dgl.Step{{
					Name:      "transfer",
					OnError:   "retry",
					Retries:   2,
					Backoff:   "10ms",
					Timeout:   "1s",
					Variables: []dgl.Variable{{Name: "tmp", Value: "${chunk}.part"}},
					Operation: dgl.Operation{
						Type: "copyFile",
						Params: []dgl.Param{
							{Name: "source", Value: "${chunk}"},
							{Name: "target", Value: "${dst}/${chunk}"},
						},
					},
				}},
			}},
			Steps: []dgl.Step{{
				Name:      "cleanup",
				Operation: dgl.Operation{Type: "removeDirectory", Params: []dgl.Param{{Name: "path", Value: "${src}"}}},
			}},
		},
	}
}

// TestRequestRoundTrip compares the XML rendering before and after a
// binary round trip — XML equality is exactly the fidelity the server
// needs, since it answers a text client in XML.
func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []*dgl.Request{
		testRequest(),
		dgl.NewStatusRequest("bob", "dgf-000007", true),
		{User: dgl.GridUser{Name: "x"}},
	} {
		e := GetEncoder()
		AppendRequest(e, req)
		got, err := DecodeRequest(e.Bytes())
		PutEncoder(e)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		wantXML, err := dgl.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		gotXML, err := dgl.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotXML) != string(wantXML) {
			t.Errorf("XML mismatch after round trip:\n got: %s\nwant: %s", gotXML, wantXML)
		}
	}
}

// TestResponseRoundTrip covers acks, deep status trees and error
// responses.
func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range []*dgl.Response{
		{Ack: &dgl.Ack{ID: "dgf-000042", Status: "accepted", Valid: true}},
		{Error: "resource_down: peer unreachable"},
		{Status: &dgl.FlowStatus{
			ID: "dgf-000042", Name: "pipeline", Kind: "flow", State: "running",
			Started: "2026-08-08T01:02:03Z",
			Children: []dgl.FlowStatus{
				{ID: "dgf-000042/n1", Name: "stage-in", Kind: "step", State: "completed",
					Started: "2026-08-08T01:02:03Z", Finished: "2026-08-08T01:02:04Z"},
				{ID: "dgf-000042/n2", Name: "fanout", Kind: "flow", State: "running",
					Delegated: "peerB:dgf-000099",
					Children: []dgl.FlowStatus{
						{ID: "dgf-000042/n2/c0", Name: "transfer", Kind: "step", State: "failed",
							Error: "exec_failed: no such file"},
					}},
			},
		}},
	} {
		e := GetEncoder()
		AppendResponse(e, resp)
		got, err := DecodeResponse(e.Bytes())
		PutEncoder(e)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		wantXML, _ := dgl.Marshal(resp)
		gotXML, _ := dgl.Marshal(got)
		if string(gotXML) != string(wantXML) {
			t.Errorf("XML mismatch:\n got: %s\nwant: %s", gotXML, wantXML)
		}
	}
}

// BenchmarkRequestBinary/XML size up the codec win on the submit path.
func BenchmarkRequestBinary(b *testing.B) {
	req := testRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		AppendRequest(e, req)
		if _, err := DecodeRequest(e.Bytes()); err != nil {
			b.Fatal(err)
		}
		PutEncoder(e)
	}
}

func BenchmarkRequestXML(b *testing.B) {
	req := testRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := dgl.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dgl.DecodeRequest(data); err != nil {
			b.Fatal(err)
		}
	}
}
