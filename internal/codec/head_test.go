package codec

import (
	"testing"

	"datagridflow/internal/dgl"
)

// headDocs are request documents whose head fields are symbol
// references into the flow and the user block as well as definitions.
func headDocs() []string {
	full := testRequest()
	full.Route, full.Token = dgl.RouteAuto, "dgt1.YWxpY2U.1790000000.c2ln"
	// The route and the user name repeat symbols the document defined
	// earlier — a step's and a variable's names — so they are references.
	backRef := dgl.NewRequest("stage", "", dgl.NewFlow("local").Var("alice", "1").
		Step("stage", dgl.Op(dgl.OpNoop, nil)).Flow())
	backRef.User.Name, backRef.Route = "local", dgl.RouteLocal
	status := dgl.NewStatusRequest("alice", "dgf-000001", true)
	// A second, empty flow message: the decode keeps a flow with no name.
	twoFlows := RequestDoc(backRef) + "\x12\x00"
	return []string{RequestDoc(full), RequestDoc(backRef), RequestDoc(status), RequestDoc(&dgl.Request{}), twoFlows}
}

// TestReadRequestHead: the head read from the bytes is the decoded
// request's, without allocating.
func TestReadRequestHead(t *testing.T) {
	for i, doc := range headDocs() {
		req, err := DecodeRequestDoc(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequestHead(doc)
		if want := RequestHeadOf(req); err != nil || got != want {
			t.Errorf("doc %d: head %+v, %v; want %+v", i, got, err, want)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(50, func() { _, _ = ReadRequestHead(doc) }); n != 0 {
			t.Errorf("doc %d: ReadRequestHead allocates %.0f times, want 0", i, n)
		}
	}
	if _, err := ReadRequestHead("<dataGridRequest/>"); err != ErrNotBinary {
		t.Errorf("XML document: %v, want ErrNotBinary", err)
	}
}

// FuzzRequestHead: whatever a request document holds, a document that
// decodes has the head its decode has, and no input panics the walk.
func FuzzRequestHead(f *testing.F) {
	for _, doc := range headDocs() {
		f.Add([]byte(doc))
	}
	f.Add([]byte{Magic, Version, MsgRequest, 0x1f, 0x01})
	f.Fuzz(func(t *testing.T, raw []byte) {
		doc := string(raw)
		got, herr := ReadRequestHead(doc)
		req, err := DecodeRequest(raw)
		if err != nil {
			return
		}
		if want := RequestHeadOf(req); herr != nil || got != want {
			t.Fatalf("head %+v, %v; the decode's %+v", got, herr, want)
		}
	})
}
