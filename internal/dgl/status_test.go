package dgl

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func statusTree() *FlowStatus {
	return &FlowStatus{
		ID: "dgf-000001/pipeline", Name: "pipeline", Kind: "flow", State: "failed",
		Started: "2026-10-03T09:00:00.000000001Z", Finished: "2026-10-03T09:00:02Z",
		Children: []FlowStatus{
			{ID: "dgf-000001/pipeline/a", Name: "a", Kind: "step", State: "succeeded", Started: "not a <time>"},
			{ID: "dgf-000001/pipeline/fan", Name: "fan", Kind: "flow", State: "failed", Delegated: "peerB:dgf-000042",
				Error: "dgferr:timeout: <slow> & \"late\"", Children: []FlowStatus{
					{ID: "peerB:dgf-000042/fan/x", Name: "x", Kind: "step", State: "pending"},
				}},
			{ID: "dgf-000001/pipeline/z", Name: "z", Kind: "step", State: "pending"},
		},
	}
}

// TestResponseWriterMatchesMarshal: a response written piece by piece
// is the document Marshal writes for the Response holding the pieces,
// appended to whatever the buffer held.
func TestResponseWriterMatchesMarshal(t *testing.T) {
	var w ResponseWriter // reused across documents, as a connection's is
	for _, resp := range []*Response{
		{Status: statusTree(), Error: "dgferr:retry-exhausted: x"},
		{Ack: &Ack{ID: "dgf-000002", Status: "pending", Valid: true, Message: "queued & <waiting>"}},
		{Error: "dgferr:not-found: nope"},
		{},
	} {
		want, err := Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		w.Begin([]byte("kept:"))
		if resp.Ack != nil {
			w.Ack(*resp.Ack)
		}
		if resp.Status != nil {
			WalkStatus(resp.Status, &w)
		}
		got := w.End(resp.Error)
		if !bytes.HasPrefix(got, []byte("kept:")) || !bytes.Equal(got[5:], want) {
			t.Errorf("written piece by piece:\n%s\nmarshalled:\n%s", got, want)
		}
		appended, err := AppendXML([]byte("kept:"), resp)
		if err != nil || !bytes.Equal(appended, got) {
			t.Errorf("AppendXML: %v\n%s", err, appended)
		}
	}
	if out, err := AppendXML([]byte("kept:"), 42); err == nil || string(out) != "kept:" {
		t.Errorf("AppendXML of a non-document = %q, %v; want the buffer as it was and an error", out, err)
	}
}

// TestStatusBuilderRebuildsTree: walking a FlowStatus into the builder
// gives the FlowStatus back, nil Children where there were none.
func TestStatusBuilderRebuildsTree(t *testing.T) {
	want := statusTree()
	var b StatusBuilder
	WalkStatus(want, &b)
	if got := b.Status(); !reflect.DeepEqual(&got, want) {
		t.Errorf("rebuilt tree:\n got %+v\nwant %+v", got, *want)
	}
	deep := &FlowStatus{ID: "0"}
	for cur, i := deep, 0; i < 20; i++ { // deeper than the builder's inline path
		cur.Children = []FlowStatus{{ID: string(rune('a' + i))}}
		cur = &cur.Children[0]
	}
	var d StatusBuilder
	WalkStatus(deep, &d)
	if got := d.Status(); !reflect.DeepEqual(&got, deep) {
		t.Error("a 21-level chain did not rebuild")
	}
}

// FuzzStatusTimeMatchesFormat holds a status time's rendering to the
// time package's RFC 3339 with nanoseconds, in UTC, for any instant and
// any location it is held in.
func FuzzStatusTimeMatchesFormat(f *testing.F) {
	f.Add(int64(1790000000), int64(123456789), 0)
	f.Add(int64(-62135596800), int64(1), 3600)
	f.Add(int64(253402300800), int64(0), -7200)
	f.Add(int64(0), int64(100), 0)
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int) {
		at := time.Unix(sec, nsec).In(time.FixedZone("z", offset%86400))
		if at.IsZero() {
			return
		}
		want := at.UTC().Format(time.RFC3339Nano)
		st := StatusTime{Time: at}
		if got := string(st.Append([]byte("x"))); got != "x"+want {
			t.Fatalf("Append(%v) = %q, want %q", at, got, "x"+want)
		}
		if got := st.String(); got != want {
			t.Fatalf("String(%v) = %q, want %q", at, got, want)
		}
	})
}
