package wire

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/scheduler"
)

// TestDecodeReplicateResultAllocs: a replication ack holds no string but
// an error, so decoding an ok one allocates nothing — no payload copy
// (parent commit 1) and no symbol table.
func TestDecodeReplicateResultAllocs(t *testing.T) {
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	want := ReplicateResult{OK: true, AckSeq: 4096}
	appendReplicateResult(e, &want)
	payload := append([]byte(nil), e.Bytes()...)
	if got, err := decodeReplicateResult(payload); err != nil || got != want {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeReplicateResult(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding an ok replication ack allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentDecodesShareThePool: decoders borrow their symbol tables
// from one pool and give them back when a decode returns. Eight
// goroutines decode requests, responses, replicate frames and control
// frames interleaved, each payload with more symbols than a table's
// first 16, and every result must equal the one decoded alone before
// them: a table handed to two decoders at once, or given back while its
// decoder still reads it, resolves one payload's symbols from another's
// (and is a data race under -race).
func TestConcurrentDecodesShareThePool(t *testing.T) {
	flow := dgl.NewFlow("pool-check").Var("run", "7")
	for i := range 12 {
		flow.Step(fmt.Sprintf("step-%d", i), dgl.Op(dgl.OpSetMeta, map[string]string{
			"path": fmt.Sprintf("/grid/p/%d.dat", i), "attr": fmt.Sprintf("a%d", i), "value": "v"}))
	}
	request := []byte(codec.RequestDoc(dgl.NewRequest("alice", "vo-1", flow.Flow())))

	root := dgl.FlowStatus{ID: "peerA:dgf-000001/pool-check", Name: "pool-check", Kind: "flow", State: "running"}
	for i := range 12 {
		root.Children = append(root.Children, dgl.FlowStatus{ID: fmt.Sprintf("%s/step-%d", root.ID, i),
			Name: fmt.Sprintf("step-%d", i), Kind: "step", State: "succeeded", Started: fmt.Sprintf("2026-10-03T09:00:%02dZ", i)})
	}
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	codec.AppendResponse(e, &dgl.Response{Status: &root})
	response := append([]byte(nil), e.Bytes()...)

	var chain []string
	for i := range 20 {
		chain = append(chain, fmt.Sprintf("peer-%d", i))
	}
	e.Reset()
	appendReplicate(e, &Replicate{Op: "append", Source: "peerA", Seq: 9, Count: 2, Block: []byte{1, 2, 3}, Chain: chain})
	replicate := append([]byte(nil), e.Bytes()...)

	e.Reset()
	appendControl(e, &Control{Op: "vput", ID: "dgf-000003", User: "alice", Name: "peerB", Addr: "127.0.0.1:7401",
		Load: &scheduler.PeerLoad{Inflight: 3, Resources: chain[12:]}, Shards: []int{0, 5}})
	control := append([]byte(nil), e.Bytes()...)

	decodes := []func() (any, error){
		func() (any, error) { return codec.DecodeRequest(request) },
		func() (any, error) { return codec.DecodeResponse(response) },
		func() (any, error) { return decodeReplicate(replicate) },
		func() (any, error) { return decodeControl(control) },
	}
	want := make([]any, len(decodes))
	for i, decode := range decodes {
		v, err := decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		want[i] = v
	}

	const goroutines, rounds = 8, 200
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (g + r) % len(decodes)
				got, err := decodes[i]()
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d round %d, decode %d: %+v, %v; want %+v", g, r, i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
