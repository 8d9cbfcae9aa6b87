package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
)

// failFlow is a flow whose second step fails.
func failFlow(name string) dgl.Flow {
	return dgl.NewFlow(name).
		Step("ok", dgl.Op(dgl.OpNoop, nil)).
		Step("bad", dgl.Op("boom", nil)).Flow()
}

func registerBoom(e *matrix.Engine) {
	e.RegisterOp("boom", func(*matrix.OpContext) error { return errors.New("boom") })
}

// referenceReply is the reply a submission's execution makes as a
// materialised Response, encoded as the request was: what a server sent
// before replies were streamed from the status tree.
func referenceReply(t *testing.T, e *matrix.Engine, async bool, id string, bin bool) []byte {
	t.Helper()
	ex, ok := e.Execution(id)
	if !ok {
		t.Fatalf("no execution %s on the engine expected to own it", id)
	}
	resp := &dgl.Response{Ack: &dgl.Ack{ID: id, Status: string(matrix.StatePending), Valid: true}}
	if !async {
		st := ex.Status(true)
		resp = &dgl.Response{Status: &st, Error: dgferr.Encode(ex.Err())}
	}
	if bin {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		codec.AppendResponse(enc, resp)
		return append([]byte(nil), enc.Bytes()...)
	}
	doc, err := dgl.AppendXML(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSyncReplyMatchesResponse: a submission's reply, streamed from the
// execution's status tree into the reply (and, routed, relayed from the
// owner's reply frame), is byte for byte the encoding of the Response the
// engine would have built for it — binary and XML, a flow that succeeds
// and one that fails, accepted where it was submitted and routed to its
// shard's owner, sync and async.
func TestSyncReplyMatchesResponse(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	registerBoom(peerA.Engine())
	registerBoom(peerB.Engine())
	c := dial(t, peerA.Addr())
	for _, bin := range []bool{true, false} {
		for _, owner := range []*Peer{peerA, peerB} {
			name, _ := flowOwnedBy(t, owner, "user")
			for _, fail := range []bool{false, true} {
				for _, async := range []bool{false, true} {
					label := fmt.Sprintf("binary=%v owner=%s fail=%v async=%v", bin, owner.Name, fail, async)
					flow := noopFlow(name)
					if fail {
						flow = failFlow(name)
					}
					req := dgl.NewRequest("user", "", flow)
					req.Async = async
					fr, err := c.roundTrip(context.Background(), KindDGL, encoded(t, req, bin))
					if err != nil {
						t.Fatal(err)
					}
					got := append([]byte(nil), fr.payload...)
					fr.release()
					resp, err := parseResponsePayload(got)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					id := ""
					switch {
					case resp.Ack != nil:
						id = resp.Ack.ID
						ex, _ := owner.Engine().Execution(id)
						if ex == nil || (ex.Wait() != nil) != fail {
							t.Fatalf("%s: the async flow %s did not end as it should", label, id)
						}
					case resp.Status != nil:
						id, _, _ = strings.Cut(resp.Status.ID, "/")
					default:
						t.Fatalf("%s: reply %q carries neither an ack nor a status", label, got)
					}
					if !strings.HasPrefix(id, owner.Name+":") {
						t.Fatalf("%s: ran as %s", label, id)
					}
					if want := referenceReply(t, owner.Engine(), async, id, bin); !bytes.Equal(got, want) {
						t.Errorf("%s: the reply differs from the Response's encoding\n got %q\nwant %q", label, got, want)
					}
				}
			}
			// Refused before it ran: the reply is the refusal alone.
			req := dgl.NewRequest("user", "", dgl.NewFlow(name).Step("s", dgl.Op("no-such-op", nil)).Flow())
			fr, err := c.roundTrip(context.Background(), KindDGL, encoded(t, req, bin))
			if err != nil {
				t.Fatal(err)
			}
			got := append([]byte(nil), fr.payload...)
			fr.release()
			id, refusal := owner.Engine().SubmitTo(req, nopSink{})
			if id != "" || refusal == nil {
				t.Fatalf("binary=%v owner=%s: a flow of an unknown operation was not refused", bin, owner.Name)
			}
			var want []byte
			if bin {
				enc := codec.GetEncoder()
				codec.AppendResponse(enc, &dgl.Response{Error: dgferr.Encode(refusal)})
				want = append(want, enc.Bytes()...)
				codec.PutEncoder(enc)
			} else if want, err = dgl.AppendXML(nil, &dgl.Response{Error: dgferr.Encode(refusal)}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("binary=%v owner=%s: the refusal differs from the Response's encoding\n got %q\nwant %q", bin, owner.Name, got, want)
			}
		}
	}
}

// nopSink takes a reply's body and keeps nothing of it.
type nopSink struct{}

func (nopSink) Open(dgl.StatusNode) {}
func (nopSink) Close()              {}
func (nopSink) Ack(dgl.Ack)         {}

// TestSyncSubmitReplyAllocs: writing a sync submission's reply costs
// nothing beyond running the flow. A local reply is streamed from the
// status tree — no FlowStatus, no time formatted into a string — so the
// server's whole handling of the frame allocates what decoding the
// request and running it into a sink that keeps nothing allocate. A
// routed reply is the owner's response document, written into the route
// reply in place and relayed from that frame as it came: the accepting
// peer copies it zero times.
func TestSyncSubmitReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	flow := dgl.NewFlow("four").
		Step("s0", dgl.Op(dgl.OpNoop, nil)).Step("s1", dgl.Op(dgl.OpNoop, nil)).
		Step("s2", dgl.Op(dgl.OpNoop, nil)).Step("s3", dgl.Op(dgl.OpNoop, nil)).Flow()
	for _, bin := range []bool{true, false} {
		req := dgl.NewRequest("user", "", flow)
		req.Route = dgl.RouteLocal
		payload := encoded(t, req, bin)
		s, e := peerA.Server(), peerA.Engine()
		rp := new(reply)
		served := testing.AllocsPerRun(200, func() {
			s.handleFrame(context.Background(), KindDGL, payload, rp)
			rp.release()
		})
		run := testing.AllocsPerRun(200, func() {
			req, _, err := s.decodeDoc(payload, "dgl")
			if err != nil {
				t.Fatal(err)
			}
			if id, err := e.SubmitTo(req, nopSink{}); id == "" || err != nil {
				t.Fatalf("submit: %q, %v", id, err)
			}
		})
		t.Logf("binary=%v: a local sync submit costs the server %.1f allocations, running it into a sink %.1f", bin, served, run)
		if served-run > 0.5 {
			t.Errorf("binary=%v: the reply to a local sync submit allocates %.1f times, want none", bin, served-run)
		}
	}

	// Routed: the reply the accepting peer writes lies inside the owner's
	// reply frame.
	name, _ := flowOwnedBy(t, peerB, "user")
	req := dgl.NewRequest("user", "", noopFlow(name))
	rp := new(reply)
	peerA.routeSubmit(req, true, rp)
	got := rp.bytes()
	frame := rp.relay.payload
	if len(got) == 0 || len(frame) == 0 || &got[0] != &frame[len(frame)-len(got)] {
		t.Fatalf("the routed reply (%d bytes) is not the tail of the owner's reply frame (%d bytes)", len(got), len(frame))
	}
	if resp, err := codec.DecodeResponse(got); err != nil || resp.Status == nil || resp.Error != "" ||
		!strings.HasPrefix(resp.Status.ID, "siteB:") {
		t.Fatalf("routed reply: %+v, %v", resp, err)
	}
	rp.release()
}
