package wire

import (
	"context"
	"fmt"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/matrix"
	"datagridflow/internal/replica"
	"datagridflow/internal/store"
)

// The budgets below count every allocation in the process — client,
// servers, engine — per operation (testing.AllocsPerRun reads the
// runtime's malloc counter), so what a frame or a reply costs on the
// far side of a loopback connection is in them.

// finished submits a one-step flow through c and returns its id once
// the owning engine has run it to the end.
func finished(t *testing.T, c *Client, e *matrix.Engine, name string) string {
	t.Helper()
	id, err := submitAsync(c, "user", noopFlow(name))
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := e.Execution(id)
	if !ok {
		t.Fatalf("execution %s is not on the engine expected to own it", id)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	return id
}

// encoded renders a request as the frame payload a client sends.
func encoded(t *testing.T, req *dgl.Request, bin bool) []byte {
	t.Helper()
	if bin {
		return []byte(codec.RequestDoc(req))
	}
	data, err := dgl.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMuxRoundTripAllocs holds the frame path to costing nothing of its
// own: a mux round trip of a control verb with next to no handler —
// "list" on an engine with nothing to list — allocates what handling
// it allocates, the same frame handed to the handler directly, and 6 at
// most in all. Header, payload buffer, dispatch and call slot are
// reused, not made per frame (they were 10 of 14 here).
func TestMuxRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := newEngine(t, "")
	s, addr := startServer(t, e)
	c := dial(t, addr)
	enc := codec.GetEncoder()
	appendControl(enc, &Control{Op: "list"})
	payload := append([]byte(nil), enc.Bytes()...)
	codec.PutEncoder(enc)

	trip := testing.AllocsPerRun(500, func() {
		fr, err := c.roundTrip(context.Background(), KindControl, payload)
		if err != nil {
			t.Fatal(err)
		}
		fr.release()
	})
	rp := new(reply)
	handler := testing.AllocsPerRun(500, func() {
		s.handleFrame(context.Background(), KindControl, payload, rp)
		rp.release()
	})
	t.Logf("round trip %.1f allocations, its handler alone %.1f", trip, handler)
	if trip > 6 {
		t.Errorf("a control round trip allocates %.1f, budget 6", trip)
	}
	if trip > handler {
		t.Errorf("the frame path adds %.1f allocations to a round trip, want none", trip-handler)
	}
}

// TestStatusReplyAllocs holds what a poll costs the server answering it
// — request decoded, reply encoded from the node tree into the pooled
// buffer, both frames — and what a poll forwarded across two peers costs
// in all: client, both servers, the hop, the reply relayed (binary
// session) or transcoded (XML session). Each case has its own budget,
// the count since decoders borrow their symbol tables and read nested
// messages in place; the parent commit's count is in the message.
func TestStatusReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	_, lookupAddr := startLookup(t)
	start := func(name string) *Peer {
		p := NewPeer(name, newEngine(t, name+":"))
		if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	peerA, peerB := start("matrixA"), start("matrixB")
	cA, cB := dial(t, peerA.Addr()), dial(t, peerB.Addr())
	idA := finished(t, cA, peerA.Engine(), "on-a")
	idB := finished(t, cB, peerB.Engine(), "on-b")

	for _, bin := range []bool{true, false} {
		if !bin {
			cA.DisableBinary()
		}
		for _, detail := range []bool{false, true} {
			// budget and parent: {local, forwarded}.
			budget, parent := [2]float64{3, 13}, [2]float64{5, 19}
			switch {
			case bin && detail:
				budget, parent = [2]float64{3, 14}, [2]float64{5, 21}
			case !bin && !detail:
				budget, parent = [2]float64{4, 18}, [2]float64{4, 21}
			case !bin && detail:
				budget, parent = [2]float64{4, 22}, [2]float64{4, 25}
			}
			// The raw round trip sends a ready-made request and drops the
			// reply unparsed: what remains is the server's side.
			payload := encoded(t, dgl.NewStatusRequest("user", idA, detail), bin)
			local := testing.AllocsPerRun(300, func() {
				fr, err := cA.roundTrip(context.Background(), KindDGL, payload)
				if err != nil {
					t.Fatal(err)
				}
				fr.release()
			})
			forwards := peerA.Engine().Obs().Counter("wire_peer_forwards_total", "peer", "matrixB")
			before := forwards.Value()
			forwarded := testing.AllocsPerRun(300, func() {
				st, err := cA.Status("user", idB, detail)
				if err != nil || st.Name != "on-b" || (len(st.Children) == 1) != detail {
					t.Fatalf("forwarded status: %+v, %v", st, err)
				}
			})
			if n := forwards.Value() - before; n != 301 {
				t.Fatalf("%d of 301 polls took the hop", n)
			}
			t.Logf("binary=%v detail=%v: local poll %.1f on the server, forwarded poll %.1f in all", bin, detail, local, forwarded)
			if local > budget[0] {
				t.Errorf("binary=%v detail=%v: a local poll costs the server %.1f allocations, budget %.0f (parent commit %.0f)", bin, detail, local, budget[0], parent[0])
			}
			if forwarded > budget[1] {
				t.Errorf("binary=%v detail=%v: a forwarded poll costs %.1f allocations, budget %.0f (parent commit %.0f)", bin, detail, forwarded, budget[1], parent[1])
			}
		}
	}
}

// TestSubmitOneAllocs: a status poll through the transport core costs 7
// allocations in all (parent commit 11, before the reply's decoder
// borrowed its symbol table and decoded in place), and the options
// surface of Client.Submit costs a single-request call 2 allocations
// over it — one for the options and the request copy together, one for
// the result.
func TestSubmitOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	id := finished(t, c, e, "polled")
	req := dgl.NewStatusRequest("user", id, false)
	token := WithToken("a-token")
	core := testing.AllocsPerRun(300, func() {
		stamped := *req
		stamped.Token = "a-token"
		if _, err := c.submitOne(context.Background(), &stamped); err != nil {
			t.Fatal(err)
		}
	})
	// The core run above pays for its own request copy: Submit's is not
	// extra, only its result is.
	submit := testing.AllocsPerRun(300, func() {
		res, err := c.Submit(context.Background(), req, token)
		if err != nil || res.Response.Status == nil || len(res.Responses) != 1 {
			t.Fatalf("submit: %+v, %v", res, err)
		}
	})
	t.Logf("submitOne %.1f, Submit %.1f", core, submit)
	if core > 7 {
		t.Errorf("submitOne allocates %.1f times, budget 7 (parent commit 11)", core)
	}
	if submit-core > 1 {
		t.Errorf("Client.Submit adds %.1f allocations to submitOne plus its request copy, budget 2 with the copy", submit-core+1)
	}
}

// TestForwardedPollSkipsResurrect: placing a poll for an id this peer
// never held asks the store's index and resurrects nothing. The probe it
// replaces (ResurrectFor under the "promotion" label, on every
// forwarded poll of a replicating peer) built two errors to say "not
// here"; placing the poll now allocates nothing at all.
func TestForwardedPollSkipsResurrect(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	_, lookupAddr := startLookup(t)
	a := startReplPeer(t, lookupAddr, "peerA", replica.ModeQuorum)
	b := startReplPeer(t, lookupAddr, "peerB", replica.ModeQuorum)
	cB := dial(t, b.Addr())
	id := finished(t, cB, b.Engine(), "on-b")
	if _, err := dial(t, a.Addr()).Status("user", id, false); err != nil {
		t.Fatalf("forwarded status: %v", err) // also dials a's pooled client of b
	}
	resurrections := a.Engine().Obs().Counter("store_resurrections_total", "path", "promotion")
	allocs := testing.AllocsPerRun(200, func() {
		owner, err := a.placeStatus(id)
		if err != nil || owner == nil {
			t.Fatalf("an id owned by peerB was placed on %v, %v", owner, err)
		}
	})
	if allocs != 0 || resurrections.Value() != 0 {
		t.Errorf("placing a forwarded poll: %.1f allocations, %d resurrections; want none of either", allocs, resurrections.Value())
	}
	// The probe still finds what is there: a flow of a dead owner parked
	// in this peer's store (an adopted replica entry left parked) is woken
	// under the promotion label and answered here.
	parked := "peerZ:dgf-000007"
	if err := a.Engine().Store().AppendBatch([]store.Record{
		{Type: store.TypeExecStart, ID: parked, Request: codec.RequestDoc(dgl.NewRequest("user", "", noopFlow("adopted")))},
		{Type: store.TypeExecPassivate, ID: parked},
	}); err != nil {
		t.Fatal(err)
	}
	if owner, err := a.placeStatus(parked); err != nil || owner != nil || resurrections.Value() != 1 {
		t.Fatalf("a parked foreign flow was placed on %v, %v with %d promotion resurrections; want here, with 1",
			owner, err, resurrections.Value())
	}
	// A bare id (this peer's own prefix or none) that is nowhere: still
	// answered here — with not-found — and still without a probe.
	allocs = testing.AllocsPerRun(200, func() {
		if owner, err := a.placeStatus("peerA:dgf-999999"); err != nil || owner != nil {
			t.Fatalf("an unknown local id was placed on %v, %v", owner, err)
		}
	})
	if allocs != 0 {
		t.Errorf("placing a poll for an unknown local id: %.1f allocations, want none", allocs)
	}
}

// TestRegistryRoundTripAllocs holds the registry's hot verbs to 6
// allocations each, process-wide: a fleet's pure step that misses asks
// "vget" once and, once it has run, announces with "vput" once. The
// newline-delimited JSON protocol the registry spoke before control
// envelopes cost 8.0 (vget miss), 8.0 (vget hit) and 9.0 (one-key vput).
func TestRegistryRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	_, addr := startLookup(t)
	c := dial(t, addr)
	if err := c.Register("peerA", "127.0.0.1:1111"); err != nil {
		t.Fatal(err)
	}
	held := []string{"k-held"}
	if err := c.AnnounceVdata("peerA", held); err != nil {
		t.Fatal(err)
	}
	for _, trip := range []struct {
		name string
		run  func() error
	}{
		{"vget miss", func() error {
			if name, _, err := c.ResolveVdata("k-absent"); err != nil || name != "" {
				return fmt.Errorf("vget miss: %q, %v", name, err)
			}
			return nil
		}},
		{"vget hit", func() error {
			if name, _, err := c.ResolveVdata("k-held"); err != nil || name != "peerA" {
				return fmt.Errorf("vget hit: %q, %v", name, err)
			}
			return nil
		}},
		{"vput", func() error { return c.AnnounceVdata("peerA", held) }},
	} {
		allocs := testing.AllocsPerRun(300, func() {
			if err := trip.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocations", trip.name, allocs)
		if allocs > 6 {
			t.Errorf("a %s round trip allocates %.1f, budget 6", trip.name, allocs)
		}
	}
}
