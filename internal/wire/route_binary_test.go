package wire

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// statusShape renders a status tree without what legitimately differs
// between two runs of one flow (ids carry the owner prefix, times move).
func statusShape(st *dgl.FlowStatus) string {
	if st == nil {
		return "<nil>"
	}
	var b strings.Builder
	var walk func(s *dgl.FlowStatus, depth int)
	walk = func(s *dgl.FlowStatus, depth int) {
		b.WriteString(strings.Repeat(" ", depth) + s.Name + ":" + s.Kind + ":" + s.State + ":" + s.Error + "\n")
		for i := range s.Children {
			walk(&s.Children[i], depth+1)
		}
	}
	walk(st, 0)
	return b.String()
}

// TestRouteHopEncodings drives one routed submit over a peer link that
// sends its DGL documents binary and one over a link that sends them as
// XML: the kind-5 hop carries a binary envelope and a binary document
// either way. Either way the routed reply has the shape of the reply the
// owner gives when it accepts the same flow directly.
func TestRouteHopEncodings(t *testing.T) {
	cases := []struct {
		name    string
		disable bool
	}{
		{"binary both ends", false},
		{"link opted out of binary", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, lookupAddr := startLookupSharded(t, testShards)
			peerA := startShardedPeer(t, lookupAddr, "siteA")
			peerB := startShardedPeer(t, lookupAddr, "siteB")
			settle(t, peerA, peerB)
			link, err := peerA.Client("siteB")
			if err != nil {
				t.Fatal(err)
			}
			if tc.disable {
				link.DisableBinary()
			}
			if link.Binary() == tc.disable {
				t.Fatalf("peer link Binary() = %v", link.Binary())
			}

			flowName, _ := flowOwnedBy(t, peerB, "user")
			routed0 := routeCount(peerA, "routed")
			cA := dial(t, peerA.Addr())
			routed, err := cA.SubmitFlow("user", execFlow(flowName))
			if err != nil || routed.Error != "" {
				t.Fatalf("routed submit: %+v, %v", routed, err)
			}
			if !strings.HasPrefix(routed.Status.ID, "siteB:") {
				t.Fatalf("routed id = %q, want the owner's prefix", routed.Status.ID)
			}
			if n := routeCount(peerA, "routed") - routed0; n != 1 {
				t.Errorf("shard_routes_total{routed} moved by %d", n)
			}

			cB := dial(t, peerB.Addr())
			local, err := cB.SubmitFlow("user", execFlow(flowName))
			if err != nil || local.Error != "" {
				t.Fatalf("local-accept submit: %+v, %v", local, err)
			}
			if got, want := statusShape(routed.Status), statusShape(local.Status); got != want {
				t.Errorf("routed reply differs from the local-accept reply:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRoutedSubmitAllocs guards the hop's allocation budget: the
// marginal cost of routing a submit — allocations of a routed submit
// minus those of the same submit pinned local, client, both servers and
// the engine included — is 5 for this flow, whose document the
// accepting peer reads only as far as its head and forwards as it came;
// one of the 5 is the goroutine the owner runs a sync run on, so that
// the hop can stop waiting for it. It was 11 while that peer decoded the
// document and encoded it again for the hop, and ≈ 380 with both
// documents XML. Under the race detector, whose instrumentation
// allocates, the hop measures 8 to 10. A routed submit costs 33 in all
// (parent commit 39, before decoders borrowed their symbol tables and
// decoded repeated messages in place).
func TestRoutedSubmitAllocs(t *testing.T) {
	_, lookupAddr := startLookupSharded(t, testShards)
	peerA := startShardedPeer(t, lookupAddr, "siteA")
	peerB := startShardedPeer(t, lookupAddr, "siteB")
	settle(t, peerA, peerB)
	flowName, _ := flowOwnedBy(t, peerB, "user")
	c := dial(t, peerA.Addr())
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	submit := func(opts ...SubmitOption) func() {
		return func() {
			res, err := c.Submit(context.Background(), dgl.NewRequest("user", "", execFlow(flowName)), opts...)
			if err != nil || res.Err() != nil {
				t.Fatalf("submit: %v / %v", err, res.Err())
			}
		}
	}
	routed0 := routeCount(peerA, "routed")
	routed := testing.AllocsPerRun(200, submit())
	if n := routeCount(peerA, "routed") - routed0; n != 201 {
		t.Fatalf("%d of 201 submits took the route hop", n)
	}
	local := testing.AllocsPerRun(200, submit(WithRoute(RouteLocal)))
	t.Logf("allocs per submit: routed %.0f, local %.0f", routed, local)
	budget := 8.0
	if raceEnabled {
		budget = 14
	}
	if !raceEnabled && routed > 33 {
		t.Errorf("a routed submit costs %.0f allocations, budget 33 (parent commit 39)", routed)
	}
	if hop := routed - local; hop > budget {
		t.Errorf("the route hop costs %.0f allocations a submit, budget %.0f: is the accepting peer decoding the document again?", hop, budget)
	}
}

// TestCrossPeerStatusRequiresToken is the regression test for status
// forwarding on a fleet that requires tokens: the forwarded hop carries
// the caller's token, so the owner re-verifies it instead of refusing
// the query — and a tokenless query is still refused.
func TestCrossPeerStatusRequiresToken(t *testing.T) {
	_, lookupAddr := startLookup(t)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	start := func(name string) *Peer {
		p := newPeer(name, newEngine(t, name+":"))
		p.Server().SetTenancy(auth, tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry()), true)
		if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	peerA, peerB := start("matrixA"), start("matrixB")

	cB := dial(t, peerB.Addr())
	cB.SetToken(mint(t, auth, "user"))
	if _, err := cB.Hello(); err != nil {
		t.Fatal(err)
	}
	id, err := submitAsync(cB, "user", noopFlow("owned-by-b"))
	if err != nil {
		t.Fatal(err)
	}
	exec, ok := peerB.Engine().Execution(id)
	if !ok {
		t.Fatalf("execution %s not on its owner", id)
	}
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}

	cA := dial(t, peerA.Addr())
	cA.SetToken(mint(t, auth, "user"))
	if _, err := cA.Hello(); err != nil {
		t.Fatal(err)
	}
	st, err := cA.Status("user", id, false)
	if err != nil || st.State != "succeeded" {
		t.Fatalf("forwarded status under -tenant-require = %+v, %v", st, err)
	}
	anon := dial(t, peerA.Addr())
	if _, err := anon.Status("user", id, false); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatalf("tokenless status = %v, want ErrAuth", err)
	}
}

// routeGolden is the envelope pair pinned under testdata/.
func routeGolden() (Route, RouteResult) {
	req := codec.RequestDoc(dgl.NewRequest("alice", "", noopFlow("job-17")))
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	codec.AppendResponse(enc, &dgl.Response{Status: &dgl.FlowStatus{
		ID: "siteB:dgf-000042", Name: "job-17", Kind: "flow", State: "succeeded"}})
	return Route{User: "alice", Token: "dgt1.YWxpY2U.1790000000.c2ln", Request: req, Shard: 17, Origin: "siteA"},
		RouteResult{OK: true, Owner: "siteB", Response: append([]byte(nil), enc.Bytes()...)}
}

// sameRouteResult compares route replies, an empty response and none
// alike.
func sameRouteResult(a, b RouteResult) bool {
	return a.OK == b.OK && a.Error == b.Error && a.NotOwner == b.NotOwner && a.Owner == b.Owner &&
		bytes.Equal(a.Response, b.Response)
}

// TestGoldenRouteEnvelopes pins the bytes of the kind-5 binary
// envelopes (message types 12 and 13, docs/CODEC.md) and proves the
// decoder reads the committed files back. Regenerate with
// `go test ./internal/wire -run Golden -update` after an
// intentional layout change.
func TestGoldenRouteEnvelopes(t *testing.T) {
	rt, res := routeGolden()
	e1, e2 := codec.GetEncoder(), codec.GetEncoder()
	defer codec.PutEncoder(e1)
	defer codec.PutEncoder(e2)
	appendRoute(e1, &rt)
	appendRouteResult(e2, &res)
	for name, got := range map[string][]byte{"route_v1.bin": e1.Bytes(), "route_result_v1.bin": e2.Bytes()} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: encoded bytes diverge from the pinned layout\n got: %x\nwant: %x", name, got, want)
		}
	}
	data, err := os.ReadFile(filepath.Join("testdata", "route_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeRoute(data); err != nil || got != rt {
		t.Errorf("route_v1.bin decodes to %+v, %v", got, err)
	}
	if data, err = os.ReadFile(filepath.Join("testdata", "route_result_v1.bin")); err != nil {
		t.Fatal(err)
	}
	if got, err := decodeRouteResult(data); err != nil || !sameRouteResult(got, res) {
		t.Errorf("route_result_v1.bin decodes to %+v, %v", got, err)
	}
}

// FuzzRouteEnvelopes is FuzzCodecRoundTrip's twin for the two message
// types whose codecs live here: envelopes built from fuzzed fields
// survive encode/decode exactly — the embedded documents byte-for-byte,
// whatever they hold — and arbitrary bytes never panic either decoder.
func FuzzRouteEnvelopes(f *testing.F) {
	rt, res := routeGolden()
	f.Add(rt.User, rt.Token, rt.Request, rt.Shard, rt.Origin, res.OK, res.Error, res.NotOwner, res.Owner, string(res.Response),
		[]byte{codec.Magic, codec.Version, codec.MsgRoute})
	f.Add("", "", "<dataGridRequest/>", -1, "", false, "dgferr:auth: no", true, "siteC", "",
		[]byte(`{"user":"u","request":"<dataGridRequest/>"}`))
	f.Fuzz(func(t *testing.T, user, token, request string, shard int, origin string,
		ok bool, errText string, notOwner bool, owner, response string, raw []byte) {
		rt := Route{User: user, Token: token, Request: request, Shard: shard, Origin: origin}
		res := RouteResult{OK: ok, Error: errText, NotOwner: notOwner, Owner: owner, Response: []byte(response)}
		e := codec.GetEncoder()
		defer codec.PutEncoder(e)
		appendRoute(e, &rt)
		if got, err := decodeRoute(e.Bytes()); err != nil || got != rt {
			t.Fatalf("route round trip: %+v, %v, want %+v", got, err, rt)
		}
		e.Reset()
		appendRouteResult(e, &res)
		if got, err := decodeRouteResult(e.Bytes()); err != nil || !sameRouteResult(got, res) {
			t.Fatalf("route result round trip: %+v, %v, want %+v", got, err, res)
		}
		_, _ = decodeRoute(raw)
		_, _ = decodeRouteResult(raw)
	})
}
