package wire

import (
	"context"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/replica"
	"datagridflow/internal/store"
)

// startReplPeer builds a replicating peer: fresh engine with a store,
// replication enabled before Start, registered with the lookup.
func startReplPeer(t *testing.T, lookupAddr, name string, mode replica.AckMode) *Peer {
	t.Helper()
	e := newEngine(t, name+":")
	attachStore(t, e)
	p := newPeer(name, e)
	if err := p.EnableReplication(ReplicationConfig{
		Followers:  1,
		Mode:       mode,
		Dir:        t.TempDir(),
		AckTimeout: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// waitFollowerCaughtUp polls until the owner's follower set has acked
// its full durable cursor, returning that cursor.
func waitFollowerCaughtUp(t *testing.T, owner *Peer) uint64 {
	t.Helper()
	st := owner.server.Engine().Store()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		seq := st.ReplSeq()
		if seq > 0 {
			for _, f := range owner.replSender.Status() {
				if f.AckedSeq >= seq {
					return seq
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to seq %d: %+v", st.ReplSeq(), owner.replSender.Status())
	return 0
}

// TestReplicationStreamPromoteAdopt is the full wire-level story: owner
// A streams its record log to follower B over kind-6 frames; A dies
// with its disk; B promotes the replica and adopts A's live flow, which
// resumes and completes on B.
func TestReplicationStreamPromoteAdopt(t *testing.T) {
	_, lookupAddr := startLookup(t)
	a := startReplPeer(t, lookupAddr, "peerA", replica.ModeQuorum)
	b := startReplPeer(t, lookupAddr, "peerB", replica.ModeQuorum)
	members := []string{"peerA", "peerB"}
	a.refreshReplication(members)
	b.refreshReplication(members)

	// One finished flow and one live (mid-op) flow on A. B registers the
	// same op so the adopted flow validates and resumes there.
	ea, eb := a.server.Engine(), b.server.Engine()
	reached, releaseA := registerParkOp(ea)
	defer close(releaseA)
	_, releaseB := registerParkOp(eb)
	close(releaseB) // adopted run continues straight through on B
	if resp, err := ea.Submit(dgl.NewRequest("user", "", dgl.NewFlow("quick").
		Step("only", dgl.Op(dgl.OpNoop, nil)).Flow())); err != nil || resp.Error != "" {
		t.Fatalf("sync submit: %v %+v", err, resp)
	}
	execID := startParked(t, ea, reached)
	seq := waitFollowerCaughtUp(t, a)

	// The repl verb reports the stream posture.
	ca, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	info, err := ca.Repl()
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != "quorum" || len(info.Followers) != 1 || info.Followers[0].Peer != "peerB" {
		t.Fatalf("repl info: %+v", info)
	}
	if info.Seq != seq || info.Followers[0].AckedSeq < seq {
		t.Fatalf("repl positions: %+v (owner seq %d)", info, seq)
	}

	// B holds a replica of A.
	infoB, err := func() (*ReplInfo, error) {
		cb, err := Dial(b.Addr())
		if err != nil {
			return nil, err
		}
		defer cb.Close()
		if _, err := cb.Hello(); err != nil {
			return nil, err
		}
		return cb.Repl()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(infoB.Sources) != 1 || infoB.Sources[0].Source != "peerA" ||
		infoB.Sources[0].LastSeq != seq || infoB.Sources[0].Promoted {
		t.Fatalf("follower sources: %+v", infoB.Sources)
	}

	// Kill A without drain; its store never reopens. B sees A gone from
	// the member set and promotes — the live flow resumes on B.
	a.Close()
	b.refreshReplication([]string{"peerB"})
	if got := eb.Obs().Counter("repl_promoted_flows_total", "source", "peerA").Value(); got != 1 {
		t.Fatalf("repl_promoted_flows_total = %d, want 1 (only the live flow adopts)", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := eb.Status(execID, false)
		if err == nil && status.State == "succeeded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted flow %s never completed on survivor: %+v err %v", execID, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The adopted flow keeps its dead owner's prefix; a poll for it is
	// placed here, not forwarded to a peer that no longer exists.
	if owner, err := b.placeStatus(execID); err != nil || owner != nil {
		t.Fatalf("poll for the adopted flow placed on %v, %v; want this peer", owner, err)
	}
	if st, err := dial(t, b.Addr()).Status("user", execID, true); err != nil || st.State != "succeeded" {
		t.Fatalf("status of the adopted flow over the wire: %+v, %v", st, err)
	}
	// Promotion is sticky: another refresh must not double-adopt.
	b.refreshReplication([]string{"peerB"})
	if got := eb.Obs().Counter("repl_promoted_flows_total", "source", "peerA").Value(); got != 1 {
		t.Fatalf("second refresh re-promoted: %d", got)
	}
}

// TestReplicateClientRoundTrip drives kind-6 frames through raw
// clients against a replicating server. The two sessions — one of them
// sending its DGL documents as XML, which leaves envelopes binary — hit
// the same server and advance the same cursor.
func TestReplicateClientRoundTrip(t *testing.T) {
	_, lookupAddr := startLookup(t)
	b := startReplPeer(t, lookupAddr, "peerB", replica.ModeQuorum)
	dial := func(binary bool) *Client {
		c, err := Dial(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if !binary {
			c.DisableBinary()
		}
		if c.Binary() != binary {
			t.Fatalf("binary negotiation: got %v, want %v", c.Binary(), binary)
		}
		return c
	}
	block, err := replica.EncodeBlock([]store.Record{
		{Type: store.TypeExecSnap, ID: "x", Request: "<r/>"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}

	bin := dial(true)
	res, err := bin.Replicate(context.Background(), Replicate{
		Op: replica.OpAppend, Source: "peerX", Seq: 1, Count: 1, Block: block,
	})
	if err != nil || !res.OK || res.AckSeq != 1 {
		t.Fatalf("binary replicate: %v %+v", err, res)
	}
	// A gap travels the binary reply path too.
	res, err = bin.Replicate(context.Background(), Replicate{
		Op: replica.OpAppend, Source: "peerX", Seq: 9, Count: 1, Block: block,
	})
	if err != nil || res.OK || !res.NeedSnapshot {
		t.Fatalf("binary gap ack: %v %+v", err, res)
	}

	// The text session continues the same stream where binary left off.
	txt := dial(false)
	endBlock, err := replica.EncodeBlock([]store.Record{{Type: store.TypeExecEnd, ID: "x"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err = txt.Replicate(context.Background(), Replicate{
		Op: replica.OpAppend, Source: "peerX", Seq: 2, Count: 1, Block: endBlock,
	})
	if err != nil || !res.OK || res.AckSeq != 2 {
		t.Fatalf("replicate from the XML session: %v %+v", err, res)
	}
	// Error replies stay typed.
	if _, err := bin.Replicate(context.Background(), Replicate{
		Op: "bogus", Source: "peerX", Seq: 3,
	}); err == nil {
		t.Fatal("bogus op acked")
	}
}

// TestRestartedOwnerSnapshotsLiveFlowToFollower: a flow live before its
// owner restarts reaches the follower through the new incarnation's
// first frame, a snapshot, and is promoted and finished there once the
// owner dies. Sequence numbers restart at 1 with every owner process,
// so the stream alone would never carry it.
func TestRestartedOwnerSnapshotsLiveFlowToFollower(t *testing.T) {
	_, lookupAddr := startLookup(t)
	storeDir := t.TempDir()
	// startA boots an incarnation of owner A over storeDir, resuming
	// what the store holds, with the park op blocking until release.
	startA := func() (a *Peer, st *store.Store, reached, release chan struct{}) {
		e := newEngine(t, "peerA:")
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		e.SetStore(st)
		reached, release = registerParkOp(e)
		if _, err := e.RecoverFromStore(); err != nil {
			t.Fatal(err)
		}
		a = newPeer("peerA", e)
		if err := a.EnableReplication(ReplicationConfig{
			Followers: 1, Mode: replica.ModeQuorum, Dir: t.TempDir(), AckTimeout: 2 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Start("127.0.0.1:0", lookupAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		return a, st, reached, release
	}

	// The first incarnation parks a flow with no follower to stream
	// to, then crashes: its store takes no further write.
	a1, st1, reached1, release1 := startA()
	defer close(release1)
	execID := startParked(t, a1.server.Engine(), reached1)
	a1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	b := startReplPeer(t, lookupAddr, "peerB", replica.ModeQuorum)
	eb := b.server.Engine()
	_, releaseB := registerParkOp(eb)
	close(releaseB) // the promoted run continues straight through on B
	a2, _, reached2, release2 := startA()
	defer close(release2)
	<-reached2 // the recovered flow is parked again on A
	members := []string{"peerA", "peerB"}
	a2.refreshReplication(members)
	b.refreshReplication(members)
	// A commits its next record; the follower's first frame from this
	// incarnation is the snapshot that carries the live flow.
	if resp, err := a2.server.Engine().Submit(dgl.NewRequest("user", "", dgl.NewFlow("quick").
		Step("only", dgl.Op(dgl.OpNoop, nil)).Flow())); err != nil || resp.Error != "" {
		t.Fatalf("sync submit: %v %+v", err, resp)
	}
	waitFollowerCaughtUp(t, a2)
	if got := eb.Obs().Counter("repl_snapshots_applied_total").Value(); got < 1 {
		t.Fatalf("repl_snapshots_applied_total = %d, want the new incarnation's snapshot", got)
	}
	info, err := dial(t, b.Addr()).Repl()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sources) != 1 || info.Sources[0].Source != "peerA" || info.Sources[0].Live != 1 {
		t.Fatalf("follower sources: %+v, want peerA's one live flow", info.Sources)
	}

	// A dies; B promotes the replica and runs the flow to its end.
	a2.Close()
	b.refreshReplication([]string{"peerB"})
	if got := eb.Obs().Counter("repl_promoted_flows_total", "source", "peerA").Value(); got != 1 {
		t.Fatalf("repl_promoted_flows_total = %d, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := eb.Status(execID, false)
		if err == nil && status.State == "succeeded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("promoted flow %s never completed on B: %+v err %v", execID, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
