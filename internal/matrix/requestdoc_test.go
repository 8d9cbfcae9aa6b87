package matrix

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/replica"
	"datagridflow/internal/store"
)

// Stored request documents are binary (codec.RequestDoc); a record may
// still carry an XML one (a text client's document, a store written
// before requests went binary). These tests pin that every reader of a
// stored request takes both and that a binary request crosses a
// replica byte for byte.

// countingOps registers non-blocking "work" and "gate" ops that count
// their runs per "i" parameter.
func countingOps(e *Engine) func(op, i string) int {
	var mu sync.Mutex
	runs := map[string]int{}
	for _, op := range []string{"work", "gate"} {
		op := op
		e.RegisterOp(op, func(c *OpContext) error {
			mu.Lock()
			runs[op+c.ParamOr("i", "")]++
			mu.Unlock()
			return nil
		})
	}
	return func(op, i string) int {
		mu.Lock()
		defer mu.Unlock()
		return runs[op+i]
	}
}

// copyFixtureStore copies testdata/store_xml_requests — a binary store
// written by the commit before stored requests went binary: one ended
// flow, one passivated at s2 of 4 ("work" steps), one crash-abandoned
// inside s1 of 3 ("gate" steps), every request an XML document.
func copyFixtureStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	const seg = "seg-00000001.log"
	data, err := os.ReadFile(filepath.Join("testdata", "store_xml_requests", seg))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestXMLRequestStoreUpgrades opens the checked-in directory as it is
// and after a Compact: either way RecoverFromStore resumes exactly the
// crash-abandoned flow past its completed step and ResurrectFor wakes
// the passivated one, and the compaction keeps every stored request as
// it was.
func TestXMLRequestStoreUpgrades(t *testing.T) {
	for _, compactFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("compactFirst=%v", compactFirst), func(t *testing.T) {
			dir := copyFixtureStore(t)
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatalf("open a directory holding XML requests: %v", err)
			}
			live := st.Live()
			if len(live) != 2 || st.Stats().Passivated != 1 {
				t.Fatalf("fixture replays to %d live, %d passivated; want 2 and 1", len(live), st.Stats().Passivated)
			}
			for _, ent := range live {
				if codec.IsBinary(ent.Request) {
					t.Fatalf("fixture entry %s already holds a binary request", ent.ID)
				}
			}
			if compactFirst {
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = store.Open(dir, store.Options{}); err != nil {
					t.Fatal(err)
				}
				for i, ent := range st.Live() {
					if ent.Request != live[i].Request {
						t.Errorf("entry %s: compaction changed the request", ent.ID)
					}
				}
			}
			defer st.Close()

			e := newTestEngine(t)
			runs := countingOps(e)
			e.SetStore(st)
			recovered, err := e.RecoverFromStore()
			if err != nil {
				t.Fatal(err)
			}
			if len(recovered) != 1 || recovered[0].Status(false).Name != "abandoned-job" {
				t.Fatalf("recovered %d executions, want the one crash-abandoned flow", len(recovered))
			}
			if err := recovered[0].Wait(); err != nil {
				t.Fatal(err)
			}
			if runs("gate", "0") != 0 || runs("gate", "1") != 1 || runs("gate", "2") != 1 {
				t.Errorf("resumed flow ran s0 %d, s1 %d, s2 %d times; want 0, 1, 1",
					runs("gate", "0"), runs("gate", "1"), runs("gate", "2"))
			}
			var parked string
			for _, ent := range live {
				if ent.Passivated {
					parked = ent.ID
				}
			}
			ex, err := e.ResurrectFor(parked, "status")
			if err != nil {
				t.Fatalf("resurrect %s: %v", parked, err)
			}
			if err := ex.Wait(); err != nil {
				t.Fatal(err)
			}
			if runs("work", "1") != 0 || runs("work", "2") != 1 || runs("work", "3") != 1 {
				t.Errorf("resurrected flow ran s1 %d, s2 %d, s3 %d times; want 0, 1, 1",
					runs("work", "1"), runs("work", "2"), runs("work", "3"))
			}
			if n := len(st.Live()); n != 0 {
				t.Errorf("%d executions still live after both finished", n)
			}
		})
	}
}

// TestAdoptBinaryRequestFromJSONReplica replicates a live flow into a
// follower configured for a JSONL replica store (a setting it ignores:
// the replica is the owner's binary frames as they came): the binary
// request must come out of the replica byte-for-byte, and AdoptEntries
// must resume the flow from it.
func TestAdoptBinaryRequestFromJSONReplica(t *testing.T) {
	recv, err := replica.NewReceiver(replica.ReceiverConfig{Dir: t.TempDir(), Binary: false})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	owner := newTestEngine(t)
	ost, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ost.Close()
	ost.SetTap(func(batch []store.TapRecord) func() {
		recs := make([]store.Record, len(batch))
		for i := range batch {
			recs[i] = batch[i].Rec
		}
		block, err := replica.EncodeBlock(recs, true)
		if err != nil {
			t.Error(err)
			return nil
		}
		if ack := recv.Apply(replica.Frame{Op: replica.OpAppend, Source: "peerA",
			Seq: batch[0].Seq, Count: len(recs), Block: block}); !ack.OK {
			t.Errorf("replica apply: %+v", ack)
		}
		return nil
	})
	owner.SetStore(ost)
	b := registerBlockingOp(owner, "work", "2")
	ex := startFlow(t, owner, workFlow("long-job", 4))
	<-b.reached
	// The owner "dies" inside s2, later than the linger after s1 ended:
	// s0 and s1 are durable and replicated as done. (A death inside the
	// linger would re-run them on the heir — docs/STORE.md, "Durability".)
	if err := ost.Flush(); err != nil {
		t.Fatal(err)
	}
	want, ok := ost.Entry(ex.ID)
	if !ok || !codec.IsBinary(want.Request) {
		t.Fatalf("owner entry = %+v, want a binary request", want)
	}

	entries, err := recv.Promote("peerA")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Request != want.Request {
		t.Fatalf("the replica returned %d entries; request intact: %v",
			len(entries), len(entries) == 1 && entries[0].Request == want.Request)
	}
	heir := newTestEngine(t)
	hb := registerBlockingOp(heir, "work", "3")
	heirDir := t.TempDir()
	hst, err := store.Open(heirDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hst.Close()
	heir.SetStore(hst)
	adopted := heir.AdoptEntries(entries, "peerA")
	if len(adopted) != 1 || adopted[0].Flow != "long-job" {
		t.Fatalf("adopted = %+v", adopted)
	}
	got, ok := heir.Execution(ex.ID)
	if !ok {
		t.Fatal("adopted execution not resident")
	}
	// The request the heir re-persisted must read back intact from the
	// bytes on disk. Read while the flow is still live — parked inside s3 —
	// because an ended entry keeps no request; a copy of the directory
	// stands in for a reopen.
	<-hb.reached
	dir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(heirDir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("heir store segments: %v, %v", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if ent, ok := reopened.Entry(ex.ID); !ok || ent.Request != want.Request {
		t.Errorf("request re-read from the heir's store differs (found %v)", ok)
	}
	close(hb.release)
	if err := got.Wait(); err != nil {
		t.Fatal(err)
	}
	if hb.count("1") != 0 || hb.count("2") != 1 || hb.count("3") != 1 {
		t.Errorf("adopted flow ran s1 %d, s2 %d, s3 %d times; want 0, 1, 1",
			hb.count("1"), hb.count("2"), hb.count("3"))
	}
	// Let the owner's parked run finish before its store closes.
	ost.SetTap(nil)
	close(b.release)
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptEntryWithoutFlow: a replica entry whose request holds no flow
// — a document no engine wrote, from a peer's disk — is counted as an
// invalid adoption and skipped; it used to panic the heir.
func TestAdoptEntryWithoutFlow(t *testing.T) {
	heir := newTestEngine(t)
	entries := []store.Entry{{ID: "peerA:dgf-000001", Request: codec.RequestDoc(dgl.NewStatusRequest("user", "x", false))}}
	// The test grid shares obs.Default(), so assert on the counter's delta.
	invalid := heir.Obs().Counter("matrix_adoptions_total", "outcome", "invalid")
	before := invalid.Value()
	if adopted := heir.AdoptEntries(entries, "peerA"); len(adopted) != 0 {
		t.Fatalf("adopted %+v", adopted)
	}
	if n := invalid.Value() - before; n != 1 {
		t.Fatalf("matrix_adoptions_total{invalid} = %d, want 1", n)
	}
}
