package matrix

import (
	"os"
	"path/filepath"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
)

// TestJournalBinaryRecovery journals an interrupted flow in the binary
// encoding and recovers it with a fresh engine: the file must actually
// be binary frames, and recovery must skip the steps the journal proves
// done — the same contract TestJournalCrashRecovery pins for JSONL.
func TestJournalBinaryRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "exec.journal")

	e1 := newTestEngine(t)
	ran1 := map[string]int{}
	e1.RegisterOp("work", func(c *OpContext) error {
		ran1[c.ParamOr("i", "")]++
		return nil
	})
	j1, err := OpenJournalOptions(jpath, JournalOptions{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	e1.SetJournal(j1)
	b := dgl.NewFlow("job")
	b.Step("s0", dgl.Op("work", map[string]string{"i": "0"}))
	b.Step("s1", dgl.Op("work", map[string]string{"i": "1"}))
	ex, err := e1.Start("user", b.Flow())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// Append an exec.start with no exec.end — an abandoned run — then
	// "crash" without closing cleanly beyond the group commit.
	b2 := dgl.NewFlow("abandoned")
	b2.Step("s0", dgl.Op("work", map[string]string{"i": "0"}))
	req := dgl.NewAsyncRequest("user", "", b2.Flow())
	reqXML, err := dgl.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.append(journalRecord{Type: journalExecStart, ID: "dgf-dead", Request: string(reqXML)}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !codec.IsBinary(data) {
		t.Fatalf("journal is not binary: % x", data[:3])
	}

	e2 := newTestEngine(t)
	ran2 := 0
	e2.RegisterOp("work", func(c *OpContext) error { ran2++; return nil })
	recovered, err := e2.RecoverFromJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d executions, want 1 (only the abandoned run)", len(recovered))
	}
	if err := recovered[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if ran2 != 1 {
		t.Fatalf("recovered engine ran %d steps, want 1", ran2)
	}
}

// TestJournalStickyEncoding opens an existing JSONL journal with the
// Binary option: the file's encoding wins, appends stay JSONL, and the
// file remains recoverable.
func TestJournalStickyEncoding(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "exec.journal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: journalExecEnd, ID: "dgf-1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalOptions(jpath, JournalOptions{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	if j2.binary {
		t.Fatal("existing JSONL journal reopened as binary")
	}
	if err := j2.append(journalRecord{Type: journalExecEnd, ID: "dgf-2"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if codec.IsBinary(data) || data[0] != '{' {
		t.Fatalf("mixed encodings in journal: % x", data[:3])
	}
	e := newTestEngine(t)
	if _, err := e.RecoverFromJournal(jpath); err != nil {
		t.Fatal(err)
	}
}
