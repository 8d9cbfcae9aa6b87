package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRestoreLengthsUndoesAppendsAndNewFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seg-00000001.log", "sealed")
	write("seg-00000002.log", "active")
	recorded, err := recordLengths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) != 2 || recorded["seg-00000002.log"] != 6 {
		t.Fatalf("recorded %v", recorded)
	}

	write("seg-00000002.log", "active+appended records")
	write("seg-00000003.log", "rotated")
	if err := restoreLengths(dir, recorded); err != nil {
		t.Fatal(err)
	}
	now, err := recordLengths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != 2 || now["seg-00000001.log"] != 6 || now["seg-00000002.log"] != 6 {
		t.Errorf("after restore: %v, want the recorded %v", now, recorded)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "seg-00000002.log")); string(got) != "active" {
		t.Errorf("restored content %q, want the recorded prefix", got)
	}
}
