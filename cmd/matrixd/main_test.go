package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/wire"
)

// runMainEnv, when set to "1", makes the test binary run matrixd's main
// on its own arguments instead of the tests.
const runMainEnv = "MATRIXD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMatrixd runs matrixd with args in a child process and returns its
// combined output and whether it exited non-zero within the timeout.
// A child still running at the timeout is killed and counts as a
// start that was not refused.
func runMatrixd(t *testing.T, timeout time.Duration, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return out.String(), err != nil
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
		return out.String() + "\n(killed: still running at the timeout)", false
	}
}

// unfinishedFlowStore writes a store directory holding one running,
// unparked flow, as a crash would leave it: its exec.start is durable
// and nothing after it is.
func unfinishedFlowStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(dir, store.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	g := dgms.New(dgms.Options{Obs: obs.NewRegistry(), Clock: sim.RealClock{}})
	e := matrix.NewEngine(g)
	e.SetStore(st)
	flow := dgl.NewFlow("long").
		Step("wait", dgl.Op(dgl.OpSleep, map[string]string{"duration": "1h"})).Flow()
	if _, err := e.Start("admin", flow); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(st.Running()); n != 1 {
		t.Fatalf("store holds %d running flows, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRefusedFlagCombinations runs the real main on flag combinations
// it must refuse: each must exit non-zero, and before any side effect
// the refusal would make unsafe — serving, registering with a lookup
// server, or resuming a stored flow.
func TestRefusedFlagCombinations(t *testing.T) {
	if testing.Short() {
		t.Skip("starts matrixd processes")
	}
	const timeout = 5 * time.Second

	t.Run("repl-ack chain without lookup", func(t *testing.T) {
		out, refused := runMatrixd(t, timeout,
			"-addr", "127.0.0.1:0", "-repl-ack", "chain", "-repl-followers", "1")
		if !refused {
			t.Fatalf("matrixd started; want a refusal:\n%s", out)
		}
	})

	t.Run("unknown placement refused before registering", func(t *testing.T) {
		reg := obs.NewRegistry()
		ls := wire.NewLookupServer()
		ls.SetObs(reg)
		lookupAddr, err := ls.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ls.Close()
		out, refused := runMatrixd(t, timeout,
			"-addr", "127.0.0.1:0", "-placement", "nope", "-lookup", lookupAddr, "-name", "a")
		if !refused {
			t.Fatalf("matrixd started; want a refusal:\n%s", out)
		}
		if n := reg.Counter("lookup_requests_total", "op", "register").Value(); n != 0 {
			t.Errorf("matrixd registered %d time(s) before refusing its placement:\n%s", n, out)
		}
	})

	t.Run("tenant-require without tenant-auth refused before recovery", func(t *testing.T) {
		dir := unfinishedFlowStore(t)
		out, refused := runMatrixd(t, timeout,
			"-addr", "127.0.0.1:0", "-tenant-require", "-store-dir", dir)
		if !refused {
			t.Fatalf("matrixd started; want a refusal:\n%s", out)
		}
		if regexp.MustCompile(`[1-9][0-9]* resumed`).MatchString(out) {
			t.Errorf("matrixd resumed a stored flow before refusing its flags:\n%s", out)
		}
	})
}
