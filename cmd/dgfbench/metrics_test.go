package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
)

// TestMetricsAreTheExposition: after the experiment tables, dgfbench
// prints exactly the bytes obs.Default().Exposition renders.
func TestMetricsAreTheExposition(t *testing.T) {
	obs.Default().SetNow(func() time.Time { return sim.Epoch })
	defer obs.Default().SetNow(time.Now)
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	os.Args = []string{"dgfbench", "-exp", "E5", "-small"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	out := captureStdout(t, main)
	want := "== engine metrics (docs/METRICS.md) ==\n" + string(obs.Default().Exposition())
	if !strings.HasSuffix(out, want) || !strings.Contains(want, "# TYPE matrix_steps_total counter\n") {
		t.Fatalf("dgfbench printed\n%s\nwant it to end with\n%s", out, want)
	}
}

// captureStdout runs fn with os.Stdout going to a pipe and returns what
// it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	return <-read
}
