package main

import (
	"bytes"
	"flag"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
	"datagridflow/internal/wire"
)

// TestMetricsPrintsTheReply: dgfctl metrics writes exactly the bytes the
// server's reply carried, which are its registry's exposition
// (internal/wire's TestMetricsVerbCarriesTheExposition). A proxy between
// the two records what the server sent; the printed text must be in it
// byte for byte.
func TestMetricsPrintsTheReply(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetNow(func() time.Time { return sim.Epoch })
	srv := wire.NewServer(matrix.NewEngine(dgms.New(dgms.Options{Obs: reg})))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var sent bytes.Buffer // what the server sent, once wg is done
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer server.Close()
		go func() {
			_, _ = io.Copy(server, client)
			server.(*net.TCPConn).CloseWrite()
		}()
		_, _ = io.Copy(io.MultiWriter(client, &sent), server)
	}()

	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	os.Args = []string{"dgfctl", "-addr", ln.Addr().String(), "metrics"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	out := captureStdout(t, main)
	wg.Wait()
	at := "# at " + sim.Epoch.Format(time.RFC3339Nano) + "\n"
	if !bytes.HasPrefix(out, []byte(at)) || !bytes.Contains(out, []byte("# TYPE wire_frames_in_total counter\n")) {
		t.Fatalf("dgfctl metrics printed\n%s\nwant the server registry's exposition", out)
	}
	if !bytes.Contains(sent.Bytes(), out) {
		t.Fatalf("dgfctl metrics printed\n%s\nwhich is not the text the server sent", out)
	}
}

// captureStdout runs fn with os.Stdout going to a pipe and returns what
// it wrote.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	return <-read
}
