package obs

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"datagridflow/internal/sim"
)

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.SetNow(func() time.Time { return sim.Epoch })
	r.Counter("demo_total", "k", "v").Add(3)
	r.StartSpan(sim.Epoch, "flow", "f", "id-1")

	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	if got, want := get("/metrics"), r.Exposition(); !bytes.Equal(got, want) {
		t.Fatalf("/metrics serves\n%s\nwant the registry's exposition\n%s", got, want)
	}
	if got, want := string(get("/trace")), "seq=1 time=2005-08-01T00:00:00Z type=start scope=flow name=f id=id-1\n"; got != want {
		t.Fatalf("/trace serves %q, want %q", got, want)
	}

	get("/debug/pprof/")
	get("/debug/pprof/cmdline")
}
