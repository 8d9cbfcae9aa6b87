package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total", "k", "v").Add(3)
	r.StartSpan(time.Now(), "flow", "f", "id-1")

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

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "demo_total" || snap.Counters[0].Value != 3 {
		t.Fatalf("unexpected /metrics counters: %+v", snap.Counters)
	}

	var evs []Event
	if err := json.Unmarshal(get("/trace"), &evs); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	if len(evs) != 1 || evs[0].Scope != "flow" {
		t.Fatalf("unexpected /trace events: %+v", evs)
	}

	get("/debug/pprof/")
	get("/debug/pprof/cmdline")
}
