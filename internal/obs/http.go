package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves a registry over HTTP:
//
//	GET /metrics        the registry's Exposition (Prometheus text 0.0.4)
//	GET /trace          the buffered trace events, one logfmt line each,
//	                    oldest first
//	GET /debug/pprof/*  the standard net/http/pprof endpoints
//
// This is the -metrics-addr surface of matrixd and lookupd.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(r.Exposition())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		var b []byte
		for _, ev := range r.Trace().Events() {
			b = appendEvent(b, &ev)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(b)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("datagridflow observability\n\n/metrics\n/trace\n/debug/pprof/\n"))
	})
	return mux
}

// Serve binds addr (":0" for ephemeral) and serves Handler(r) on a
// background goroutine. It returns the server (Close to stop) and the
// bound address.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
