package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"datagridflow/internal/dgl"
)

// benchPayload is a representative DGL request document (~½ KiB).
var benchPayload = func() []byte {
	req := dgl.NewAsyncRequest("user", "", dgl.NewFlow("bench").
		Step("a", dgl.Op(dgl.OpNoop, map[string]string{"k1": "v1", "k2": "v2"})).
		Step("b", dgl.Op(dgl.OpNoop, nil)).
		Step("c", dgl.Op(dgl.OpNoop, nil)).Flow())
	data, err := dgl.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}()

// discardConn is a connection whose writes go nowhere and whose reads
// come from r: the frame benchmarks' other end.
type discardConn struct {
	net.Conn
	r io.Reader
}

func (c discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (c discardConn) Read(p []byte) (int, error)  { return c.r.Read(p) }

func benchFrameEncode(b *testing.B, mux bool) {
	w := &frameWriter{conn: discardConn{}}
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.write(KindDGL, uint64(i), mux, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFrameDecode(b *testing.B, mux bool) {
	var one bytes.Buffer
	if mux {
		_ = WriteMuxFrame(&one, KindDGL, 7, benchPayload)
	} else {
		_ = WriteFrame(&one, KindDGL, benchPayload)
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	r := bytes.NewReader(nil)
	fc := newFrameConn(discardConn{r: r}, nil)
	for i := 0; i < b.N; i++ {
		r.Reset(one.Bytes())
		fc.r.br.Reset(r)
		fr, err := fc.r.next(mux)
		if err != nil {
			b.Fatal(err)
		}
		fr.release()
	}
}

func BenchmarkFrameEncode(b *testing.B)    { benchFrameEncode(b, false) }
func BenchmarkFrameDecode(b *testing.B)    { benchFrameDecode(b, false) }
func BenchmarkMuxFrameEncode(b *testing.B) { benchFrameEncode(b, true) }
func BenchmarkMuxFrameDecode(b *testing.B) { benchFrameDecode(b, true) }

// BenchmarkSerialRoundTrip measures one-at-a-time request/response over
// a live TCP connection with the pre-1.2 serial framing.
func BenchmarkSerialRoundTrip(b *testing.B) {
	e := newEngine(b, "")
	_, addr := startServer(b, e)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	flow := noopFlow("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitAsync("user", flow); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Prune(0)
}

// BenchmarkPipelinedRoundTrip measures the same request mix over a
// multiplexed session with 16 concurrent submitters sharing one
// connection — the pipelining win the 1.2 protocol exists for.
func BenchmarkPipelinedRoundTrip(b *testing.B) {
	e := newEngine(b, "")
	_, addr := startServer(b, e)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		b.Fatal(err)
	}
	if !c.Muxed() {
		b.Fatal("session not muxed")
	}
	const workers = 16
	flow := noopFlow("bench")
	b.ResetTimer()
	var wg sync.WaitGroup
	iters := make(chan struct{}, b.N)
	for i := 0; i < b.N; i++ {
		iters <- struct{}{}
	}
	close(iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				if _, err := c.SubmitAsyncContext(context.Background(), "user", flow); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	e.Prune(0)
}

// BenchmarkBatchRoundTrip measures throughput when flows travel 32 to a
// frame.
func BenchmarkBatchRoundTrip(b *testing.B) {
	e := newEngine(b, "")
	_, addr := startServer(b, e)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		b.Fatal(err)
	}
	const batch = 32
	reqs := make([]*dgl.Request, batch)
	for i := range reqs {
		reqs[i] = dgl.NewAsyncRequest("user", "", noopFlow(fmt.Sprintf("b%d", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if _, err := c.SubmitBatch(context.Background(), "user", reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Prune(0)
}
