package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/obs"
)

// TestMain runs the whole package with payload poisoning on: every
// pooled payload is overwritten with 0xFF the moment its frame is
// released, so any holder of frame bytes that outlives its handler —
// a batch item, a Route or Delegate request document, a replicate
// block, anything a decoder aliased instead of copied — corrupts what
// it holds and the wire, route, delegate, replication and tenant
// suites around it fail. That they pass is the audit of the ownership
// rule in docs/WIRE.md "Connection I/O".
func TestMain(m *testing.M) {
	poisonPayloads = true
	os.Exit(m.Run())
}

// TestReleasedPayloadIsPoisoned checks the audit's instrument itself: a
// released payload reads 0xFF, and the next frame of its size class gets
// the same buffer back — so a stale alias really would see the damage.
func TestReleasedPayloadIsPoisoned(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := WriteMuxFrame(&stream, KindDGL, uint64(i), bytes.Repeat([]byte{'a' + byte(i)}, 700)); err != nil {
			t.Fatal(err)
		}
	}
	fc := newFrameConn(&scriptConn{r: &stream}, nil)
	first, err := fc.r.next(true)
	if err != nil {
		t.Fatal(err)
	}
	stale := first.payload
	first.release()
	for i, b := range stale {
		if b != 0xFF {
			t.Fatalf("released payload byte %d = %#x, want the 0xFF poison", i, b)
		}
	}
	second, err := fc.r.next(true)
	if err != nil {
		t.Fatal(err)
	}
	defer second.release()
	if !bytes.Equal(second.payload, bytes.Repeat([]byte{'b'}, 700)) {
		t.Fatalf("second frame's payload is damaged: %q", second.payload[:8])
	}
	if &stale[0] != &second.payload[0] {
		t.Skip("the pool handed out another buffer: nothing to see through the stale alias")
	}
}

// scriptConn is a net.Conn over canned input that records what is
// written to it: the "counting net.Conn wrapper" of the flush tests.
type scriptConn struct {
	net.Conn // nil: anything not overridden panics
	r        io.Reader

	mu      sync.Mutex
	writes  int
	written bytes.Buffer
	closed  bool
	// entered and gate, when set, hold a Write between them: the writer
	// signals entered (buffered: it never waits there), then waits for
	// gate to close.
	entered chan struct{}
	gate    chan struct{}
	failAt  int // the Write with this ordinal (1-based) fails; 0 = none
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.entered != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.writes == c.failAt {
		return 0, errors.New("scripted write failure")
	}
	return c.written.Write(p)
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *scriptConn) counts() (writes int, closed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.closed
}

// TestFrameWriterMatchesReference: whatever the batching, the bytes on
// the stream are the bytes WriteFrame and WriteMuxFrame put there.
func TestFrameWriterMatchesReference(t *testing.T) {
	payloads := [][]byte{nil, []byte("<x/>"), bytes.Repeat([]byte{7}, largePayload), bytes.Repeat([]byte{9}, largePayload+1)}
	for _, mux := range []bool{false, true} {
		conn := &scriptConn{}
		w := &frameWriter{conn: conn}
		var want bytes.Buffer
		for i, p := range payloads {
			if err := w.write(KindBatch, uint64(i), mux, p); err != nil {
				t.Fatal(err)
			}
			if mux {
				_ = WriteMuxFrame(&want, KindBatch, uint64(i), p)
			} else {
				_ = WriteFrame(&want, KindBatch, p)
			}
		}
		if !bytes.Equal(conn.written.Bytes(), want.Bytes()) {
			t.Errorf("mux=%v: stream differs from the reference writer's", mux)
		}
		if err := w.write(KindDGL, 0, mux, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("mux=%v: oversized payload = %v, want ErrFrameTooLarge", mux, err)
		}
	}
}

// TestFrameWriterCoalesces is the flush rule as counts: a lone frame is
// one write, made before write returns; 63 frames queued behind a write
// in progress go out in one more, whichever of them comes last — far
// fewer than 64, and with nobody waiting on a timer.
func TestFrameWriterCoalesces(t *testing.T) {
	conn := &scriptConn{}
	reg := obs.NewRegistry()
	w := &frameWriter{conn: conn, flushes: reg.Counter("wire_flushes_total")}
	if err := w.write(KindDGL, 1, true, []byte("alone")); err != nil {
		t.Fatal(err)
	}
	if n, _ := conn.counts(); n != 1 || conn.written.Len() != muxHeaderLen+5 {
		t.Fatalf("a lone frame: %d writes, %d bytes on the stream; want 1 write carrying it whole", n, conn.written.Len())
	}

	const burst = 64
	conn.entered, conn.gate = make(chan struct{}, 8), make(chan struct{})
	var wg sync.WaitGroup
	send := func(id uint64) {
		defer wg.Done()
		if err := w.write(KindDGL, id, true, []byte(fmt.Sprintf("reply-%02d", id))); err != nil {
			t.Error(err)
		}
	}
	wg.Add(burst)
	go send(100)
	<-conn.entered // the first is inside Write, holding the writer
	for id := uint64(101); id < 100+burst; id++ {
		go send(id)
	}
	for w.queued.Load() != burst-1 {
		runtime.Gosched() // until every other writer has announced itself
	}
	close(conn.gate)
	wg.Wait()
	if n, _ := conn.counts(); n != 3 {
		t.Errorf("%d frames behind one write took %d writes, want 1 (3 in all)", burst-1, n-2)
	}
	if got := reg.Counter("wire_flushes_total").Value(); got != 3 {
		t.Errorf("wire_flushes_total = %d, want 3", got)
	}
	seen := map[uint64]bool{}
	r := bytes.NewReader(conn.written.Bytes())
	for {
		_, id, payload, err := ReadMuxFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id >= 100 && (seen[id] || string(payload) != fmt.Sprintf("reply-%02d", id)) {
			t.Errorf("frame %d: %q (seen before: %v)", id, payload, seen[id])
		}
		seen[id] = true
	}
	if len(seen) != burst+1 {
		t.Errorf("%d distinct frames on the stream, want %d", len(seen), burst+1)
	}
}

// TestFlushErrorSevers: a flush that fails with other writers' frames
// in it severs the connection — that is how their owners learn — and
// later writes fail at once; a lone frame that never reached the stream
// fails alone and leaves the connection usable.
func TestFlushErrorSevers(t *testing.T) {
	conn := &scriptConn{failAt: 1}
	w := &frameWriter{conn: conn}
	if err := w.write(KindDGL, 1, true, []byte("x")); err == nil {
		t.Fatal("failed write reported no error")
	}
	if _, closed := conn.counts(); closed {
		t.Fatal("a lone unwritten frame severed the connection")
	}
	if err := w.write(KindDGL, 2, true, []byte("y")); err != nil {
		t.Fatalf("write after a clean failure: %v", err)
	}

	conn = &scriptConn{failAt: 2, entered: make(chan struct{}, 8), gate: make(chan struct{})}
	w = &frameWriter{conn: conn}
	errs := make(chan error, 3)
	go func() { errs <- w.write(KindDGL, 1, true, []byte("a")) }()
	<-conn.entered
	go func() { errs <- w.write(KindDGL, 2, true, []byte("b")) }()
	go func() { errs <- w.write(KindDGL, 3, true, []byte("c")) }()
	for w.queued.Load() != 2 {
		runtime.Gosched()
	}
	close(conn.gate)
	var failed int
	for i := 0; i < 3; i++ {
		if <-errs != nil {
			failed++
		}
	}
	if _, closed := conn.counts(); !closed || failed != 1 {
		t.Fatalf("flush of two frames failed: closed=%v, %d writers saw the error; want the connection severed and the flusher told", closed, failed)
	}
	if err := w.write(KindDGL, 4, true, []byte("d")); err == nil {
		t.Fatal("write on a severed connection succeeded")
	}
}

// chunkReader hands its data out in pieces whose sizes cycle through
// cuts: how a stream arrives when the peer's writes and the network
// split it anywhere.
type chunkReader struct {
	data []byte
	cuts []byte
	i    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.cuts) > 0 {
		n += int(c.cuts[c.i%len(c.cuts)])
		c.i++
	}
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// FuzzFrameReader holds the buffered frame reader to the reference
// ReadFrame/ReadMuxFrame on arbitrary bytes arriving in arbitrary
// pieces: the same frames, then the same kind of end — a clean EOF, a
// torn frame, an oversized length — and never a pooled buffer beyond
// the largest size class.
func FuzzFrameReader(f *testing.F) {
	var ok bytes.Buffer
	_ = WriteMuxFrame(&ok, KindDGL, 7, []byte("<x/>"))
	_ = WriteMuxFrame(&ok, KindControl, 8, nil)
	_ = WriteMuxFrame(&ok, KindBatch, 9, bytes.Repeat([]byte{1}, 5000))
	f.Add(ok.Bytes(), []byte{0}, true)
	f.Add(ok.Bytes(), []byte{12, 0, 3}, true)
	f.Add(ok.Bytes()[:ok.Len()-3], []byte{200}, true)
	f.Add([]byte{1, 0, 0, 0, 4, '<', 'x', '/', '>', 2, 0, 0, 0, 0}, []byte{1, 2}, false)
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0}, []byte{}, false)
	f.Add([]byte{1, 0, 0, 0, 9, 'x'}, []byte{0}, false)
	f.Fuzz(func(t *testing.T, data, cuts []byte, mux bool) {
		if len(data) > 1<<16 {
			return
		}
		class := func(err error) string {
			switch {
			case err == nil:
				return "frame"
			case errors.Is(err, ErrFrameTooLarge):
				return "too large"
			case err == io.EOF, err == io.ErrUnexpectedEOF:
				return "ended"
			}
			return err.Error()
		}
		hdrLen := frameHeaderLen
		if mux {
			hdrLen = muxHeaderLen
		}
		fc := newFrameConn(&scriptConn{r: &chunkReader{data: data, cuts: cuts}}, nil)
		ref := &chunkReader{data: data, cuts: cuts}
		for n, read := 0, 0; ; n++ {
			var wantKind byte
			var wantID uint64
			var want []byte
			var refErr error
			if mux {
				wantKind, wantID, want, refErr = ReadMuxFrame(ref)
			} else {
				wantKind, want, refErr = ReadFrame(ref)
			}
			fr, err := fc.r.next(mux)
			if class(err) != class(refErr) {
				t.Fatalf("frame %d: reader ended with %v, reference with %v", n, err, refErr)
			}
			if class(err) == "ended" && (err == io.EOF) != (read == len(data)) {
				t.Fatalf("frame %d: stream ended %d bytes past the last frame, reported as %v", n, len(data)-read, err)
			}
			if err != nil {
				return
			}
			if fr.kind != wantKind || fr.id != wantID || !bytes.Equal(fr.payload, want) {
				t.Fatalf("frame %d: got kind %d id %d %d bytes, reference kind %d id %d %d bytes",
					n, fr.kind, fr.id, len(fr.payload), wantKind, wantID, len(want))
			}
			if fr.buf != nil && cap(*fr.buf) > largePayload {
				t.Fatalf("frame %d: a %d-byte buffer came from the pool", n, cap(*fr.buf))
			}
			read += hdrLen + len(fr.payload)
			fr.release()
		}
	})
}

// TestAbandonedCallsNeverCrossReplies hammers one mux session with
// polls that are abandoned at arbitrary points — before the reply, as it
// arrives, after — beside polls that run to the end, all through
// recycled call slots. A late reply landing in a recycled slot would
// hand one caller another's answer: every answer that does arrive must
// be for the id that was asked.
func TestAbandonedCallsNeverCrossReplies(t *testing.T) {
	e := newRealClockEngine(t)
	_, addr := startServer(t, e)
	c := dialMux(t, addr)
	const flows = 8
	ids := make([]string, flows)
	for i := range ids {
		id, err := c.SubmitAsync("user", noopFlow(fmt.Sprintf("flow-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ex, _ := e.Execution(id)
		if err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				n := (g + i) % flows
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%2 == 0 {
					// Around one loopback round trip, so abandonment lands on
					// every side of the reply's arrival.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(20+(i*37)%300)*time.Microsecond)
				}
				resp, err := c.submitOne(ctx, dgl.NewStatusRequest("user", ids[n], false))
				cancel()
				if err != nil {
					continue // abandoned
				}
				if want := fmt.Sprintf("flow-%d", n); resp.Status == nil || resp.Status.Name != want {
					t.Errorf("asked after %s, was answered with %+v", want, resp.Status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := c.Status("user", ids[0], false); err != nil {
		t.Fatalf("session unusable after the storm: %v", err)
	}
}
