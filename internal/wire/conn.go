package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"datagridflow/internal/obs"
)

// Connection I/O (docs/WIRE.md, "Connection I/O"). Every connection —
// a client session, a route, delegate or replicate link — is wrapped
// once, where it is accepted or dialled, in a frameConn: a buffered
// frame reader and a coalescing frame writer that both framings go
// through, so the hello upgrade from serial to mux framing hands
// nothing over.

const (
	// readBufSize is the reader's buffer: a header and a typical payload
	// arrive in one read(2), and several small frames in one.
	readBufSize = 4 << 10
	// writeBufKeep is the largest write buffer a connection keeps
	// between flushes; one that a burst grew beyond it is dropped.
	writeBufKeep = 64 << 10
	// largePayload is the size from which a payload is handled on its
	// own: written from where it lies instead of through the write
	// buffer, read into a buffer of its own instead of a pooled one. A
	// replication snapshot or a large batch is not worth a copy to save a
	// syscall, nor worth keeping a buffer of its size around.
	largePayload = 16 << 10
)

// payloadClasses are the sizes of pooled payload buffers, up to
// largePayload.
var payloadClasses = [...]int{1 << 10, 4 << 10, largePayload}

var payloadPools [len(payloadClasses)]sync.Pool

// textBufs holds the buffers XML documents are built in on their way
// to a frame writer: a client's requests, a server's replies.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

// poisonPayloads makes release overwrite a payload buffer before it is
// pooled, so that a test run finds whoever still reads a payload after
// giving it up. Set by tests only, before any connection exists.
var poisonPayloads bool

// frame is one frame read from a connection. The payload is valid until
// release: a handler that keeps any of it beyond that copies it.
type frame struct {
	kind    byte
	id      uint64 // request id; zero under serial framing
	payload []byte
	buf     *[]byte // the pooled buffer payload is a prefix of, if any
}

// takePayload returns an n-byte payload, from the pool when a size
// class holds it.
func takePayload(n int) ([]byte, *[]byte) {
	if n == 0 {
		return nil, nil
	}
	for i, size := range payloadClasses {
		if n <= size {
			buf, _ := payloadPools[i].Get().(*[]byte)
			if buf == nil {
				b := make([]byte, size)
				buf = &b
			}
			return (*buf)[:n], buf
		}
	}
	return make([]byte, n), nil
}

// release gives the payload's buffer back. The frame must not be used
// afterwards.
func (f *frame) release() {
	if f.buf == nil {
		return
	}
	if poisonPayloads {
		b := (*f.buf)[:cap(*f.buf)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	for i, size := range payloadClasses {
		if cap(*f.buf) == size {
			payloadPools[i].Put(f.buf)
			break
		}
	}
	f.buf, f.payload = nil, nil
}

// frameReader reads frames of either framing from a buffered stream.
// One goroutine reads at a time.
type frameReader struct {
	br *bufio.Reader
}

// next reads one frame: the header out of the buffer, the payload into
// a pooled one. MaxFrame is enforced before a payload buffer is taken;
// a stream that ends inside a frame is io.ErrUnexpectedEOF, one that
// ends between frames io.EOF.
func (r *frameReader) next(mux bool) (frame, error) {
	hdrLen := frameHeaderLen
	if mux {
		hdrLen = muxHeaderLen
	}
	hdr, err := r.br.Peek(hdrLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	f := frame{kind: hdr[0]}
	if mux {
		f.id = binary.BigEndian.Uint64(hdr[5:13])
	}
	_, _ = r.br.Discard(hdrLen) // peeked: cannot fail
	f.payload, f.buf = takePayload(int(n))
	if _, err := io.ReadFull(r.br, f.payload); err != nil {
		f.release()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	return f, nil
}

// frameWriter writes frames of either framing through one buffer per
// connection. A writer announces itself before it takes the lock; with
// the lock it appends its frame, and flushes unless another writer is
// already queued behind it — that one, or the last of those behind it,
// flushes for all. A burst of frames is one write(2); a lone frame is
// written at once; no frame waits for a later one or for a timer.
type frameWriter struct {
	conn    net.Conn
	flushes *obs.Counter // wire_flushes_total; nil on the dialling side
	queued  atomic.Int32 // writers announced and not yet holding mu

	mu     sync.Mutex
	buf    []byte
	frames int   // frames in buf
	err    error // the flush error that severed the connection
}

// write queues one frame and returns once it is buffered behind a
// queued writer or written out. A flush error is returned to the writer
// that flushed; when the flush carried other writers' frames, or part
// of it reached the stream, the connection is severed as well, which is
// how every frame of that flush fails and not only the flusher's.
func (w *frameWriter) write(kind byte, id uint64, mux bool, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	w.queued.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	last := w.queued.Add(-1) == 0
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, kind)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(payload)))
	if mux {
		w.buf = binary.BigEndian.AppendUint64(w.buf, id)
	}
	w.frames++
	if len(payload) > largePayload {
		if err := w.flush(); err != nil {
			return err
		}
		if _, err := w.conn.Write(payload); err != nil {
			w.fail(err) // its header is already on the stream
			return err
		}
		return nil
	}
	w.buf = append(w.buf, payload...)
	if !last {
		return nil
	}
	return w.flush()
}

// flush writes the buffer out. Caller holds mu.
func (w *frameWriter) flush() error {
	n, err := w.conn.Write(w.buf)
	frames := w.frames
	w.buf, w.frames = w.buf[:0], 0
	if cap(w.buf) > writeBufKeep {
		w.buf = nil
	}
	if err != nil {
		if n > 0 || frames > 1 {
			w.fail(err)
		}
		return err
	}
	if w.flushes != nil {
		w.flushes.Inc()
	}
	return nil
}

// fail severs the connection: the stream is torn or frames other than
// the caller's are lost, and their owners learn of it from their reads.
func (w *frameWriter) fail(err error) {
	w.err = err
	_ = w.conn.Close()
}

// frameConn is a connection with its frame reader and writer.
type frameConn struct {
	net.Conn
	r frameReader
	w frameWriter
}

// newFrameConn wraps a connection just accepted or dialled. flushes
// counts the writer's flushes; nil counts nothing.
func newFrameConn(conn net.Conn, flushes *obs.Counter) *frameConn {
	fc := &frameConn{Conn: conn}
	fc.r.br = bufio.NewReaderSize(conn, readBufSize)
	fc.w.conn, fc.w.flushes = conn, flushes
	return fc
}
