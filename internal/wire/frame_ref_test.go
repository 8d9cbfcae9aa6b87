package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The frame functions every connection used before frameConn (conn.go):
// one write per header and per payload, one allocation per frame read.
// They stay as the reference the frame reader and writer are held to
// (FuzzFrameReader, TestFrameWriterMatchesReference) and as the plain
// statement of the layout.

// WriteMuxFrame writes one frame: kind, length and a request id that
// correlates a response to its request, letting many requests share a
// connection concurrently.
//
//	offset  size  field
//	0       1     kind
//	1       4     length (big-endian uint32, payload bytes)
//	5       8     request id (big-endian uint64)
//	13      n     payload
func WriteMuxFrame(w io.Writer, kind byte, id uint64, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [13]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[5:13], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMuxFrame reads one frame.
func ReadMuxFrame(r io.Reader) (kind byte, id uint64, payload []byte, err error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	id = binary.BigEndian.Uint64(hdr[5:13])
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[0], id, payload, nil
}
