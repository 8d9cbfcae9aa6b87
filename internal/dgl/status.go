package dgl

import "time"

// A status tree travels between its producers — the engine's live node
// tree, a binary response payload — and its consumers — the binary
// encoder, the XML writer, a FlowStatus — as a stream of nodes, so a
// reply is written from where the status lives without a FlowStatus
// built in between.

// StatusTime is a status timestamp as its producer has it: the
// time.Time of a live node, or the RFC 3339 text a document carried.
// The zero value is a time not reached.
type StatusTime struct {
	Time time.Time
	Text string
}

// Append appends the time as status documents write it: UTC,
// RFC 3339 with nanoseconds.
func (t StatusTime) Append(dst []byte) []byte {
	if t.Text != "" || t.Time.IsZero() {
		return append(dst, t.Text...)
	}
	return appendRFC3339Nano(dst, t.Time.UTC())
}

// String renders the time as Append does.
func (t StatusTime) String() string {
	if t.Text != "" || t.Time.IsZero() {
		return t.Text
	}
	var buf [40]byte
	return string(appendRFC3339Nano(buf[:0], t.Time.UTC()))
}

// appendRFC3339Nano appends t, a UTC time, as its Format with
// time.RFC3339Nano does, in three quarters of the time or less: every
// node of a status reply renders two.
func appendRFC3339Nano(dst []byte, t time.Time) []byte {
	y, mo, d := t.Date()
	if y < 0 || y > 9999 {
		return t.AppendFormat(dst, time.RFC3339Nano)
	}
	h, mi, s := t.Clock()
	dst = append(dst, pairs[2*(y/100)], pairs[2*(y/100)+1], pairs[2*(y%100)], pairs[2*(y%100)+1], '-',
		pairs[2*mo], pairs[2*mo+1], '-', pairs[2*d], pairs[2*d+1], 'T',
		pairs[2*h], pairs[2*h+1], ':', pairs[2*mi], pairs[2*mi+1], ':', pairs[2*s], pairs[2*s+1])
	if ns := t.Nanosecond(); ns != 0 {
		frac := [10]byte{'.'}
		for i := 9; i > 1; i -= 2 {
			q := ns / 100
			frac[i-1], frac[i] = pairs[2*(ns-q*100)], pairs[2*(ns-q*100)+1]
			ns = q
		}
		frac[1] = byte('0' + ns)
		n := len(frac)
		for frac[n-1] == '0' {
			n--
		}
		dst = append(dst, frac[:n]...)
	}
	return append(dst, 'Z')
}

// pairs holds the two digits of every number below 100.
const pairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// StatusNode is one node of a status tree without its children: the
// fields of a FlowStatus, times not yet rendered.
type StatusNode struct {
	ID, Name, Kind, State string
	Started, Finished     StatusTime
	Delegated, Error      string
}

// StatusSink consumes a status tree in document order: Open starts a
// node, the Open/Close pairs of its children follow, Close ends it.
// A node's ID is valid until its Close and no longer: a producer may
// build ids in a buffer it reuses (an ended record keeps each id as a
// suffix of its parent's). A sink that keeps an id past that copies it.
type StatusSink interface {
	Open(n StatusNode)
	Close()
}

// Node returns the status node s is, without its children.
func (s *FlowStatus) Node() StatusNode {
	return StatusNode{
		ID: s.ID, Name: s.Name, Kind: s.Kind, State: s.State,
		Started: StatusTime{Text: s.Started}, Finished: StatusTime{Text: s.Finished},
		Delegated: s.Delegated, Error: s.Error,
	}
}

// WalkStatus streams a FlowStatus tree into sink.
func WalkStatus(s *FlowStatus, sink StatusSink) {
	sink.Open(s.Node())
	for i := range s.Children {
		WalkStatus(&s.Children[i], sink)
	}
	sink.Close()
}

// ReplySink consumes the body of a submission's reply as it is made: an
// acknowledgement, or a status tree. The binary and XML response writers
// write one; StatusBuilder builds one.
type ReplySink interface {
	StatusSink
	Ack(a Ack)
}

// StatusBuilder is the sink that builds a FlowStatus, or the Response a
// reply's body makes. The zero value is ready; Status returns the tree
// once its root has closed.
type StatusBuilder struct {
	root FlowStatus
	open []*FlowStatus // the path from the root to the node being filled
	path [8]*FlowStatus
	ack  *Ack
}

// Ack implements ReplySink.
func (b *StatusBuilder) Ack(a Ack) { b.ack = &a }

// Response returns the Response the reply's body makes: the
// acknowledgement, or the status tree built.
func (b *StatusBuilder) Response() *Response {
	if b.ack != nil {
		return &Response{Ack: b.ack}
	}
	st := b.root
	return &Response{Status: &st}
}

// Open implements StatusSink.
func (b *StatusBuilder) Open(n StatusNode) {
	st := &b.root
	if b.open == nil {
		b.open = b.path[:0]
	} else {
		// The parent's earlier children are closed, so growing its slice
		// moves nothing the path still points into.
		parent := b.open[len(b.open)-1]
		parent.Children = append(parent.Children, FlowStatus{})
		st = &parent.Children[len(parent.Children)-1]
	}
	*st = FlowStatus{
		Name: n.Name, Kind: n.Kind, State: n.State,
		Delegated: n.Delegated, Error: n.Error,
	}
	// The id and both times in one string, cut in three: the id is the
	// sink's to copy.
	var buf [160]byte
	text := append(buf[:0], n.ID...)
	id := len(text)
	text = n.Started.Append(text)
	at := len(text)
	s := string(n.Finished.Append(text))
	st.ID, st.Started, st.Finished = s[:id], s[id:at], s[at:]
	b.open = append(b.open, st)
}

// Close implements StatusSink.
func (b *StatusBuilder) Close() { b.open = b.open[:len(b.open)-1] }

// Status returns the tree built so far.
func (b *StatusBuilder) Status() FlowStatus { return b.root }
