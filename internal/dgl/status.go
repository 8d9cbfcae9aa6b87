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
	return t.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
}

// String renders the time as Append does.
func (t StatusTime) String() string {
	if t.Text != "" || t.Time.IsZero() {
		return t.Text
	}
	return t.Time.UTC().Format(time.RFC3339Nano)
}

// StatusNode is one node of a status tree without its children: the
// fields of a FlowStatus, times not yet rendered.
type StatusNode struct {
	ID, Name, Kind, State string
	Started, Finished     StatusTime
	Delegated, Error      string
}

// StatusSink consumes a status tree in document order: Open starts a
// node, the Open/Close pairs of its children follow, Close ends it.
// A sink keeps nothing of a node beyond the call.
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

// StatusBuilder is the sink that builds a FlowStatus. The zero value is
// ready; Status returns the tree once its root has closed.
type StatusBuilder struct {
	root FlowStatus
	open []*FlowStatus // the path from the root to the node being filled
	path [8]*FlowStatus
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
		ID: n.ID, Name: n.Name, Kind: n.Kind, State: n.State,
		Started: n.Started.String(), Finished: n.Finished.String(),
		Delegated: n.Delegated, Error: n.Error,
	}
	b.open = append(b.open, st)
}

// Close implements StatusSink.
func (b *StatusBuilder) Close() { b.open = b.open[:len(b.open)-1] }

// Status returns the tree built so far.
func (b *StatusBuilder) Status() FlowStatus { return b.root }
