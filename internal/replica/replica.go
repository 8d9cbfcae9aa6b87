// Package replica streams a store's lifecycle record log to follower
// peers and rebuilds it there, so a shard owner's flows survive the
// owner's disk (docs/REPLICATION.md).
//
// The package is transport-agnostic: a Sender turns the store's
// replication tap (store.SetTap) into ordered Frames and hands them to
// a Send callback; a Receiver applies Frames into per-source replica
// stores and answers with Acks. The wire layer (internal/wire) carries
// Frames as kind-6 replicate frames and provides the callbacks; tests
// connect Sender to Receiver directly.
//
// Blocks travel as binary record frames (docs/CODEC.md §7), whatever
// the owner's own segment encoding, and the receiver writes each block
// into its replica store as it came (store.AppendFrames): the records
// are encoded once, on the owner, and never decoded into Records or
// encoded again on the way.
package replica

import (
	"fmt"
	"io"
	"sort"

	"datagridflow/internal/codec"
	"datagridflow/internal/store"
)

// Frame ops.
const (
	// OpAppend carries Count records starting at sequence Seq.
	OpAppend = "append"
	// OpSnapshot carries a full live-state snapshot current through
	// sequence Seq; the receiver discards its replica of Source and
	// rebuilds it from the block.
	OpSnapshot = "snapshot"
)

// Frame is one replicate message: a block of lifecycle records (or a
// snapshot) from Source's store, positioned by sequence number.
type Frame struct {
	Op     string `json:"op"`
	Source string `json:"source"`
	// Seq is the sequence number of the first record in an append
	// block, or the sequence the snapshot is current through.
	Seq   uint64 `json:"seq"`
	Count int    `json:"count"`
	// Block holds the records as binary record frames, which the
	// receiver writes as they came.
	Block []byte `json:"block,omitempty"`
}

// Ack is the receiver's reply to one Frame.
type Ack struct {
	OK bool `json:"ok"`
	// AckSeq is the highest contiguous sequence the receiver holds for
	// the frame's source after applying it.
	AckSeq uint64 `json:"ackSeq"`
	// NeedSnapshot reports a sequence gap: the receiver is missing
	// records below Frame.Seq and needs a snapshot to catch up.
	NeedSnapshot bool   `json:"needSnapshot,omitempty"`
	Error        string `json:"error,omitempty"`
}

// AckMode selects whether an owner's quorum commit point waits for
// follower acknowledgements (docs/REPLICATION.md, "Ack modes").
type AckMode string

// Ack modes.
const (
	// ModeAsync replicates in the background; Append never waits.
	ModeAsync AckMode = "async"
	// ModeQuorum waits for a majority of the follower set.
	ModeQuorum AckMode = "quorum"
)

// ParseAckMode validates a -repl-ack flag value.
func ParseAckMode(s string) (AckMode, error) {
	switch AckMode(s) {
	case ModeAsync, ModeQuorum:
		return AckMode(s), nil
	}
	return "", fmt.Errorf("replica: unknown ack mode %q (want quorum or async)", s)
}

// EncodeBlock serializes records as the block an append frame carries:
// binary record frames, the bytes a binary segment holds. The binary
// argument is ignored — a block is always binary, since a follower
// refuses any other — and goes once the benchmark stops passing it
// (ROADMAP item 16).
func EncodeBlock(recs []store.Record, binary bool) ([]byte, error) {
	return encodeBlock(len(recs), func(i int) *store.Record { return &recs[i] }), nil
}

// encodeBlock encodes the n records rec yields, wherever they live — a
// record slice, or the store's tap batch as it was handed over.
func encodeBlock(n int, rec func(int) *store.Record) []byte {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	for i := 0; i < n; i++ {
		codec.AppendRecordFrame(enc, rec(i))
	}
	return append([]byte(nil), enc.Bytes()...)
}

// DecodeBlock decodes a block's records. Unlike segment replay there is
// no crash-torn tail to forgive: a truncated frame means the block was
// damaged in transit and is an error, as is a block that is not binary.
// The receiver decodes none — it writes blocks as they came
// (store.AppendFrames) — and FuzzAppendFramesMatchesAppend holds that
// way to this one.
func DecodeBlock(block []byte) ([]store.Record, error) {
	var view codec.RecordView
	var recs []store.Record
	for off := 0; ; {
		f, err := codec.NextFrame(block, off)
		if err == io.EOF {
			return recs, nil
		}
		if err == nil && f.Type != codec.MsgRecord {
			err = fmt.Errorf("message type %d, want %d", f.Type, codec.MsgRecord)
		}
		if err == nil {
			err = view.DecodeFields(block, f.Body, f.End)
		}
		if err != nil {
			return nil, fmt.Errorf("replica: block frame %d: %w", len(recs)+1, err)
		}
		recs = append(recs, view.Record())
		off = f.End
	}
}

// SelectFollowers picks n followers for self from the live member set:
// the ring successors of self in sorted name order, wrapping, never
// self. Deterministic in the member set, so every peer computes the
// same placement from the same gossip — and because successors differ
// per peer, a follower is always anti-affine to the owner it backs.
func SelectFollowers(self string, members []string, n int) []string {
	if n <= 0 {
		return nil
	}
	uniq := make(map[string]bool, len(members))
	var sorted []string
	for _, m := range members {
		if m == "" || m == self || uniq[m] {
			continue
		}
		uniq[m] = true
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	if len(sorted) == 0 {
		return nil
	}
	// Position self in the sorted ring (it may not be present; its
	// insertion point serves the same purpose) and take successors.
	at := sort.SearchStrings(sorted, self)
	if n > len(sorted) {
		n = len(sorted)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sorted[(at+i)%len(sorted)])
	}
	return out
}
