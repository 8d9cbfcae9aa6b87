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
// Frames travel in the owner's encoding (JSONL or binary frames — the
// same block bytes the owner's segment writer produces); the receiver
// sniffs each block's first byte and re-appends through its own store,
// so a JSON owner can replicate to a binary follower and vice versa.
package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

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
	// Block holds the records in the sender's store encoding — JSONL
	// or binary frames, sniffed by the receiver per block.
	Block []byte `json:"block,omitempty"`
	// Chain lists downstream followers (chain ack mode): the receiver
	// forwards the frame to Chain[0] with Chain[1:] before acking.
	Chain []string `json:"chain,omitempty"`
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

// AckMode selects how many follower acknowledgements an owner append
// waits for (docs/REPLICATION.md, "Ack modes").
type AckMode string

// Ack modes.
const (
	// ModeAsync replicates in the background; Append never waits.
	ModeAsync AckMode = "async"
	// ModeQuorum waits for a majority of the follower set.
	ModeQuorum AckMode = "quorum"
	// ModeChain sends to the first follower only, which forwards down
	// the chain; Append waits for the head's ack.
	ModeChain AckMode = "chain"
)

// ParseAckMode validates a -repl-ack flag value.
func ParseAckMode(s string) (AckMode, error) {
	switch AckMode(s) {
	case ModeAsync, ModeQuorum, ModeChain:
		return AckMode(s), nil
	}
	return "", fmt.Errorf("replica: unknown ack mode %q (want quorum, chain or async)", s)
}

// EncodeBlock serializes records the way the owner's segment writer
// would — newline-terminated JSON or binary record frames — so the
// receiver's per-block sniffing sees exactly the segment formats it
// already knows.
func EncodeBlock(recs []store.Record, binary bool) ([]byte, error) {
	return encodeBlock(len(recs), func(i int) *store.Record { return &recs[i] }, binary)
}

// encodeBlock encodes the n records rec yields, wherever they live — a
// record slice, or the store's tap batch as it was handed over.
func encodeBlock(n int, rec func(int) *store.Record, binary bool) ([]byte, error) {
	if binary {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		for i := 0; i < n; i++ {
			codec.AppendRecordFrame(enc, rec(i))
		}
		return append([]byte(nil), enc.Bytes()...), nil
	}
	var block []byte
	for i := 0; i < n; i++ {
		data, err := json.Marshal(rec(i))
		if err != nil {
			return nil, err
		}
		block = append(block, data...)
		block = append(block, '\n')
	}
	return block, nil
}

// DecodeBlock sniffs a block's encoding from its first byte and decodes
// its records. Unlike segment replay there is no crash-torn tail to
// forgive: a truncated frame or unterminated line means the block was
// damaged in transit and is an error.
func DecodeBlock(block []byte) ([]store.Record, error) {
	if len(block) == 0 {
		return nil, nil
	}
	if block[0] == codec.Magic {
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
	var recs []store.Record
	for n, line := range strings.Split(string(block), "\n") {
		if line == "" {
			continue
		}
		var rec store.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("replica: block line %d: %w", n+1, err)
		}
		recs = append(recs, rec)
	}
	if !bytes.HasSuffix(block, []byte("\n")) {
		return nil, fmt.Errorf("replica: block has unterminated final line")
	}
	return recs, nil
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
