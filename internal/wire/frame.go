// Package wire implements the network layer of the DfMS: a framed TCP
// protocol carrying DGL documents between clients and matrix servers,
// plus the peer-to-peer datagridflow network with lookup servers the
// paper describes ("Multiple DfMS servers can form a peer-to-peer
// datagridflow network with one or more lookup servers").
//
// Every connection speaks one protocol version and one framing from
// its first byte: a frame is a 1-byte kind, a 4-byte big-endian length,
// an 8-byte request id and the payload, so any number of requests share
// a connection and are answered in any order.
//
//   - KindDGL carries a dataGridRequest or dataGridResponse document
//     (the request-response model of the paper's Appendix A), binary
//     (internal/codec) or XML, the reply mirroring the request;
//   - every other kind carries a binary envelope: control verbs (hello,
//     pause, resume, cancel, restart, list, metrics, ...) — a pragmatic
//     extension for the long-run process management the paper requires
//     but DGL itself does not encode — batches, and the peer links'
//     route and replicate frames.
//
// The lookup registry speaks the same frames: control verbs only.
//
// The full protocol — frame layout, request/response semantics, control
// verbs, the registry's verbs and peer routing of execution ids — is
// specified in docs/WIRE.md; the metrics the layer emits are documented
// in docs/METRICS.md.
package wire

import (
	"encoding/json"
	"errors"

	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// Frame kinds. A KindDGL payload is a DGL document, binary or XML, told
// apart by its first byte (binary starts with 0xDF, which no XML
// document can); every other kind carries an internal/codec envelope
// (docs/CODEC.md) and a payload that is not one is refused with a typed
// error reply.
const (
	// KindDGL frames carry DGL request/response documents.
	KindDGL byte = 1
	// KindControl frames carry control verbs, hello included.
	KindControl byte = 2
	// KindBatch frames carry N DGL requests in one envelope (one
	// submission round trip for many flows).
	KindBatch byte = 3
	// Kind 4 carried a delegation envelope; retired, and a frame of it
	// is severed like any unknown kind.

	// KindRoute frames carry a routing envelope: one peer hands another
	// a flow to run — a whole submission, to the shard owner the
	// consistent-hash ring names for it (docs/FEDERATION.md, "Sharded
	// ownership"), or a subflow of a flow running on the sender (the
	// federation plane). The receiver is the terminal hop — it executes
	// locally, never re-routes.
	KindRoute byte = 5
	// KindReplicate frames carry a replication envelope
	// (internal/replica.Frame): a shard owner streams blocks of its
	// lifecycle record log — or a catch-up snapshot — to a follower
	// peer, positioned by per-record sequence numbers
	// (docs/REPLICATION.md). The record block inside the envelope is
	// binary record frames, which the follower writes into its replica
	// as they came.
	KindReplicate byte = 6
)

// MaxFrame bounds a frame payload (16 MiB): a defense against corrupt
// length prefixes, far above any real DGL document.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// ProtoVersion is the protocol version. Both ends of a connection offer
// it in the hello exchange and refuse any other with a typed
// dgferr.ErrProtocol: peers of a network run the same build, and there
// is nothing to negotiate (docs/WIRE.md, "One version").
const ProtoVersion = "2.0"

// Control is the envelope of a KindControl frame, to a matrix server or
// to the lookup registry (docs/WIRE.md §2).
type Control struct {
	// Op is "hello", "pause", "resume", "cancel", "restart", "list",
	// "metrics", "store" or "compact" — or, to the registry, "register",
	// "resolve", "list", "heartbeat", "unregister", "claim", "release",
	// "vput" or "vget".
	Op string
	// ID is the execution id the verb applies to ("hello", "list" and
	// "metrics" ignore it).
	ID string
	// Proto is the client's ProtoVersion, for "hello".
	Proto string
	// Token is the tenant bearer token (docs/TENANCY.md). On "hello" it
	// is the credential exchange: the server verifies it, failing the
	// handshake on a forged or expired token. Every other verb carries
	// the session's token too; those resolved per tenant (pause, resume,
	// cancel, restart, vdata) are refused when it does not verify.
	Token string
	// Limit bounds the "tenants" verb's reply rows (0 = server default).
	Limit int
	// Sub selects the "vdata" verb's sub-operation: "stats" (the
	// default), "lookup", "publish" or "invalidate" (docs/VDATA.md).
	Sub string
	// User is the claimed tenant identity for verbs resolved per tenant
	// (pause, resume, cancel, restart, vdata); with an authority attached
	// the token must agree with it (the same re-verification submissions
	// get).
	User string
	// Key is the "vdata" verb's target: a derivation key for lookup, a
	// key or output path for invalidate.
	Key string
	// Name is the peer a registry op names or acts for, Addr its wire
	// address (register, heartbeat).
	Name string
	Addr string
	// Load is the load a heartbeat gossips.
	Load *scheduler.PeerLoad
	// Shards are the shards a claim or release names.
	Shards []int
	// Keys are the derivation keys a vput announces.
	Keys []string
}

// ControlResult is the reply to a control frame.
type ControlResult struct {
	OK bool
	// ID echoes the execution id (the new id for restart).
	ID    string
	Error string
	// Proto is the server's protocol version, returned by "hello".
	Proto string
	// Executions carries the listing for the "list" verb.
	Executions []ExecutionInfo
	// Metrics carries the engine's obs.Snapshot (JSON) for the
	// "metrics" verb.
	Metrics json.RawMessage
	// Store carries the flow-state store summary for the "store" and
	// "compact" verbs.
	Store *StoreInfo
	// Owner carries the shard-ownership resolution for the "owner"
	// verb (docs/WIRE.md §"Control verbs"), and the registry's answer
	// to "resolve" and to a "vget" that found a live holder (Peer, Addr).
	Owner *OwnerInfo
	// Repl carries the replication summary for the "repl" verb
	// (docs/REPLICATION.md).
	Repl *ReplInfo
	// Tenants carries the tenancy summary for the "tenants" verb.
	Tenants *TenantsInfo
	// Vdata carries the virtual-data reply for the "vdata" verb
	// (docs/VDATA.md).
	Vdata *VdataInfo
	// Peers carries the registry's live peers, sorted by name, for
	// "list" and "heartbeat".
	Peers []PeerInfo
	// Owners carries a sharded registry's live shard→holder map for
	// "claim", "release" and "heartbeat".
	Owners map[int]string
}

// PeerInfo is one live peer as the lookup registry knows it — the
// gossip unit heartbeat replies and `dgfctl peers` are built from.
type PeerInfo struct {
	Name string
	Addr string
	// AgeSeconds is how long ago the peer last registered or heartbeat.
	AgeSeconds float64
	// Load is the peer's last self-reported load (zero until its first
	// heartbeat).
	Load scheduler.PeerLoad
}

// VdataInfo is the reply to the "vdata" control verb: the catalog's
// shape for "stats", the resolution for "lookup", the drop count for
// "invalidate" (docs/VDATA.md).
type VdataInfo struct {
	// Enabled reports whether a derivation catalog is attached at all.
	Enabled bool
	// Entries/Tenants/Publishes/Invalidations/Durable mirror
	// vdata.Stats for the "stats" sub-operation.
	Entries       int
	Tenants       int
	Publishes     uint64
	Invalidations uint64
	Durable       bool
	// Found and Entry answer a "lookup": the memoized derivation, tenant
	// permitting.
	Found bool
	Entry *vdata.Entry
	// Removed counts the derivations an "invalidate" dropped.
	Removed int
}

// StoreInfo is the reply to the "store" control verb: the shape of the
// server's flow-state store, for operators (dgfctl store).
type StoreInfo struct {
	// Segments is the number of on-disk segment files.
	Segments int
	// Records counts live records across the segments.
	Records int
	// ReplayRecords is how many records the store replayed when it was
	// last opened — the restart cost.
	ReplayRecords int
	// Live counts executions that are neither ended nor pruned.
	Live int
	// Passivated counts live executions evicted from engine memory.
	Passivated int
	// Resident counts executions currently in engine memory.
	Resident int
	// SnapshotLag is the number of records appended since the last
	// snapshot.
	SnapshotLag int
	// Pending counts records written but not yet covered by a sync
	// (docs/STORE.md "Durability"); no other figure here includes them.
	Pending int
	// Failed carries the sticky write/fsync error that poisoned the
	// store, if any, and how many pending records it discarded — a
	// failed store rejects all further appends.
	Failed string
	// Compaction reports the compaction a "compact" verb just ran
	// (nil for "store").
	Compaction *CompactionInfo
}

// CompactionInfo reports one compaction run.
type CompactionInfo struct {
	SegmentsBefore int
	RecordsBefore  int
	RecordsKept    int
	RecordsDropped int
}

// ExecutionInfo is one row of a "list" reply.
type ExecutionInfo struct {
	ID    string
	Name  string
	State string
	User  string
}

// Route is the envelope of a KindRoute frame (codec.MsgRoute): one
// peer hands another a flow to run, which becomes the receiver's own
// top-level execution, its id carrying the receiver's prefix. A frame
// that names ParentNode is a delegation: a subflow of a flow running on
// Origin, which the receiver runs wherever it lands. Any other is a
// shard placement: the accepting peer hands a whole submission to the
// shard owner the ring names for it, and the receiver verifies it still
// holds the shard's lease. Either way the receiver is the terminal hop:
// it executes locally and never re-routes (loop prevention).
type Route struct {
	// User is the submitting identity the receiver's admission
	// scheduler charges the request to.
	User string
	// Token is the submitting tenant's bearer token, forwarded so the
	// shard-owner hop preserves the authenticated identity
	// (docs/TENANCY.md).
	Token string
	// Request is the complete dataGridRequest document, binary: the
	// client's own as it came, or codec.RequestDoc of one that came as
	// XML. The receiver runs it as User, which the document may leave
	// empty but not contradict. About 0.7 of a sharded fleet's submits
	// take this hop, so it is as hot as the client's own frame.
	Request string
	// Shard is the shard index the routing peer mapped the submission
	// to; the receiver refuses (NotOwner) if it no longer holds its
	// lease — the drain/claim exclusivity check. A delegation has none.
	Shard int
	// Origin names the routing peer, for logs, metrics and provenance.
	Origin string
	// ParentExec and ParentNode locate a delegation's parent node in the
	// origin's execution tree, so the two provenance trails can be
	// joined. Both are empty on a shard placement.
	ParentExec string
	ParentNode string
}

// RouteResult is the reply to a route frame (codec.MsgRouteResult).
type RouteResult struct {
	OK bool
	// Error, with OK false, is the typed (dgferr-encoded) reason the
	// work did not run to an outcome here: refused before an execution
	// existed — an ownership refusal among them — or cancelled because
	// the hop's connection or the server ended. The sender may move such
	// work. The run's own failure is in Response, never here.
	Error string
	// NotOwner reports an ownership refusal: the receiver does not
	// hold the shard's lease (drained or lost between the routing
	// decision and arrival). The sender refreshes its owner map and
	// re-places the flow.
	NotOwner bool
	// Owner is the receiver's current view of the shard's holder, a
	// redirect hint alongside NotOwner.
	Owner string
	// Response is the binary dataGridResponse of the executed
	// submission (ack for async, final status for sync), which the
	// owner writes into the envelope as it makes it. A routing peer
	// relays it to its client from the reply frame, decoding none of
	// it; a delegator decodes it, and its error is the subflow's own
	// outcome, which always propagates.
	Response []byte
}

// OwnerInfo is the reply to the "owner" control verb: where a flow id
// (or routing key) currently lives on the sharded network.
type OwnerInfo struct {
	// ID echoes the resolved id.
	ID string
	// Peer is the owning peer's name; Addr its address when the lookup
	// registry could resolve it.
	Peer string
	Addr string
	// Shard is the id's shard index.
	Shard int
	// Source says how the owner was resolved: "tracked" (this peer
	// recorded the accept), "prefix" (the id's owner prefix resolved
	// through the registry), or "ring" (the shard's current lease
	// holder — the re-placement target when the prefix peer is dead).
	Source string
}

// Replicate is the payload of a KindReplicate frame and
// ReplicateResult its reply — the replication envelope and ack defined
// by internal/replica and specified byte-for-byte in docs/WIRE.md
// §"Replicate frames". The record block inside is encoded once, by the
// sender, and written by the follower as it came.
type (
	Replicate       = replica.Frame
	ReplicateResult = replica.Ack
)

// TenantsInfo is the reply to the "tenants" control verb: the server's
// tenancy posture and its most active tenants (docs/TENANCY.md).
type TenantsInfo struct {
	// Enabled reports whether a tenant registry is attached at all.
	Enabled bool
	// Auth reports whether a token authority is attached (tokens are
	// verified); Require that untokened submissions are rejected.
	Auth    bool
	Require bool
	// Registered counts explicitly registered tenants.
	Registered int
	// Tenants lists the most active tenants (by flows in flight, then
	// store bytes), bounded by the request's Limit.
	Tenants []tenant.Info
}

// ReplInfo is the reply to the "repl" control verb: this peer's
// replication posture — the followers it streams to and the sources it
// stands by for (docs/REPLICATION.md, "Observability").
type ReplInfo struct {
	// Mode is the ack mode ("quorum" or "async").
	Mode string
	// Seq is the local store's replication cursor: the sequence number
	// of its last durable record.
	Seq uint64
	// Followers lists the peers this owner streams to and how far each
	// has acknowledged.
	Followers []ReplFollowerInfo
	// Sources lists the owners this peer holds replicas for.
	Sources []ReplSourceInfo
}

// ReplFollowerInfo is one follower's acknowledged position.
type ReplFollowerInfo struct {
	Peer     string
	AckedSeq uint64
}

// ReplSourceInfo is one replicated source's standby state.
type ReplSourceInfo struct {
	Source string
	// LastSeq is the highest contiguous sequence applied from the
	// source.
	LastSeq uint64
	// Live counts live executions in the replica — what a promotion
	// would adopt.
	Live int
	// Promoted reports the replica was already taken over.
	Promoted bool
}
