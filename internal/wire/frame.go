// Package wire implements the network layer of the DfMS: a framed TCP
// protocol carrying DGL documents between clients and matrix servers,
// plus the peer-to-peer datagridflow network with lookup servers the
// paper describes ("Multiple DfMS servers can form a peer-to-peer
// datagridflow network with one or more lookup servers").
//
// Frames are a 1-byte kind, a 4-byte big-endian length, and the payload:
//
//   - KindDGL carries a dataGridRequest or dataGridResponse XML document
//     (the request-response model of the paper's Appendix A);
//   - KindControl carries a small JSON control verb (pause, resume,
//     cancel, restart, list, metrics) — a pragmatic extension for the
//     long-run process management the paper requires but DGL itself
//     does not encode.
//
// The full protocol — frame layout, request/response semantics, control
// opcodes, the lookup protocol and peer routing of execution ids — is
// specified in docs/WIRE.md; the metrics the layer emits are documented
// in docs/METRICS.md.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"datagridflow/internal/replica"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// Frame kinds.
// Each kind has a legacy text payload (XML for DGL documents, JSON for
// everything else) and, on protocol >= 1.4 sessions, a binary codec
// payload (internal/codec, docs/CODEC.md). The receiver sniffs the
// payload's first byte — binary starts with 0xDF, which no XML or JSON
// document can — and mirrors the request's encoding in its reply.
const (
	// KindDGL frames carry DGL request/response documents.
	KindDGL byte = 1
	// KindControl frames carry control verbs.
	KindControl byte = 2
	// KindBatch frames carry a JSON batch envelope of N DGL requests
	// (one submission round trip for many flows). Batch frames are a
	// protocol-1.2 feature: they only appear on multiplexed sessions.
	KindBatch byte = 3
	// KindDelegate frames carry a JSON delegation envelope: one peer
	// asks another to execute a subflow on its behalf and waits for the
	// final status (the federation plane, docs/FEDERATION.md). A
	// protocol-1.3 feature: clients only send it after a hello exchange
	// in which the server advertised >= 1.3.
	KindDelegate byte = 4
	// KindRoute frames carry a routing envelope: a peer that accepted a
	// flow submission hands the whole request to the shard owner the
	// consistent-hash ring names for it (docs/FEDERATION.md, "Sharded
	// ownership"). The receiver is the terminal hop — it executes
	// locally, never re-routes. Between binary sessions the envelope and
	// the request document inside it are both codec-encoded; JSON
	// carrying XML is the fallback for a session that did not negotiate
	// the codec. A protocol-1.5 feature:
	// clients only send it after a hello exchange in which the server
	// advertised >= 1.5; older peers simply keep local-accept.
	KindRoute byte = 5
	// KindReplicate frames carry a JSON replication envelope
	// (internal/replica.Frame): a shard owner streams blocks of its
	// lifecycle record log — or a catch-up snapshot — to a follower
	// peer, positioned by per-record sequence numbers
	// (docs/REPLICATION.md). The record block inside the envelope stays
	// in the sender's store encoding (JSONL or binary frames) and the
	// receiver sniffs it per block, so mixed-codec peers replicate to
	// each other. A protocol-1.6 feature: senders gate on the hello
	// reply and skip followers that advertised < 1.6, so mixed 1.5/1.6
	// federations interoperate.
	KindReplicate byte = 6
)

// MaxFrame bounds a frame payload (16 MiB): a defense against corrupt
// length prefixes, far above any real DGL document.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// Protocol version, negotiated by the "hello" control verb. Majors must
// match for a session to proceed; minors are informational (additions
// only). Minor 2 adds the multiplexed framing and batch submission: when
// both ends of a hello exchange speak >= 1.2, the session switches to
// mux frames immediately after the hello reply. See docs/WIRE.md,
// "Version negotiation" and "Multiplexed framing".
const (
	ProtoMajor = 1
	ProtoMinor = 8
	// muxMinor is the minimum minor version that speaks mux framing.
	muxMinor = 2
	// delegateMinor is the minimum minor version that accepts
	// KindDelegate frames (federated subflow execution).
	delegateMinor = 3
	// binaryMinor is the minimum minor version that accepts binary
	// (internal/codec) payloads inside every frame kind. Negotiation is
	// per payload, not per session: hello stays JSON in both directions,
	// and after a >= 1.4 hello either end may send binary — the receiver
	// sniffs each payload's first byte and mirrors the encoding in its
	// reply, so 1.3-and-older peers transparently stay on JSON. See
	// docs/CODEC.md and docs/WIRE.md, "Version negotiation".
	binaryMinor = 4
	// routeMinor is the minimum minor version that accepts KindRoute
	// frames (sharded any-peer submission). A pre-1.5 peer never
	// receives one: senders gate on the hello reply and fall back to
	// local accept, so mixed 1.4/1.5 federations interoperate.
	routeMinor = 5
	// replMinor is the minimum minor version that accepts KindReplicate
	// frames (lifecycle-store replication). A pre-1.6 peer never
	// receives one: owners gate on the hello reply and skip that
	// follower (repl_skipped_peers_total), so mixed 1.5/1.6 federations
	// interoperate — the flows just lose a standby until the peer
	// upgrades.
	replMinor = 6
	// tenantMinor is the minimum minor version that understands tenant
	// bearer tokens (docs/TENANCY.md): a token offered during hello and
	// carried on submit/batch/delegate/route payloads, plus the
	// "tenants" control verb. Tokens are additive — a pre-1.7 peer
	// never sees one (senders gate on the hello reply) and a 1.7 server
	// admits untokened traffic under the anonymous tenant unless the
	// operator requires auth, so mixed 1.6/1.7 federations interoperate.
	tenantMinor = 7
	// vdataMinor is the minimum minor version that understands the
	// "vdata" control verb (docs/VDATA.md): fleet-wide lookup, publish
	// and invalidation of memoized derivations, with the bearer token on
	// each frame re-verified per tenant. A pre-1.8 peer never receives
	// one — remote lookups gate on the hello reply and the fleet
	// degrades to local-only memoization against that peer, so mixed
	// 1.7/1.8 federations interoperate.
	vdataMinor = 8
)

// MuxSupported reports whether a peer advertising major.minor can speak
// the multiplexed framing (same major, minor >= 1.2).
func MuxSupported(major, minor int) bool {
	return major == ProtoMajor && minor >= muxMinor
}

// DelegateSupported reports whether a peer advertising major.minor
// accepts delegation frames (same major, minor >= 1.3). Delegation
// rides the mux session, so a delegate-capable peer is mux-capable by
// construction.
func DelegateSupported(major, minor int) bool {
	return major == ProtoMajor && minor >= delegateMinor
}

// BinarySupported reports whether a peer advertising major.minor
// accepts binary codec payloads (same major, minor >= 1.4).
func BinarySupported(major, minor int) bool {
	return major == ProtoMajor && minor >= binaryMinor
}

// RouteSupported reports whether a peer advertising major.minor
// accepts route frames (same major, minor >= 1.5). Routing rides the
// mux session, so a route-capable peer is mux-capable by construction.
func RouteSupported(major, minor int) bool {
	return major == ProtoMajor && minor >= routeMinor
}

// ReplicateSupported reports whether a peer advertising major.minor
// accepts replicate frames (same major, minor >= 1.6). Replication
// rides the mux session, so a replicate-capable peer is mux-capable by
// construction.
func ReplicateSupported(major, minor int) bool {
	return major == ProtoMajor && minor >= replMinor
}

// TenantSupported reports whether a peer advertising major.minor
// understands tenant tokens and the "tenants" verb (same major, minor
// >= 1.7).
func TenantSupported(major, minor int) bool {
	return major == ProtoMajor && minor >= tenantMinor
}

// VdataSupported reports whether a peer advertising major.minor
// understands the "vdata" control verb (same major, minor >= 1.8).
func VdataSupported(major, minor int) bool {
	return major == ProtoMajor && minor >= vdataMinor
}

// ProtoVersion renders a protocol version as "major.minor".
func ProtoVersion(major, minor int) string {
	return fmt.Sprintf("%d.%d", major, minor)
}

// ParseProtoVersion splits a "major.minor" version string.
func ParseProtoVersion(s string) (major, minor int, err error) {
	if _, err := fmt.Sscanf(s, "%d.%d", &major, &minor); err != nil {
		return 0, 0, fmt.Errorf("wire: bad protocol version %q", s)
	}
	return major, minor, nil
}

// Control is the JSON payload of a KindControl frame.
type Control struct {
	// Op is "hello", "pause", "resume", "cancel", "restart", "list",
	// "metrics", "store" or "compact".
	Op string `json:"op"`
	// ID is the execution id the verb applies to ("hello", "list" and
	// "metrics" ignore it).
	ID string `json:"id,omitempty"`
	// Proto is the client's protocol version ("1.1") for "hello".
	Proto string `json:"proto,omitempty"`
	// Token is the tenant bearer token (docs/TENANCY.md). On "hello" it
	// is the credential exchange: a 1.7 server verifies it and echoes
	// the tenant identity, failing the handshake on a forged or expired
	// token. Other verbs may carry it for per-request auth. Ignored by
	// pre-1.7 servers (additive field).
	Token string `json:"token,omitempty"`
	// Limit bounds the "tenants" verb's reply rows (0 = server default).
	Limit int `json:"limit,omitempty"`
	// Sub selects the "vdata" verb's sub-operation: "stats" (the
	// default), "lookup", "publish" or "invalidate" (wire >= 1.8,
	// docs/VDATA.md).
	Sub string `json:"sub,omitempty"`
	// User is the claimed tenant identity for verbs resolved per tenant
	// ("vdata"); with an authority attached the token must agree with it
	// (the same re-verification submissions get).
	User string `json:"user,omitempty"`
	// Key is the "vdata" verb's target: a derivation key for lookup, a
	// key or output path for invalidate.
	Key string `json:"key,omitempty"`
	// Data carries the JSON vdata.Entry of a "vdata" publish.
	Data string `json:"data,omitempty"`
}

// ControlResult is the JSON reply to a control frame.
type ControlResult struct {
	OK bool `json:"ok"`
	// ID echoes the execution id (the new id for restart).
	ID    string `json:"id,omitempty"`
	Error string `json:"error,omitempty"`
	// Proto is the server's protocol version, returned by "hello".
	Proto string `json:"proto,omitempty"`
	// Executions carries the listing for the "list" verb.
	Executions []ExecutionInfo `json:"executions,omitempty"`
	// Metrics carries the engine's obs.Snapshot (JSON) for the
	// "metrics" verb.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Store carries the flow-state store summary for the "store" and
	// "compact" verbs.
	Store *StoreInfo `json:"store,omitempty"`
	// Owner carries the shard-ownership resolution for the "owner"
	// verb (docs/WIRE.md §"Control verbs").
	Owner *OwnerInfo `json:"owner,omitempty"`
	// Repl carries the replication summary for the "repl" verb
	// (docs/REPLICATION.md).
	Repl *ReplInfo `json:"repl,omitempty"`
	// Tenant is the authenticated tenant identity, echoed by "hello"
	// when the client's token verified (docs/TENANCY.md).
	Tenant string `json:"tenant,omitempty"`
	// Tenants carries the tenancy summary for the "tenants" verb.
	Tenants *TenantsInfo `json:"tenants,omitempty"`
	// Vdata carries the virtual-data reply for the "vdata" verb
	// (wire >= 1.8, docs/VDATA.md).
	Vdata *VdataInfo `json:"vdata,omitempty"`
}

// VdataInfo is the reply to the "vdata" control verb: the catalog's
// shape for "stats", the resolution for "lookup", the drop count for
// "invalidate" (docs/VDATA.md).
type VdataInfo struct {
	// Enabled reports whether a derivation catalog is attached at all.
	Enabled bool `json:"enabled"`
	// Entries/Tenants/Publishes/Invalidations/Durable mirror
	// vdata.Stats for the "stats" sub-operation.
	Entries       int    `json:"entries,omitempty"`
	Tenants       int    `json:"tenants,omitempty"`
	Publishes     uint64 `json:"publishes,omitempty"`
	Invalidations uint64 `json:"invalidations,omitempty"`
	Durable       bool   `json:"durable,omitempty"`
	// Found and Entry answer a "lookup": the memoized derivation, tenant
	// permitting.
	Found bool         `json:"found,omitempty"`
	Entry *vdata.Entry `json:"entry,omitempty"`
	// Removed counts the derivations an "invalidate" dropped.
	Removed int `json:"removed,omitempty"`
}

// StoreInfo is the reply to the "store" control verb: the shape of the
// server's flow-state store, for operators (dgfctl store).
type StoreInfo struct {
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// Records counts live records across the segments.
	Records int `json:"records"`
	// ReplayRecords is how many records the store replayed when it was
	// last opened — the restart cost.
	ReplayRecords int `json:"replayRecords"`
	// Live counts executions that are neither ended nor pruned.
	Live int `json:"live"`
	// Passivated counts live executions evicted from engine memory.
	Passivated int `json:"passivated"`
	// Resident counts executions currently in engine memory.
	Resident int `json:"resident"`
	// SnapshotLag is the number of records appended since the last
	// snapshot.
	SnapshotLag int `json:"snapshotLag"`
	// Pending counts records written but not yet covered by a sync
	// (docs/STORE.md "Durability"); no other figure here includes them.
	Pending int `json:"pending"`
	// Failed carries the sticky write/fsync error that poisoned the
	// store, if any, and how many pending records it discarded — a
	// failed store rejects all further appends.
	Failed string `json:"failed,omitempty"`
	// Compaction reports the compaction a "compact" verb just ran
	// (nil for "store").
	Compaction *CompactionInfo `json:"compaction,omitempty"`
}

// CompactionInfo reports one compaction run.
type CompactionInfo struct {
	SegmentsBefore int `json:"segmentsBefore"`
	RecordsBefore  int `json:"recordsBefore"`
	RecordsKept    int `json:"recordsKept"`
	RecordsDropped int `json:"recordsDropped"`
}

// ExecutionInfo is one row of a "list" reply.
type ExecutionInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	User  string `json:"user"`
}

// Batch is the JSON payload of a KindBatch frame: N DGL request
// documents submitted in one round trip. User names the submitting
// identity for admission scheduling; each embedded request still
// carries its own gridUser, which the engine enforces per item.
type Batch struct {
	User string `json:"user"`
	// Token authenticates the submitting tenant (wire >= 1.7); absent
	// means anonymous, rejected only when the server requires auth.
	Token string `json:"token,omitempty"`
	// Requests are XML dataGridRequest documents, one per item.
	Requests []string `json:"requests"`
}

// BatchResult is the JSON reply to a batch frame. Items are answered
// positionally and independently: a malformed or failing item yields a
// response whose <error> element is set, never a dropped batch.
type BatchResult struct {
	OK bool `json:"ok"`
	// Error reports a batch-level failure (unparsable envelope,
	// admission rejection); per-item failures live inside Responses.
	Error string `json:"error,omitempty"`
	// Responses are XML dataGridResponse documents, one per request.
	Responses []string `json:"responses,omitempty"`
}

// Delegate is the JSON payload of a KindDelegate frame: one peer hands
// a subflow to another for execution. The receiving server validates
// and runs the request synchronously (the frame's response carries the
// final status), under its own admission scheduler — a delegation
// occupies one admission slot, like any other flow.
type Delegate struct {
	// User is the identity the delegated flow runs as (and the
	// admission account it is charged to).
	User string `json:"user"`
	// Token is the originating tenant's bearer token, forwarded so the
	// federated hop preserves the authenticated identity (wire >= 1.7,
	// docs/TENANCY.md). The receiving peer re-verifies it against its
	// own authority (shared secret).
	Token string `json:"token,omitempty"`
	// Request is a complete dataGridRequest document carrying the
	// subflow, with the delegating peer's parent-scope variable values
	// already bound into the flow's variable block (late binding
	// resolves on the delegating side; see docs/FEDERATION.md). The
	// sender renders it with Client.EncodeRequest — codec-encoded bytes
	// on a binary session, XML otherwise — and the receiver sniffs it.
	Request string `json:"request"`
	// Origin names the delegating peer, for the remote server's logs
	// and provenance.
	Origin string `json:"origin,omitempty"`
	// ParentExec and ParentNode locate the delegating node in the
	// origin peer's execution tree, so the two provenance trails can be
	// joined.
	ParentExec string `json:"parentExec,omitempty"`
	ParentNode string `json:"parentNode,omitempty"`
}

// DelegateResult is the JSON reply to a delegate frame.
type DelegateResult struct {
	OK bool `json:"ok"`
	// Error is the typed (dgferr-encoded) failure: either a
	// transport/validation problem or the delegated flow's own terminal
	// error. Status may still be set alongside it.
	Error string `json:"error,omitempty"`
	// ID is the remote execution id ("peerB:dgf-000042") — globally
	// resolvable from any peer via status forwarding (docs/WIRE.md §3).
	ID string `json:"id,omitempty"`
	// Status is the final XML <flowStatus> tree of the remote run.
	Status string `json:"status,omitempty"`
}

// Route is the payload of a KindRoute frame — a binary envelope
// (codec.MsgRoute) between binary sessions, JSON otherwise: the
// accepting peer hands a whole flow submission to the shard owner the
// ring names for it. Unlike Delegate (a subtree of a running flow), a routed request
// becomes the receiver's own top-level execution — the receiver *is*
// the owner, and the flow's id carries its prefix. The receiver is
// the terminal hop: it verifies it still holds the shard's lease,
// then executes locally and never re-routes (loop prevention).
type Route struct {
	// User is the submitting identity the receiver's admission
	// scheduler charges the request to.
	User string `json:"user"`
	// Token is the submitting tenant's bearer token, forwarded so the
	// shard-owner hop preserves the authenticated identity (wire >=
	// 1.7, docs/TENANCY.md).
	Token string `json:"token,omitempty"`
	// Request is the complete dataGridRequest document, rendered by the
	// sender with Client.EncodeRequest: codec-encoded bytes on the
	// binary envelope, XML on the JSON one (a JSON string cannot carry
	// the binary form). About 0.7 of a sharded fleet's submits take this
	// hop, so it is as hot as the client's own frame.
	Request string `json:"request"`
	// Shard is the shard index the routing peer mapped the submission
	// to; the receiver refuses (NotOwner) if it no longer holds its
	// lease — the drain/claim exclusivity check.
	Shard int `json:"shard"`
	// Origin names the routing peer, for logs and metrics.
	Origin string `json:"origin,omitempty"`
}

// RouteResult is the reply to a route frame, in the encoding the frame
// arrived in (codec.MsgRouteResult or JSON).
type RouteResult struct {
	OK bool `json:"ok"`
	// Error is the typed (dgferr-encoded) failure — transport-level,
	// ownership refusal, or the flow's own synchronous failure.
	Error string `json:"error,omitempty"`
	// NotOwner reports an ownership refusal: the receiver does not
	// hold the shard's lease (drained or lost between the routing
	// decision and arrival). The sender refreshes its owner map and
	// re-places the flow.
	NotOwner bool `json:"notOwner,omitempty"`
	// Owner is the receiver's current view of the shard's holder, a
	// redirect hint alongside NotOwner.
	Owner string `json:"owner,omitempty"`
	// Response is the dataGridResponse of the executed submission (ack
	// for async, final status for sync), in the encoding Route.Request
	// came in; the sender decodes it by sniffing.
	Response string `json:"response,omitempty"`
}

// OwnerInfo is the reply to the "owner" control verb: where a flow id
// (or routing key) currently lives on the sharded network.
type OwnerInfo struct {
	// ID echoes the resolved id.
	ID string `json:"id"`
	// Peer is the owning peer's name; Addr its address when the lookup
	// registry could resolve it.
	Peer string `json:"peer"`
	Addr string `json:"addr,omitempty"`
	// Shard is the id's shard index.
	Shard int `json:"shard"`
	// Source says how the owner was resolved: "tracked" (this peer
	// recorded the accept), "prefix" (the id's owner prefix resolved
	// through the registry), or "ring" (the shard's current lease
	// holder — the re-placement target when the prefix peer is dead).
	Source string `json:"source"`
}

// Replicate is the payload of a KindReplicate frame and
// ReplicateResult its reply — the replication envelope and ack defined
// by internal/replica and specified byte-for-byte in docs/WIRE.md
// §"Replicate frames". The envelope rides binary when the session
// negotiated it (>= 1.4) and JSON otherwise; the record block inside
// keeps the sender's store encoding either way, never transcoded in
// flight.
type (
	Replicate       = replica.Frame
	ReplicateResult = replica.Ack
)

// TenantsInfo is the reply to the "tenants" control verb: the server's
// tenancy posture and its most active tenants (docs/TENANCY.md).
type TenantsInfo struct {
	// Enabled reports whether a tenant registry is attached at all.
	Enabled bool `json:"enabled"`
	// Auth reports whether a token authority is attached (tokens are
	// verified); Require that untokened submissions are rejected.
	Auth    bool `json:"auth,omitempty"`
	Require bool `json:"require,omitempty"`
	// Registered counts explicitly registered tenants.
	Registered int `json:"registered"`
	// Tenants lists the most active tenants (by flows in flight, then
	// store bytes), bounded by the request's Limit.
	Tenants []tenant.Info `json:"tenants,omitempty"`
}

// ReplInfo is the reply to the "repl" control verb: this peer's
// replication posture — the followers it streams to and the sources it
// stands by for (docs/REPLICATION.md, "Observability").
type ReplInfo struct {
	// Mode is the ack mode ("quorum", "chain" or "async").
	Mode string `json:"mode"`
	// Seq is the local store's replication cursor: the sequence number
	// of its last durable record.
	Seq uint64 `json:"seq"`
	// Followers lists the peers this owner streams to and how far each
	// has acknowledged.
	Followers []ReplFollowerInfo `json:"followers,omitempty"`
	// Sources lists the owners this peer holds replicas for.
	Sources []ReplSourceInfo `json:"sources,omitempty"`
}

// ReplFollowerInfo is one follower's acknowledged position.
type ReplFollowerInfo struct {
	Peer     string `json:"peer"`
	AckedSeq uint64 `json:"ackedSeq"`
}

// ReplSourceInfo is one replicated source's standby state.
type ReplSourceInfo struct {
	Source string `json:"source"`
	// LastSeq is the highest contiguous sequence applied from the
	// source.
	LastSeq uint64 `json:"lastSeq"`
	// Live counts live executions in the replica — what a promotion
	// would adopt.
	Live int `json:"live"`
	// Promoted reports the replica was already taken over.
	Promoted bool `json:"promoted"`
}
