// Package datagridflow is the public API of the Datagridflows
// reproduction: a complete implementation of the system described in
// "Datagridflows: Managing Long-Run Processes on Datagrids" (Jagatheesan
// et al., VLDB DMG Workshop 2005).
//
// The package re-exports the stable surface of the internal packages:
//
//   - Grid construction and data-virtualization operations (the DGMS,
//     an SRB analog): ingest, replicate, migrate, trim, delete, verify,
//     metadata, ACLs, multi-domain resources, namespace events.
//   - The Data Grid Language (DGL): XML documents describing flows with
//     sequential / parallel / while / forEach / switch control patterns,
//     user-defined ECA rules, and status queries; plus a fluent builder.
//   - The matrix engine (DfMS server): executes DGL flows with pause,
//     resume, cancel, restart-with-checkpoints, per-step status ids and
//     full provenance.
//   - Datagrid triggers (event-condition-action over namespace events).
//   - Datagrid ILM: value-driven tiering policies, imploding/exploding
//     star topologies, execution windows.
//   - The grid scheduler/broker: cost-based placement, abstract-to-
//     concrete rewriting (late binding), and a virtual-data catalog.
//   - The wire protocol: networked DfMS servers, clients, and the
//     peer-to-peer datagridflow network with lookup servers.
//
// A minimal end-to-end use:
//
//	grid := datagridflow.NewGrid(datagridflow.GridOptions{})
//	_ = grid.RegisterResource(datagridflow.NewResource("disk1", "sdsc", datagridflow.Disk, 0))
//	_ = grid.CreateCollectionAll(grid.Admin(), "/grid/home")
//	engine := datagridflow.NewEngine(grid)
//	flow := datagridflow.NewFlow("hello").
//		Step("ingest", datagridflow.Op(datagridflow.OpIngest, map[string]string{
//			"path": "/grid/home/a.dat", "size": "1024", "resource": "disk1",
//		})).Flow()
//	exec, _ := engine.Run(grid.Admin(), flow)
//	_ = exec.Wait()
package datagridflow

import (
	"context"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/fault"
	"datagridflow/internal/ilm"
	"datagridflow/internal/infra"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/sim"
	"datagridflow/internal/trigger"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// Grid and storage substrate.
type (
	// Grid is the Data Grid Management System (SRB analog).
	Grid = dgms.Grid
	// GridOptions configure NewGrid.
	GridOptions = dgms.Options
	// Resource is a simulated physical storage system.
	Resource = vfs.Resource
	// StorageClass identifies the kind of storage a resource models.
	StorageClass = vfs.Class
	// Event is a namespace-change notification.
	Event = dgms.Event
	// EventType names a namespace-changing operation.
	EventType = dgms.EventType
	// Clock abstracts simulated vs wall time.
	Clock = sim.Clock
	// VirtualClock is a manually advanced simulation clock.
	VirtualClock = sim.VirtualClock
	// Network models inter-domain links.
	Network = sim.Network
)

// Storage classes.
const (
	Memory     = vfs.Memory
	ParallelFS = vfs.ParallelFS
	Disk       = vfs.Disk
	Archive    = vfs.Archive
)

// Namespace event types (trigger subscriptions).
const (
	EventIngest     = dgms.EventIngest
	EventReplicate  = dgms.EventReplicate
	EventMigrate    = dgms.EventMigrate
	EventTrim       = dgms.EventTrim
	EventDelete     = dgms.EventDelete
	EventCollection = dgms.EventCollection
	EventMetaSet    = dgms.EventMetaSet
	EventMove       = dgms.EventMove
	EventAccess     = dgms.EventAccess
)

// Trigger delivery phases.
const (
	// PhaseBefore fires prior to the operation (veto-capable).
	PhaseBefore = dgms.Before
	// PhaseAfter fires once the operation completed.
	PhaseAfter = dgms.After
)

// NewGrid creates a Data Grid Management System.
func NewGrid(opts GridOptions) *Grid { return dgms.New(opts) }

// NewResource creates a simulated storage resource (capacity 0 =
// unlimited).
func NewResource(name, domain string, class StorageClass, capacity int64) *Resource {
	return vfs.New(name, domain, class, capacity)
}

// NewVirtualClock returns a virtual clock starting at the simulation
// epoch (2005-08-01 UTC).
func NewVirtualClock() *VirtualClock { return sim.NewVirtualClock(sim.Epoch) }

// DGL: documents and builder.
type (
	// Flow is a DGL flow (Figure 1 of the paper).
	Flow = dgl.Flow
	// FlowBuilder assembles flows fluently.
	FlowBuilder = dgl.FlowBuilder
	// Request is a DGL DataGridRequest (Figure 2).
	Request = dgl.Request
	// Response is a DGL DataGridResponse (Figure 4).
	Response = dgl.Response
	// FlowStatus is one node of a status tree.
	FlowStatus = dgl.FlowStatus
	// Operation is an atomic DGL action.
	Operation = dgl.Operation
	// Step is a concrete flow task.
	Step = dgl.Step
	// Rule is a user-defined ECA rule.
	Rule = dgl.Rule
	// NSQuery is a DGL-level datagrid metadata query (forEach iteration).
	NSQuery = dgl.NSQuery
	// QueryCond is one predicate of an NSQuery.
	QueryCond = dgl.QueryCond
)

// Built-in operation types (see dgl package for the full list).
const (
	OpIngest         = dgl.OpIngest
	OpReplicate      = dgl.OpReplicate
	OpMigrate        = dgl.OpMigrate
	OpTrim           = dgl.OpTrim
	OpDelete         = dgl.OpDelete
	OpVerify         = dgl.OpVerify
	OpSetMeta        = dgl.OpSetMeta
	OpMakeCollection = dgl.OpMakeCollection
	OpMove           = dgl.OpMove
	OpRegister       = dgl.OpRegister
	OpCall           = dgl.OpCall
	OpExec           = dgl.OpExec
	OpSetVariable    = dgl.OpSetVariable
	OpSleep          = dgl.OpSleep
	OpNoop           = dgl.OpNoop
)

// Step fault policies (Step.OnError). Under OnErrorRetry the step's
// Retries/Backoff/MaxBackoff attributes govern re-attempts; only
// retryable classes (see Retryable) burn the budget.
const (
	OnErrorAbort    = dgl.OnErrorAbort
	OnErrorContinue = dgl.OnErrorContinue
	OnErrorRetry    = dgl.OnErrorRetry
)

// RenderTree renders a flow as an indented ASCII tree.
func RenderTree(f *Flow) string { return dgl.Tree(f) }

// RenderDot renders a flow as a Graphviz digraph.
func RenderDot(f *Flow) string { return dgl.Dot(f) }

// NewFlow starts building a sequential flow.
func NewFlow(name string) *FlowBuilder { return dgl.NewFlow(name) }

// Op constructs an operation from a type and parameter map.
func Op(typ string, params map[string]string) Operation { return dgl.Op(typ, params) }

// NewRequest wraps a flow in a synchronous DGL request.
func NewRequest(user, vo string, flow Flow) *Request { return dgl.NewRequest(user, vo, flow) }

// MarshalDGL renders a DGL document (Request, Response, Flow) as
// indented XML.
func MarshalDGL(v any) ([]byte, error) { return dgl.Marshal(v) }

// ParseDGLRequest decodes and validates a DataGridRequest document.
func ParseDGLRequest(data []byte) (*Request, error) { return dgl.ParseRequest(data) }

// Engine: the DfMS server core.
type (
	// Engine executes DGL flows (the SRB Matrix analog).
	Engine = matrix.Engine
	// Execution is one tracked run of a flow.
	Execution = matrix.Execution
	// EngineConfig tunes an engine.
	EngineConfig = matrix.Config
	// OpContext is passed to custom operation handlers.
	OpContext = matrix.OpContext
	// OpHandler implements a custom DGL operation.
	OpHandler = matrix.OpHandler
	// Procedure is a server-held stored procedure (named DGL flow).
	Procedure = matrix.Procedure
)

// NewEngine creates a flow engine over a grid.
func NewEngine(g *Grid) *Engine { return matrix.NewEngine(g) }

// NewEngineConfig creates an engine with explicit configuration.
func NewEngineConfig(g *Grid, cfg EngineConfig) *Engine { return matrix.NewEngineConfig(g, cfg) }

// Error taxonomy. Every failure the DGMS, engine and wire layer report
// carries one of these classes; match with errors.Is. The classes
// survive the wire protocol (a server encodes the class, the client
// rebuilds it), so errors.Is(err, datagridflow.ErrRetryExhausted) holds
// whether the engine ran in-process or across the network.
var (
	// ErrNotFound: an unknown path, resource or execution.
	ErrNotFound = dgferr.ErrNotFound
	// ErrExists: the entry (object, collection, replica) already exists.
	ErrExists = dgferr.ErrExists
	// ErrPermission: an ACL denial or a vetoed operation.
	ErrPermission = dgferr.ErrPermission
	// ErrInvalid: a malformed document, plan or argument.
	ErrInvalid = dgferr.ErrInvalid
	// ErrCapacity: a resource is out of space.
	ErrCapacity = dgferr.ErrCapacity
	// ErrCancelled: the execution, context or request was cancelled.
	ErrCancelled = dgferr.ErrCancelled
	// ErrTimeout: a step attempt overran its budget (retryable).
	ErrTimeout = dgferr.ErrTimeout
	// ErrResourceDown: a resource is offline or failing (retryable).
	ErrResourceDown = dgferr.ErrResourceDown
	// ErrRetryExhausted: a step burned its whole retry budget on
	// transient errors.
	ErrRetryExhausted = dgferr.ErrRetryExhausted
	// ErrProtocol: a wire version mismatch (the "hello" handshake).
	ErrProtocol = dgferr.ErrProtocol
	// ErrAuth: a missing, expired or forged tenant token.
	ErrAuth = dgferr.ErrAuth
	// ErrQuota: a tenant resource bound exceeded (flows in flight,
	// store bytes, delegation slots, submit rate).
	ErrQuota = dgferr.ErrQuota
)

// Retryable reports whether the error is transient under the taxonomy:
// resource-down and timeout classes retry; permission, validation and
// exhaustion failures do not; unclassified errors default to retryable.
func Retryable(err error) bool { return dgferr.Retryable(err) }

// Fault injection (docs/FAULTS.md).
type (
	// FaultPlan is a seeded, reproducible schedule of fault events.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault window.
	FaultEvent = fault.Event
	// FaultInjector evaluates a plan against the sim clock.
	FaultInjector = fault.Injector
)

// Fault kinds for FaultEvent.Kind.
const (
	FaultResourceDown  = fault.ResourceDown
	FaultResourceFlaky = fault.ResourceFlaky
	FaultPeerCrash     = fault.PeerCrash
	FaultConnDrop      = fault.ConnDrop
	FaultLatency       = fault.Latency
)

// NewFaultInjector builds an injector for the plan with the clock's
// current time as the schedule epoch.
func NewFaultInjector(clock Clock, plan FaultPlan) (*FaultInjector, error) {
	return fault.NewInjector(clock, plan)
}

// ParseFaultPlan decodes and validates a JSON fault-plan document.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return fault.ParsePlan(data) }

// Triggers.
type (
	// Trigger is a datagrid event-condition-action definition.
	Trigger = trigger.Trigger
	// TriggerManager owns trigger subscriptions on one grid.
	TriggerManager = trigger.Manager
)

// NewTriggerManager creates a trigger manager (workers/queueCap <= 0 use
// defaults).
func NewTriggerManager(g *Grid, e *Engine, workers, queueCap int) *TriggerManager {
	return trigger.NewManager(g, e, workers, queueCap)
}

// ILM.
type (
	// ILMPolicy maps domain-value bands to storage tiers.
	ILMPolicy = ilm.Policy
	// ILMTier is one value band of a policy.
	ILMTier = ilm.Tier
	// ValueModel tracks domain value from accesses and freshness.
	ValueModel = ilm.ValueModel
	// ExecutionWindow gates when ILM flows may run.
	ExecutionWindow = ilm.Window
)

// NewValueModel returns a domain-value model with default parameters.
func NewValueModel() *ValueModel { return ilm.NewValueModel() }

// ImplodingStar generates the archiver-pull flow over a scope.
func ImplodingStar(g *Grid, owner, scope, archiveResource string, trimSources bool) (Flow, error) {
	return ilm.ImplodingStar(g, owner, scope, archiveResource, trimSources)
}

// ExplodingStar generates the tiered-push flow over a scope.
func ExplodingStar(g *Grid, owner, scope string, tiers [][]string) (Flow, error) {
	return ilm.ExplodingStar(g, owner, scope, tiers)
}

// Scheduler/broker.
type (
	// Broker plans and executes tasks with cost-based matchmaking.
	Broker = scheduler.Broker
	// Task is one unit of abstract execution logic.
	Task = scheduler.Task
	// ComputeNode is the broker's view of one compute pool.
	ComputeNode = infra.ComputeNode
	// Infrastructure is the Infrastructure Description Language document.
	Infrastructure = infra.Description
)

// NewBroker creates a broker over a grid and compute inventory.
func NewBroker(g *Grid, nodes []ComputeNode, seed int64) *Broker {
	return scheduler.NewBroker(g, nodes, seed)
}

// Wire: networked servers and the peer network.
type (
	// MatrixServer exposes an engine over TCP.
	MatrixServer = wire.Server
	// MatrixClient talks to a matrix server.
	MatrixClient = wire.Client
	// MatrixPeer is one node of the P2P datagridflow network.
	MatrixPeer = wire.Peer
	// LookupServer is the peer registry.
	LookupServer = wire.LookupServer
	// SubmitOption configures one MatrixClient.Submit call (WithAsync,
	// WithBatch, WithRoute).
	SubmitOption = wire.SubmitOption
	// SubmitResult is the unified reply of MatrixClient.Submit.
	SubmitResult = wire.SubmitResult
	// RouteMode is a submission's shard-placement preference.
	RouteMode = wire.RouteMode
	// ShardManager reconciles a peer's shard leases against the ring.
	ShardManager = shard.Manager
	// ShardConfig tunes a ShardManager.
	ShardConfig = shard.Config
)

// Shard-routing modes for WithRoute.
const (
	// RouteAuto forwards a submission to its shard owner (the default
	// on sharded peers).
	RouteAuto = wire.RouteAuto
	// RouteLocal pins a submission to the connected peer.
	RouteLocal = wire.RouteLocal
)

// WithAsync submits asynchronously, acknowledging with an execution id.
func WithAsync() SubmitOption { return wire.WithAsync() }

// WithBatch adds requests answered positionally in one round trip.
func WithBatch(reqs ...*Request) SubmitOption { return wire.WithBatch(reqs...) }

// WithRoute sets the submission's shard-placement preference.
func WithRoute(mode RouteMode) SubmitOption { return wire.WithRoute(mode) }

// NewShardManager builds a shard manager for MatrixPeer.EnableSharding.
func NewShardManager(cfg ShardConfig) *ShardManager { return shard.NewManager(cfg) }

// NewMatrixServer wraps an engine for network service.
func NewMatrixServer(e *Engine) *MatrixServer { return wire.NewServer(e) }

// DialMatrix connects to a matrix server.
func DialMatrix(addr string) (*MatrixClient, error) { return wire.Dial(addr) }

// DialMatrixContext connects to a matrix server honouring the context's
// deadline and cancellation.
func DialMatrixContext(ctx context.Context, addr string) (*MatrixClient, error) {
	return wire.DialContext(ctx, addr)
}

// Namespace and provenance views.
type (
	// NamespaceEntry is a read-only view of a namespace node.
	NamespaceEntry = namespace.Entry
	// NamespaceQuery selects entries by metadata.
	NamespaceQuery = namespace.Query
	// NamespaceCondition is one predicate of a NamespaceQuery.
	NamespaceCondition = namespace.Condition
	// ProvenanceStore is the append-only audit log.
	ProvenanceStore = provenance.Store
	// ProvenanceRecord is one audit entry.
	ProvenanceRecord = provenance.Record
	// ProvenanceAttr is one key/value pair of an audit entry's detail,
	// as ProvenanceStore.Append takes them.
	ProvenanceAttr = provenance.Attr
	// ProvenanceFilter selects audit entries.
	ProvenanceFilter = provenance.Filter
)

// Permissions.
const (
	PermNone  = namespace.PermNone
	PermRead  = namespace.PermRead
	PermWrite = namespace.PermWrite
	PermOwn   = namespace.PermOwn
)

// OpenProvenance opens (or creates) a file-backed provenance store: a log
// of binary frames, replayed at open with a torn last frame truncated
// away. A file that is not such a log is refused untouched.
func OpenProvenance(path string) (*ProvenanceStore, error) { return provenance.Open(path) }
