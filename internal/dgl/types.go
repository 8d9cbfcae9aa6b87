// Package dgl implements the Data Grid Language — the paper's XML-schema
// language for describing, querying and managing datagridflows ("just as
// SQL is used for databases, an analog is needed for datagrids").
//
// The type structure mirrors the paper's figures:
//
//   - Figure 2, DataGridRequest: document metadata, grid user and virtual
//     organization, and a choice of Flow or FlowStatusQuery.
//   - Figure 1, Flow: Variables, FlowLogic and Children (sub-flows or
//     steps, never both), recursively composable.
//   - Figure 3, FlowLogic: a control pattern (sequential, parallel, while,
//     forEach, switch) plus UserDefinedRules, including the special
//     beforeEntry and afterExit rules.
//   - Figure 4, DataGridResponse: a RequestAcknowledgement for
//     asynchronous requests or a FlowStatus tree for status queries.
//
// Documents are read from and written as XML by the package's own
// schema-directed reader and writer (xmlscan.go, xmlread.go,
// xmlwrite.go); the xml struct tags declare the schema they follow, and
// the tests hold both against encoding/xml. docs/WIRE.md states the XML
// that is accepted. Programmatic construction uses the Builder in
// builder.go.
package dgl

import (
	"encoding/xml"
	"fmt"
	"slices"
	"strings"
)

// Control is a flow's execution pattern (Figure 3).
type Control string

// The control patterns DGL supports. They match the paper's list:
// "sequentially, in parallel, while loop, for-each loop, switch-case".
const (
	// Sequential runs children in document order.
	Sequential Control = "sequential"
	// Parallel runs children concurrently and joins before exit.
	Parallel Control = "parallel"
	// While re-runs the children as long as the condition holds.
	While Control = "while"
	// ForEach runs the children once per item, binding the loop variable.
	ForEach Control = "forEach"
	// Switch evaluates the condition and runs the child whose name equals
	// the result (falling back to a child named "default").
	Switch Control = "switch"
)

// Route preference values (Request.Route) on sharded networks.
const (
	// RouteAuto lets the accepting peer forward the flow to its shard
	// owner — the default for an empty Route.
	RouteAuto = "auto"
	// RouteLocal pins the flow to the accepting peer; the sharding
	// layer neither forwards it nor rejects it for foreign ownership.
	RouteLocal = "local"
)

// Request is a DGL Data Grid Request (Figure 2).
type Request struct {
	XMLName xml.Name `xml:"dataGridRequest"`
	// Async requests are acknowledged immediately with a request id; the
	// flow executes in the background and is polled via FlowStatusQuery.
	Async bool `xml:"async,attr,omitempty"`
	// Route is the submission's placement preference on a sharded
	// datagridflow network: RouteAuto (or empty) lets the accepting
	// peer forward the flow to its shard owner, RouteLocal pins it to
	// the accepting peer. Non-sharded deployments ignore it.
	Route string `xml:"route,attr,omitempty"`
	// Token is the tenant bearer token authenticating the submission
	// (docs/TENANCY.md). An extension attribute, not part of the
	// paper's schema: absent means anonymous, and untenanted servers
	// ignore it entirely.
	Token string `xml:"token,attr,omitempty"`
	// Metadata documents the request itself.
	Metadata DocumentMeta `xml:"documentMetadata"`
	// User identifies the submitting grid user and virtual organization.
	User GridUser `xml:"gridUser"`
	// Exactly one of Flow or StatusQuery must be present.
	Flow        *Flow        `xml:"flow,omitempty"`
	StatusQuery *StatusQuery `xml:"flowStatusQuery,omitempty"`
}

// DocumentMeta carries provenance about the DGL document itself.
type DocumentMeta struct {
	CreatedBy   string `xml:"createdBy,omitempty"`
	CreatedAt   string `xml:"createdAt,omitempty"`
	Description string `xml:"description,omitempty"`
}

// GridUser names the requesting user and their virtual organization.
type GridUser struct {
	Name string `xml:"name"`
	VO   string `xml:"virtualOrganization,omitempty"`
}

// StatusQuery asks for the execution status of a flow, step or whole
// request "at any level of granularity": the ID may be a request id, a
// flow id or a step id.
type StatusQuery struct {
	ID string `xml:"id"`
	// Detail requests the full subtree rather than a one-line summary.
	Detail bool `xml:"detail,omitempty"`
}

// Flow is the recursive control structure of Figure 1. Its children are
// either sub-flows or steps — never both, per the paper's schema.
type Flow struct {
	Name string `xml:"name,attr"`
	// Variables declared in this flow's scope.
	Variables []Variable `xml:"variables>variable,omitempty"`
	// Logic dictates how children execute and carries the user rules.
	Logic FlowLogic `xml:"flowLogic"`
	// Flows or Steps are the children (mutually exclusive).
	Flows []Flow `xml:"flow,omitempty"`
	Steps []Step `xml:"step,omitempty"`
}

// Variable is one scoped variable declaration.
type Variable struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// FlowLogic (Figure 3) selects the control structure and holds the
// user-defined rules, including the beforeEntry/afterExit hooks.
type FlowLogic struct {
	Control Control `xml:"control"`
	// Condition is the while-loop guard or the switch selector. It is an
	// expr-language expression over the flow's variable scope.
	Condition string `xml:"condition,omitempty"`
	// Iterate configures forEach loops.
	Iterate *Iterate `xml:"iterate,omitempty"`
	// Rules are the user-defined ECA rules. Rules named RuleBeforeEntry
	// and RuleAfterExit run around the flow; others run when explicitly
	// referenced.
	Rules []Rule `xml:"userDefinedRule,omitempty"`
}

// Names of the rules the engine fires implicitly (paper, Appendix A).
const (
	// RuleBeforeEntry runs before a flow starts executing.
	RuleBeforeEntry = "beforeEntry"
	// RuleAfterExit runs after a flow finishes executing.
	RuleAfterExit = "afterExit"
)

// Iterate configures a forEach flow: bind Var for each item of exactly
// one source — an inline comma-separated list, a repeat count, or a
// datagrid metadata query (the paper's "processed according to a datagrid
// query" iteration).
type Iterate struct {
	// Var is the loop variable bound in the children's scope.
	Var string `xml:"var,attr"`
	// Parallel runs iterations concurrently instead of sequentially.
	// Each iteration still gets its own scope and status subtree, so
	// the paper's "execution of each iteration at a different location"
	// holds: iterations late-bind independently.
	Parallel bool `xml:"parallel,attr,omitempty"`
	// In is an inline comma-separated item list (interpolated).
	In string `xml:"in,omitempty"`
	// Times repeats the body Times times, binding Var to 0..Times-1.
	Times int `xml:"times,omitempty"`
	// Query iterates over the logical paths matching a namespace query.
	Query *NSQuery `xml:"query,omitempty"`
}

// NSQuery is a DGL-level datagrid metadata query.
type NSQuery struct {
	Scope       string      `xml:"scope,attr,omitempty"`
	ObjectsOnly bool        `xml:"objectsOnly,attr,omitempty"`
	Conditions  []QueryCond `xml:"where,omitempty"`
}

// QueryCond is one predicate of an NSQuery.
type QueryCond struct {
	Attr  string `xml:"attr,attr"`
	Op    string `xml:"op,attr"`
	Value string `xml:"value,attr,omitempty"`
}

// Rule is a UserDefinedRule: "similar to a switch statement ... one
// condition and can have one or more Actions. ... The Actions are
// executed if the condition statement evaluates to the name of the
// action." A boolean condition selects the action named "true"/"false".
type Rule struct {
	Name      string   `xml:"name,attr"`
	Condition string   `xml:"condition"` // the tCondition
	Actions   []Action `xml:"action,omitempty"`
}

// Action is one named arm of a rule. It carries a single operation.
type Action struct {
	Name      string     `xml:"name,attr"`
	Operation *Operation `xml:"operation,omitempty"`
}

// Step (Figure 1) is a concrete task: a single Operation plus optional
// scoped variables and rules, with fault-handling attributes ("Fault
// handling information ... could also be provided in the execution
// logic").
type Step struct {
	Name string `xml:"name,attr"`
	// OnError selects the fault policy: "abort" (default), "continue",
	// or "retry" (honouring Retries).
	OnError string `xml:"onError,attr,omitempty"`
	// Retries bounds retry attempts when OnError is "retry".
	Retries int `xml:"retries,attr,omitempty"`
	// Backoff is the base delay between retry attempts, growing
	// exponentially (base, 2*base, 4*base, ... with deterministic
	// jitter), charged to the virtual clock. Go duration syntax
	// ("500ms", "30s"). Empty means retry immediately.
	Backoff string `xml:"backoff,attr,omitempty"`
	// MaxBackoff caps the exponential growth of Backoff.
	MaxBackoff string `xml:"maxBackoff,attr,omitempty"`
	// Timeout bounds one attempt's virtual-clock duration; an attempt
	// that exceeds it fails with the timeout class (retryable).
	Timeout string `xml:"timeout,attr,omitempty"`
	// Pure marks the step a pure derivation: its operation is a
	// deterministic function of its inputs and parameter bindings, so
	// an engine with a virtual-data catalog (docs/VDATA.md) may skip
	// execution when the derivation is already recorded and graft the
	// memoized result. A pure step must declare Outputs.
	Pure bool `xml:"pure,attr,omitempty"`
	// Outputs declares the comma-separated logical paths a pure step
	// derives; the catalog indexes them so deleting an output
	// invalidates the memoized derivation.
	Outputs string `xml:"outputs,attr,omitempty"`
	// Variables declared in the step's scope.
	Variables []Variable `xml:"variables>variable,omitempty"`
	// Rules fire around the step like a flow's (beforeEntry/afterExit).
	Rules []Rule `xml:"userDefinedRule,omitempty"`
	// Operation is the atomic action the step performs.
	Operation Operation `xml:"operation"`
}

// Fault policies for Step.OnError.
const (
	OnErrorAbort    = "abort"
	OnErrorContinue = "continue"
	OnErrorRetry    = "retry"
)

// Operation is an atomic datagrid or business-logic action, identified by
// type with named parameters.
type Operation struct {
	Type   string  `xml:"type,attr"`
	Params []Param `xml:"param,omitempty"`
}

// Param is one named operation parameter; values are interpolated against
// the variable scope just before execution (late binding).
type Param struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// Operation types built into the language. The set is extensible —
// "DGL is an XML-Schema specification that can be extended for
// domain-specific operations" — via engine-registered handlers.
const (
	// Datagrid operations (execute against the DGMS).
	OpIngest         = "ingest"
	OpReplicate      = "replicate"
	OpMigrate        = "migrate"
	OpTrim           = "trim"
	OpDelete         = "delete"
	OpVerify         = "verify"
	OpSetMeta        = "setMeta"
	OpMakeCollection = "makeCollection"
	OpMove           = "move"
	// OpRegister maps pre-existing physical data into the namespace
	// without moving bytes (the SRB register-in-place deployment model).
	OpRegister = "register"
	// OpCall invokes a stored procedure held by the executing engine
	// (the paper's "datagrid stored procedures").
	OpCall = "call"
	// OpExec runs business logic (a binary in the paper; simulated CPU
	// seconds here) on a grid compute resource.
	OpExec = "exec"
	// OpSetVariable assigns a flow variable from an expression.
	OpSetVariable = "setVariable"
	// OpSleep advances simulated time (maintenance windows, backoff).
	OpSleep = "sleep"
	// OpNoop does nothing; useful as a switch default or placeholder.
	OpNoop = "noop"
	// OpFail always fails; used to exercise fault handling.
	OpFail = "fail"
	// OpResumeFlow resurrects a passivated execution from the engine's
	// flow-state store and (by default) resumes it — the operation
	// trigger actions use to wake a long-sleeping flow when its event
	// finally arrives (docs/STORE.md).
	OpResumeFlow = "resumeFlow"
)

// builtinOps lists the operation types Validate accepts without a custom
// handler registration.
var builtinOps = map[string]bool{
	OpIngest: true, OpReplicate: true, OpMigrate: true, OpTrim: true,
	OpDelete: true, OpVerify: true, OpSetMeta: true, OpMakeCollection: true,
	OpMove: true, OpRegister: true, OpCall: true, OpExec: true,
	OpSetVariable: true, OpSleep: true, OpNoop: true, OpFail: true,
	OpResumeFlow: true,
}

// Param returns the value of the named parameter and whether it is set.
func (o *Operation) Param(name string) (string, bool) {
	for _, p := range o.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Op constructs an Operation from a type and a param map, with
// deterministic parameter order.
func Op(typ string, params map[string]string) Operation {
	o := Operation{Type: typ}
	if len(params) == 0 {
		return o
	}
	o.Params = make([]Param, 0, len(params))
	for k, v := range params {
		o.Params = append(o.Params, Param{Name: k, Value: v})
	}
	slices.SortFunc(o.Params, func(a, b Param) int { return strings.Compare(a.Name, b.Name) })
	return o
}

// ParseRequest decodes a DataGridRequest from XML and validates it
// against the built-in operation set.
func ParseRequest(data []byte) (*Request, error) {
	req, err := DecodeRequest(data)
	if err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRequest decodes a DataGridRequest without validating it. Servers
// use this so validation can run against the executing engine's full
// operation registry (built-ins plus extensions) rather than built-ins
// only.
func DecodeRequest(data []byte) (*Request, error) {
	r := reader{s: scanner{data: data}}
	req := new(Request)
	r.request(req)
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("dgl: parse request: %w", err)
	}
	r.ownRequest(req)
	return req, nil
}

// ParseResponse decodes a DataGridResponse from XML.
func ParseResponse(data []byte) (*Response, error) {
	r := reader{s: scanner{data: data}}
	resp := new(Response)
	r.response(resp)
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("dgl: parse response: %w", err)
	}
	r.ownResponse(resp)
	return resp, nil
}

// String renders the request as XML (best effort; errors yield a
// diagnostic string).
func (r *Request) String() string {
	b, err := Marshal(r)
	if err != nil {
		return fmt.Sprintf("<invalid request: %v>", err)
	}
	return string(b)
}

// CountSteps returns the total number of steps in the flow tree.
func (f *Flow) CountSteps() int {
	n := len(f.Steps)
	for i := range f.Flows {
		n += f.Flows[i].CountSteps()
	}
	return n
}

// Response is a DGL Data Grid Response (Figure 4): an acknowledgement for
// asynchronous requests, a status tree for queries, or an error.
type Response struct {
	XMLName xml.Name    `xml:"dataGridResponse"`
	Ack     *Ack        `xml:"requestAcknowledgement,omitempty"`
	Status  *FlowStatus `xml:"flowStatus,omitempty"`
	Error   string      `xml:"error,omitempty"`
}

// Ack acknowledges an asynchronous request: "Request Acknowledgement
// contains a unique identifier for each request and the initial status of
// the request and its validity."
type Ack struct {
	ID      string `xml:"id"`
	Status  string `xml:"status"`
	Valid   bool   `xml:"valid"`
	Message string `xml:"message,omitempty"`
}

// FlowStatus is one node of a status tree. IDs are unique per execution
// and shareable: "The identifier for any particular task or flow can be
// shared with all other processes."
type FlowStatus struct {
	ID       string `xml:"id,attr"`
	Name     string `xml:"name,attr"`
	Kind     string `xml:"kind,attr"` // "flow" or "step"
	State    string `xml:"state,attr"`
	Started  string `xml:"started,attr,omitempty"`
	Finished string `xml:"finished,attr,omitempty"`
	// Delegated names the remote execution id when this subtree ran on
	// another peer ("peerB:dgf-000042"); its children carry remote ids.
	Delegated string       `xml:"delegated,attr,omitempty"`
	Error     string       `xml:"error,omitempty"`
	Children  []FlowStatus `xml:"status,omitempty"`
}

// Find returns the status node with the given id in the subtree.
func (s *FlowStatus) Find(id string) (*FlowStatus, bool) {
	if s.ID == id {
		return s, true
	}
	for i := range s.Children {
		if n, ok := s.Children[i].Find(id); ok {
			return n, true
		}
	}
	return nil, false
}

// CountByState tallies the states of every node in the subtree.
func (s *FlowStatus) CountByState() map[string]int {
	out := map[string]int{}
	var walk func(*FlowStatus)
	walk = func(n *FlowStatus) {
		out[n.State]++
		for i := range n.Children {
			walk(&n.Children[i])
		}
	}
	walk(s)
	return out
}

// Summary renders a one-line human-readable summary of the node.
func (s *FlowStatus) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s [%s] %s", s.Kind, s.Name, s.ID, s.State)
	if s.Error != "" {
		fmt.Fprintf(&sb, " error=%q", s.Error)
	}
	return sb.String()
}
