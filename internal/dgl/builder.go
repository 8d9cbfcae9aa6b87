package dgl

import "strings"

// builder.go implements the programmatic API the paper requires
// ("Programmatic API to define these datagrid ILM ... programmatic
// interface for interaction by other systems"). It is a fluent layer over
// the document types: each method returns the builder so flows compose
// without intermediate variables.

// FlowBuilder assembles a Flow.
type FlowBuilder struct {
	flow Flow
}

// NewFlow starts a sequential flow with the given name.
func NewFlow(name string) *FlowBuilder {
	return &FlowBuilder{flow: Flow{Name: name, Logic: FlowLogic{Control: Sequential}}}
}

// Parallel sets the parallel control pattern.
func (b *FlowBuilder) Parallel() *FlowBuilder {
	b.flow.Logic.Control = Parallel
	return b
}

// WhileLoop sets a while control with the given condition.
func (b *FlowBuilder) WhileLoop(condition string) *FlowBuilder {
	b.flow.Logic.Control = While
	b.flow.Logic.Condition = condition
	return b
}

// ForEachIn sets a forEach control iterating over an inline
// comma-separated list bound to loopVar.
func (b *FlowBuilder) ForEachIn(loopVar, list string) *FlowBuilder {
	b.flow.Logic.Control = ForEach
	b.flow.Logic.Iterate = &Iterate{Var: loopVar, In: list}
	return b
}

// Repeat sets a forEach control running the body n times with loopVar
// bound to the iteration index.
func (b *FlowBuilder) Repeat(loopVar string, n int) *FlowBuilder {
	b.flow.Logic.Control = ForEach
	b.flow.Logic.Iterate = &Iterate{Var: loopVar, Times: n}
	return b
}

// ForEachQuery sets a forEach control iterating over the logical paths
// matched by a datagrid query.
func (b *FlowBuilder) ForEachQuery(loopVar string, q NSQuery) *FlowBuilder {
	b.flow.Logic.Control = ForEach
	b.flow.Logic.Iterate = &Iterate{Var: loopVar, Query: &q}
	return b
}

// ParallelIterations marks the flow's forEach iterations to run
// concurrently. It must follow ForEachIn, Repeat or ForEachQuery.
func (b *FlowBuilder) ParallelIterations() *FlowBuilder {
	if b.flow.Logic.Iterate != nil {
		b.flow.Logic.Iterate.Parallel = true
	}
	return b
}

// SwitchOn sets a switch control: the condition's string value selects
// the child to run (falling back to a child named "default").
func (b *FlowBuilder) SwitchOn(condition string) *FlowBuilder {
	b.flow.Logic.Control = Switch
	b.flow.Logic.Condition = condition
	return b
}

// Var declares a variable in the flow's scope.
func (b *FlowBuilder) Var(name, value string) *FlowBuilder {
	b.flow.Variables = append(b.flow.Variables, Variable{Name: name, Value: value})
	return b
}

// Rule attaches a user-defined rule to the flow's logic.
func (b *FlowBuilder) Rule(r Rule) *FlowBuilder {
	b.flow.Logic.Rules = append(b.flow.Logic.Rules, r)
	return b
}

// OnEntry attaches a beforeEntry rule that always runs op.
func (b *FlowBuilder) OnEntry(op Operation) *FlowBuilder {
	return b.Rule(Rule{
		Name:      RuleBeforeEntry,
		Condition: "true",
		Actions:   []Action{{Name: "true", Operation: &op}},
	})
}

// OnExit attaches an afterExit rule that always runs op.
func (b *FlowBuilder) OnExit(op Operation) *FlowBuilder {
	return b.Rule(Rule{
		Name:      RuleAfterExit,
		Condition: "true",
		Actions:   []Action{{Name: "true", Operation: &op}},
	})
}

// Step appends a step child executing op with the default fault policy.
func (b *FlowBuilder) Step(name string, op Operation) *FlowBuilder {
	b.flow.Steps = append(b.flow.Steps, Step{Name: name, Operation: op})
	return b
}

// PureStep appends a pure (memoizable) step deriving the declared
// outputs: an engine with a virtual-data catalog (docs/VDATA.md) skips
// re-derivation when the catalog already holds the step's result.
func (b *FlowBuilder) PureStep(name string, op Operation, outputs ...string) *FlowBuilder {
	b.flow.Steps = append(b.flow.Steps, Step{
		Name: name, Operation: op, Pure: true, Outputs: strings.Join(outputs, ","),
	})
	return b
}

// StepWith appends a fully specified step child.
func (b *FlowBuilder) StepWith(s Step) *FlowBuilder {
	b.flow.Steps = append(b.flow.Steps, s)
	return b
}

// SubFlow appends a sub-flow child built by another builder.
func (b *FlowBuilder) SubFlow(sub *FlowBuilder) *FlowBuilder {
	b.flow.Flows = append(b.flow.Flows, sub.flow)
	return b
}

// Flow returns the flow without validating (for composing into a larger
// document that is validated as a whole).
func (b *FlowBuilder) Flow() Flow { return b.flow }

// NewRequest wraps a flow in a DataGridRequest ready for submission.
func NewRequest(user, vo string, flow Flow) *Request {
	return &Request{
		Metadata: DocumentMeta{CreatedBy: user},
		User:     GridUser{Name: user, VO: vo},
		Flow:     &flow,
	}
}

// NewAsyncRequest is NewRequest with asynchronous execution requested.
func NewAsyncRequest(user, vo string, flow Flow) *Request {
	r := NewRequest(user, vo, flow)
	r.Async = true
	return r
}

// NewStatusRequest builds a FlowStatusQuery request for the given
// flow/step/request id.
func NewStatusRequest(user, id string, detail bool) *Request {
	return &Request{
		User:        GridUser{Name: user},
		StatusQuery: &StatusQuery{ID: id, Detail: detail},
	}
}
