package dgl

import (
	"fmt"
	"strings"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/expr"
)

// ErrInvalid wraps all validation failures. It carries the
// dgferr.ErrInvalid class for the public taxonomy.
var ErrInvalid = dgferr.Mark(dgferr.ErrInvalid, "dgl: invalid document")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Validate checks a request for structural soundness before execution:
// the Flow/StatusQuery choice, control-pattern requirements, child
// homogeneity, name uniqueness, condition syntax and operation types.
// Validation mirrors what an XML-Schema validator would enforce plus the
// semantic constraints the schema cannot express.
func (r *Request) Validate() error {
	if (r.Flow == nil) == (r.StatusQuery == nil) {
		return invalidf("request must contain exactly one of flow or flowStatusQuery")
	}
	if r.User.Name == "" {
		return invalidf("gridUser.name is required")
	}
	if r.StatusQuery != nil {
		if r.StatusQuery.ID == "" {
			return invalidf("flowStatusQuery.id is required")
		}
		return nil
	}
	return ValidateFlow(r.Flow, nil)
}

// ValidateFlow checks one flow tree. extraOps lists additional operation
// types registered with the executing engine (domain-specific
// extensions); pass nil to accept only built-ins.
//
// It is the recursion of CheckFlow and CheckStep, for the callers that
// hold a document but no engine: builders, triggers, ParseRequest. An
// engine lowers a flow with the same checks inside its own walk, in the
// same order, so it refuses what this refuses, with the same error.
func ValidateFlow(f *Flow, extraOps map[string]bool) error {
	return validateFlow(f, nil, extraOps)
}

// validateFlow checks f, the child of the flow at parent (nil for the
// root), and its subtree.
func validateFlow(f *Flow, parent *DocPath, extraOps map[string]bool) error {
	path := DocPath{Parent: parent, Sep: "/", Name: f.Name}
	if _, err := CheckFlow(f, &path, extraOps); err != nil {
		return err
	}
	for i := range f.Flows {
		if err := validateFlow(&f.Flows[i], &path, extraOps); err != nil {
			return err
		}
	}
	for i := range f.Steps {
		st := &f.Steps[i]
		if _, err := CheckStep(st, &DocPath{&path, "/", st.Name}, extraOps); err != nil {
			return err
		}
	}
	return nil
}

// DocPath names the flow, step or rule being checked — "/outer/step",
// "/outer/step#rule" — for an error message: a chain of nodes on the
// walk's stack, spelled out only when an error is reported, so a sound
// document costs no path.
type DocPath struct {
	Parent *DocPath
	Sep    string
	Name   string
}

func (p *DocPath) String() string {
	if p == nil {
		return ""
	}
	return p.Parent.String() + p.Sep + p.Name
}

// Parsed is what checking a node parsed on the way, for a caller that
// lowers the node to keep instead of parsing it again.
type Parsed struct {
	// Cond is a while or switch flow's condition.
	Cond *expr.Expr
	// Before and After are the conditions of the node's beforeEntry and
	// afterExit rules, the two the engine fires itself; nil when the
	// node has no such rule.
	Before, After *expr.Expr
	// Timing is a step's retry timing.
	Timing RetryTiming
}

// CheckFlow checks what belongs to flow node f itself — its name and
// shape, its variables, its control pattern and condition, its rules
// and its children's names — at path, and returns the conditions it
// parsed. It does not descend: the children are the caller's to check.
func CheckFlow(f *Flow, path *DocPath, extraOps map[string]bool) (Parsed, error) {
	var p Parsed
	if f.Name == "" {
		return p, invalidf("flow at %s has no name", path.String())
	}
	if len(f.Flows) > 0 && len(f.Steps) > 0 {
		return p, invalidf("flow %s mixes sub-flows and steps", path.String())
	}
	if err := checkVariables(f.Variables, path); err != nil {
		return p, err
	}
	// Control pattern requirements.
	var err error
	switch f.Logic.Control {
	case Sequential, Parallel:
		if f.Logic.Condition != "" {
			return p, invalidf("flow %s: %s control takes no condition", path.String(), f.Logic.Control)
		}
		if f.Logic.Iterate != nil {
			return p, invalidf("flow %s: %s control takes no iterate", path.String(), f.Logic.Control)
		}
	case While, Switch:
		if f.Logic.Condition == "" {
			return p, invalidf("flow %s: %s requires a condition", path.String(), f.Logic.Control)
		}
		if f.Logic.Iterate != nil {
			return p, invalidf("flow %s: %s takes no iterate", path.String(), f.Logic.Control)
		}
		if p.Cond, err = expr.Parse(f.Logic.Condition); err != nil {
			return p, invalidf("flow %s: bad %s condition: %v", path.String(), f.Logic.Control, err)
		}
	case ForEach:
		if err := checkIterate(f.Logic.Iterate, path); err != nil {
			return p, err
		}
	case "":
		return p, invalidf("flow %s: flowLogic.control is required", path.String())
	default:
		return p, invalidf("flow %s: unknown control %q", path.String(), f.Logic.Control)
	}
	if err := checkRules(f.Logic.Rules, path, extraOps, &p); err != nil {
		return p, err
	}
	// Children: unique names within the flow.
	seen := map[string]bool{}
	for i := range f.Flows {
		if name := f.Flows[i].Name; seen[name] {
			return p, invalidf("flow %s: duplicate child name %q", path.String(), name)
		} else {
			seen[name] = true
		}
	}
	for i := range f.Steps {
		if name := f.Steps[i].Name; seen[name] {
			return p, invalidf("flow %s: duplicate child name %q", path.String(), name)
		} else {
			seen[name] = true
		}
	}
	return p, nil
}

func checkIterate(it *Iterate, path *DocPath) error {
	if it == nil {
		return invalidf("flow %s: forEach requires iterate", path.String())
	}
	if it.Var == "" {
		return invalidf("flow %s: iterate.var is required", path.String())
	}
	sources := 0
	if it.In != "" {
		sources++
	}
	if it.Times > 0 {
		sources++
	}
	if it.Query != nil {
		sources++
	}
	if sources != 1 {
		return invalidf("flow %s: iterate needs exactly one of in, times, query", path.String())
	}
	if it.Times < 0 {
		return invalidf("flow %s: iterate.times must be non-negative", path.String())
	}
	return nil
}

// CheckStep checks step node s at path and returns the rule conditions
// and the retry timing it parsed.
func CheckStep(s *Step, path *DocPath, extraOps map[string]bool) (Parsed, error) {
	var p Parsed
	if s.Name == "" {
		return p, invalidf("step at %s has no name", path.String())
	}
	switch s.OnError {
	case "", OnErrorAbort, OnErrorContinue, OnErrorRetry:
	default:
		return p, invalidf("step %s: unknown onError %q", path.String(), s.OnError)
	}
	if s.Retries < 0 {
		return p, invalidf("step %s: negative retries", path.String())
	}
	if s.OnError != OnErrorRetry && s.Retries > 0 {
		return p, invalidf("step %s: retries set but onError is %q", path.String(), s.OnError)
	}
	if s.OnError != OnErrorRetry && (s.Backoff != "" || s.MaxBackoff != "") {
		return p, invalidf("step %s: backoff set but onError is %q", path.String(), s.OnError)
	}
	if s.MaxBackoff != "" && s.Backoff == "" {
		return p, invalidf("step %s: maxBackoff without backoff", path.String())
	}
	var err error
	if p.Timing.Backoff, err = checkDuration("backoff", s.Backoff, path); err != nil {
		return p, err
	}
	if p.Timing.MaxBackoff, err = checkDuration("maxBackoff", s.MaxBackoff, path); err != nil {
		return p, err
	}
	if p.Timing.Timeout, err = checkDuration("timeout", s.Timeout, path); err != nil {
		return p, err
	}
	if s.Pure && s.OutputCount() == 0 {
		return p, invalidf("step %s: pure step declares no outputs", path.String())
	}
	empty := false
	s.EachOutput(func(_ int, out string) { empty = empty || out == "" })
	if empty {
		return p, invalidf("step %s: empty path in outputs", path.String())
	}
	if err := checkVariables(s.Variables, path); err != nil {
		return p, err
	}
	if err := checkRules(s.Rules, path, extraOps, &p); err != nil {
		return p, err
	}
	return p, checkOperation(&s.Operation, path, extraOps)
}

// checkDuration parses a step's duration attribute: unset is zero.
func checkDuration(name, val string, path *DocPath) (time.Duration, error) {
	if val == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, invalidf("step %s: bad %s %q: %v", path.String(), name, val, err)
	}
	if d < 0 {
		return 0, invalidf("step %s: negative %s", path.String(), name)
	}
	return d, nil
}

// OutputCount returns how many items the step's comma-separated outputs
// attribute lists. Interior empty items count, so validation can reject
// them ("a,,b" is a typo, not two outputs).
func (s *Step) OutputCount() int {
	if strings.TrimSpace(s.Outputs) == "" {
		return 0
	}
	return strings.Count(s.Outputs, ",") + 1
}

// EachOutput calls fn with each of the OutputCount items of the step's
// outputs attribute, trimmed, in order: the logical paths a pure step
// declares.
func (s *Step) EachOutput(fn func(i int, out string)) {
	if s.OutputCount() == 0 {
		return
	}
	rest := s.Outputs
	for i := 0; ; i++ {
		item, tail, more := strings.Cut(rest, ",")
		fn(i, strings.TrimSpace(item))
		if !more {
			return
		}
		rest = tail
	}
}

// RetryTiming is a Step's parsed retry-timing attributes.
type RetryTiming struct {
	// Backoff is the base retry delay; zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps exponential growth; zero means uncapped.
	MaxBackoff time.Duration
	// Timeout bounds one attempt; zero means unbounded.
	Timeout time.Duration
}

func checkVariables(vars []Variable, path *DocPath) error {
	seen := map[string]bool{}
	for _, v := range vars {
		if v.Name == "" {
			return invalidf("%s: variable with empty name", path.String())
		}
		if seen[v.Name] {
			return invalidf("%s: duplicate variable %q", path.String(), v.Name)
		}
		seen[v.Name] = true
	}
	return nil
}

// checkRules checks a node's rules and leaves the conditions of its
// beforeEntry and afterExit rules in p.
func checkRules(rules []Rule, path *DocPath, extraOps map[string]bool, p *Parsed) error {
	seen := map[string]bool{}
	for i := range rules {
		r := &rules[i]
		if r.Name == "" {
			return invalidf("%s: rule with empty name", path.String())
		}
		if seen[r.Name] {
			return invalidf("%s: duplicate rule %q", path.String(), r.Name)
		}
		seen[r.Name] = true
		if r.Condition == "" {
			return invalidf("%s: rule %q has no condition", path.String(), r.Name)
		}
		cond, err := expr.Parse(r.Condition)
		if err != nil {
			return invalidf("%s: rule %q condition: %v", path.String(), r.Name, err)
		}
		switch r.Name {
		case RuleBeforeEntry:
			p.Before = cond
		case RuleAfterExit:
			p.After = cond
		}
		if len(r.Actions) == 0 {
			return invalidf("%s: rule %q has no actions", path.String(), r.Name)
		}
		actionNames := map[string]bool{}
		for _, a := range r.Actions {
			if a.Name == "" {
				return invalidf("%s: rule %q has an unnamed action", path.String(), r.Name)
			}
			if actionNames[a.Name] {
				return invalidf("%s: rule %q duplicate action %q", path.String(), r.Name, a.Name)
			}
			actionNames[a.Name] = true
			if a.Operation != nil {
				if err := checkOperation(a.Operation, &DocPath{path, "#", r.Name}, extraOps); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func checkOperation(o *Operation, path *DocPath, extraOps map[string]bool) error {
	if o.Type == "" {
		return invalidf("%s: operation has no type", path.String())
	}
	if !builtinOps[o.Type] && !extraOps[o.Type] {
		return invalidf("%s: unknown operation type %q", path.String(), o.Type)
	}
	seen := map[string]bool{}
	for _, p := range o.Params {
		if p.Name == "" {
			return invalidf("%s: operation %s has an unnamed param", path.String(), o.Type)
		}
		if seen[p.Name] {
			return invalidf("%s: operation %s duplicate param %q", path.String(), o.Type, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}
