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
func ValidateFlow(f *Flow, extraOps map[string]bool) error {
	return validateFlow(f, &docPath{sep: "/", name: f.Name}, extraOps)
}

// docPath names the flow, step or rule being validated — "/outer/step",
// "/outer/step#rule" — for an error message. It is spelled out only
// when an error is reported: a sound document costs one node per flow
// (the recursion moves them to the heap) and no path string.
type docPath struct {
	parent *docPath
	sep    string
	name   string
}

func (p *docPath) String() string {
	if p == nil {
		return ""
	}
	return p.parent.String() + p.sep + p.name
}

func validateFlow(f *Flow, path *docPath, extraOps map[string]bool) error {
	if f.Name == "" {
		return invalidf("flow at %s has no name", path.String())
	}
	if len(f.Flows) > 0 && len(f.Steps) > 0 {
		return invalidf("flow %s mixes sub-flows and steps", path.String())
	}
	if err := validateVariables(f.Variables, path); err != nil {
		return err
	}
	// Control pattern requirements.
	switch f.Logic.Control {
	case Sequential, Parallel:
		if f.Logic.Condition != "" {
			return invalidf("flow %s: %s control takes no condition", path.String(), f.Logic.Control)
		}
		if f.Logic.Iterate != nil {
			return invalidf("flow %s: %s control takes no iterate", path.String(), f.Logic.Control)
		}
	case While:
		if f.Logic.Condition == "" {
			return invalidf("flow %s: while requires a condition", path.String())
		}
		if f.Logic.Iterate != nil {
			return invalidf("flow %s: while takes no iterate", path.String())
		}
		if _, err := expr.Parse(f.Logic.Condition); err != nil {
			return invalidf("flow %s: bad while condition: %v", path.String(), err)
		}
	case Switch:
		if f.Logic.Condition == "" {
			return invalidf("flow %s: switch requires a condition", path.String())
		}
		if f.Logic.Iterate != nil {
			return invalidf("flow %s: switch takes no iterate", path.String())
		}
		if _, err := expr.Parse(f.Logic.Condition); err != nil {
			return invalidf("flow %s: bad switch condition: %v", path.String(), err)
		}
	case ForEach:
		it := f.Logic.Iterate
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
	case "":
		return invalidf("flow %s: flowLogic.control is required", path.String())
	default:
		return invalidf("flow %s: unknown control %q", path.String(), f.Logic.Control)
	}
	if err := validateRules(f.Logic.Rules, path, extraOps); err != nil {
		return err
	}
	// Children: unique names within the flow, each child valid.
	seen := map[string]bool{}
	for i := range f.Flows {
		child := &f.Flows[i]
		if seen[child.Name] {
			return invalidf("flow %s: duplicate child name %q", path.String(), child.Name)
		}
		seen[child.Name] = true
		if err := validateFlow(child, &docPath{path, "/", child.Name}, extraOps); err != nil {
			return err
		}
	}
	for i := range f.Steps {
		st := &f.Steps[i]
		if seen[st.Name] {
			return invalidf("flow %s: duplicate child name %q", path.String(), st.Name)
		}
		seen[st.Name] = true
		if err := validateStep(st, &docPath{path, "/", st.Name}, extraOps); err != nil {
			return err
		}
	}
	return nil
}

func validateStep(s *Step, path *docPath, extraOps map[string]bool) error {
	if s.Name == "" {
		return invalidf("step at %s has no name", path.String())
	}
	switch s.OnError {
	case "", OnErrorAbort, OnErrorContinue, OnErrorRetry:
	default:
		return invalidf("step %s: unknown onError %q", path.String(), s.OnError)
	}
	if s.Retries < 0 {
		return invalidf("step %s: negative retries", path.String())
	}
	if s.OnError != OnErrorRetry && s.Retries > 0 {
		return invalidf("step %s: retries set but onError is %q", path.String(), s.OnError)
	}
	if s.OnError != OnErrorRetry && (s.Backoff != "" || s.MaxBackoff != "") {
		return invalidf("step %s: backoff set but onError is %q", path.String(), s.OnError)
	}
	if s.MaxBackoff != "" && s.Backoff == "" {
		return invalidf("step %s: maxBackoff without backoff", path.String())
	}
	for _, a := range []struct{ name, val string }{
		{"backoff", s.Backoff}, {"maxBackoff", s.MaxBackoff}, {"timeout", s.Timeout},
	} {
		if a.val == "" {
			continue
		}
		d, err := time.ParseDuration(a.val)
		if err != nil {
			return invalidf("step %s: bad %s %q: %v", path.String(), a.name, a.val, err)
		}
		if d < 0 {
			return invalidf("step %s: negative %s", path.String(), a.name)
		}
	}
	if s.Pure && len(s.OutputList()) == 0 {
		return invalidf("step %s: pure step declares no outputs", path.String())
	}
	for _, out := range s.OutputList() {
		if out == "" {
			return invalidf("step %s: empty path in outputs", path.String())
		}
	}
	if err := validateVariables(s.Variables, path); err != nil {
		return err
	}
	if err := validateRules(s.Rules, path, extraOps); err != nil {
		return err
	}
	return validateOperation(&s.Operation, path, extraOps)
}

// OutputList parses the step's comma-separated outputs attribute into
// trimmed logical paths. Interior empty items are preserved so
// validation can reject them ("a,,b" is a typo, not two outputs).
func (s *Step) OutputList() []string {
	if strings.TrimSpace(s.Outputs) == "" {
		return nil
	}
	parts := strings.Split(s.Outputs, ",")
	outs := make([]string, 0, len(parts))
	for _, p := range parts {
		outs = append(outs, strings.TrimSpace(p))
	}
	return outs
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

// Timing parses the step's duration attributes. Unset — or, on an
// unvalidated document, malformed — attributes come back zero.
func (s *Step) Timing() RetryTiming {
	parse := func(v string) time.Duration {
		if v == "" {
			return 0
		}
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return 0
		}
		return d
	}
	return RetryTiming{
		Backoff:    parse(s.Backoff),
		MaxBackoff: parse(s.MaxBackoff),
		Timeout:    parse(s.Timeout),
	}
}

func validateVariables(vars []Variable, path *docPath) error {
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

func validateRules(rules []Rule, path *docPath, extraOps map[string]bool) error {
	seen := map[string]bool{}
	for _, r := range rules {
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
		if _, err := expr.Parse(r.Condition); err != nil {
			return invalidf("%s: rule %q condition: %v", path.String(), r.Name, err)
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
				if err := validateOperation(a.Operation, &docPath{path, "#", r.Name}, extraOps); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func validateOperation(o *Operation, path *docPath, extraOps map[string]bool) error {
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
