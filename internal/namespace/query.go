package namespace

import (
	"fmt"
	"strconv"
	"strings"
)

// QueryOp is a comparison operator in a metadata query condition.
type QueryOp string

// Supported operators. Numeric comparisons apply when both sides parse as
// numbers; otherwise lexical string comparison is used.
const (
	OpEq       QueryOp = "="
	OpNe       QueryOp = "!="
	OpLt       QueryOp = "<"
	OpLe       QueryOp = "<="
	OpGt       QueryOp = ">"
	OpGe       QueryOp = ">="
	OpContains QueryOp = "contains"
	OpPrefix   QueryOp = "prefix"
	OpSuffix   QueryOp = "suffix"
	OpExists   QueryOp = "exists"
)

// Condition is one predicate over an entry. Attr may be a user-defined
// metadata attribute or one of the built-in pseudo-attributes:
// "name" (base name), "path", "owner", "domain", "size", "kind".
type Condition struct {
	Attr  string
	Op    QueryOp
	Value string
}

// Query is a conjunction of conditions, optionally restricted to a kind.
type Query struct {
	// Scope restricts the search to entries under this collection
	// (default "/").
	Scope string
	// Conditions must all hold (AND semantics, like SRB metadata queries).
	Conditions []Condition
	// ObjectsOnly skips collections when set.
	ObjectsOnly bool
	// Limit bounds the number of results (0 = unlimited).
	Limit int
}

// attr returns the value of the named attribute of n, which is at path,
// and whether n has it: a built-in pseudo-attribute, or else user-defined
// metadata.
func (n *node) attr(name, path string) (string, bool) {
	switch name {
	case "name":
		return Base(path), true
	case "path":
		return path, true
	case "owner":
		return n.who.owner, true
	case "domain":
		return n.who.domain, true
	case "kind":
		return n.kind.String(), true
	case "size":
		return strconv.FormatInt(n.size, 10), true
	default:
		return n.getMeta(name)
	}
}

// test applies c to the value of its attribute; ok is false when the
// entry does not have the attribute.
func (c Condition) test(have string, ok bool) (bool, error) {
	if c.Op == OpExists {
		return ok, nil
	}
	if !ok {
		return false, nil
	}
	switch c.Op {
	case OpEq:
		return compareVals(have, c.Value) == 0, nil
	case OpNe:
		return compareVals(have, c.Value) != 0, nil
	case OpLt:
		return compareVals(have, c.Value) < 0, nil
	case OpLe:
		return compareVals(have, c.Value) <= 0, nil
	case OpGt:
		return compareVals(have, c.Value) > 0, nil
	case OpGe:
		return compareVals(have, c.Value) >= 0, nil
	case OpContains:
		return strings.Contains(have, c.Value), nil
	case OpPrefix:
		return strings.HasPrefix(have, c.Value), nil
	case OpSuffix:
		return strings.HasSuffix(have, c.Value), nil
	default:
		return false, fmt.Errorf("namespace: unknown query operator %q", c.Op)
	}
}

func compareVals(a, b string) int {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// Search evaluates q and returns matching entries in walk (name) order.
// This is the namespace analog of an SRB metadata query — the primitive
// that datagrid triggers and ILM policies select their working sets with.
// Conditions are tested on the node, so only a match is copied out.
func (ns *Namespace) Search(q Query) ([]Entry, error) {
	scope := q.Scope
	if scope == "" {
		scope = "/"
	}
	var out []Entry
	err := ns.walk(scope, func(n *node, path string) error {
		if q.ObjectsOnly && n.kind != KindObject {
			return nil
		}
		for _, c := range q.Conditions {
			ok, err := c.test(n.attr(c.Attr, path))
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out = append(out, n.entry(path))
		if q.Limit > 0 && len(out) >= q.Limit {
			return errStopWalk
		}
		return nil
	})
	if err != nil && err != errStopWalk {
		return nil, err
	}
	return out, nil
}

// errStopWalk is a sentinel for early termination of the walk from Search.
var errStopWalk = fmt.Errorf("namespace: stop walk")
