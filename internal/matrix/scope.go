// Package matrix implements the DfMS server — the paper's SRB Matrix
// analog and the core contribution of the reproduction. It executes DGL
// flows against a DGMS grid with:
//
//   - the five control patterns (sequential, parallel, while, forEach,
//     switch) interpreted recursively over nested flows;
//   - per-flow variable scopes with shadowing;
//   - user-defined ECA rules, including beforeEntry/afterExit hooks;
//   - start / stop (cancel) / pause / resume / restart of long-run
//     executions, with restart skipping already-succeeded steps;
//   - unique, hierarchical status identifiers queryable at any
//     granularity, synchronously or asynchronously;
//   - provenance records for every flow and step transition; and
//   - an extensible operation registry (domain-specific DGL extensions).
package matrix

import (
	"sync"

	"datagridflow/internal/expr"
)

// Scope is one level of the DGL variable environment. Each flow (and each
// loop iteration) pushes a scope; lookups walk outward, assignments bind
// in the nearest scope that already declares the name, or the local scope
// otherwise. Scopes are safe for the concurrent access parallel flows
// perform.
//
// Names resolve dynamically, by walking the chain at each lookup: Set may
// declare a name locally at run time, so a name's scope is not known when
// the flow is planned. A level holds a handful of bindings (a loop
// variable, a flow's variable block), kept in a slice whose first few
// entries live in the Scope itself — one allocation per scope, none on
// the first Declare.
type Scope struct {
	mu     sync.RWMutex
	vars   []binding
	inline [3]binding
	parent *Scope
}

type binding struct {
	name string
	val  expr.Value
}

// NewScope returns a scope with the given parent (nil for a root scope).
func NewScope(parent *Scope) *Scope {
	return new(Scope).init(parent)
}

// init readies a zero scope — one of its own, or a slot of a region's
// slab — as a level under parent.
func (s *Scope) init(parent *Scope) *Scope {
	s.parent = parent
	s.vars = s.inline[:0]
	return s
}

// find returns the index of name in this level, or -1. Callers hold mu.
func (s *Scope) find(name string) int {
	for i := range s.vars {
		if s.vars[i].name == name {
			return i
		}
	}
	return -1
}

// Declare binds name in this scope, shadowing any outer binding.
func (s *Scope) Declare(name string, v expr.Value) {
	s.mu.Lock()
	if i := s.find(name); i >= 0 {
		s.vars[i].val = v
	} else {
		s.vars = append(s.vars, binding{name, v})
	}
	s.mu.Unlock()
}

// Lookup implements expr.Env by walking the scope chain.
func (s *Scope) Lookup(name string) (expr.Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		cur.mu.RLock()
		if i := cur.find(name); i >= 0 {
			v := cur.vars[i].val
			cur.mu.RUnlock()
			return v, true
		}
		cur.mu.RUnlock()
	}
	return expr.Null, false
}

// Set assigns name in the nearest scope that declares it; if none does,
// the name is declared locally. This gives while-loop counters the
// natural semantics: the loop body updates the flow-level variable rather
// than creating a fresh one per iteration.
func (s *Scope) Set(name string, v expr.Value) {
	for cur := s; cur != nil; cur = cur.parent {
		cur.mu.Lock()
		if i := cur.find(name); i >= 0 {
			cur.vars[i].val = v
			cur.mu.Unlock()
			return
		}
		cur.mu.Unlock()
	}
	s.Declare(name, v)
}

// Depth returns how many scopes the chain holds, this one included —
// the nesting level of the flow (or loop iteration) that owns it.
func (s *Scope) Depth() int {
	d := 0
	for cur := s; cur != nil; cur = cur.parent {
		d++
	}
	return d
}

// Snapshot returns a flat copy of the visible bindings (inner shadowing
// outer), for status display and debugging.
func (s *Scope) Snapshot() map[string]string {
	out := make(map[string]string)
	var chain []*Scope
	for cur := s; cur != nil; cur = cur.parent {
		chain = append(chain, cur)
	}
	// Outermost first so inner bindings overwrite.
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i].mu.RLock()
		for _, b := range chain[i].vars {
			out[b.name] = b.val.AsString()
		}
		chain[i].mu.RUnlock()
	}
	return out
}

// declareAll declares a flow's (or step's) variable block, rendering
// each value against the enclosing environment so declarations can
// reference outer variables — and earlier ones of the same block.
func (s *Scope) declareAll(vars []planVar) error {
	for i := range vars {
		val, err := vars[i].value.Render(s)
		if err != nil {
			return err
		}
		s.Declare(vars[i].name, expr.String(val))
	}
	return nil
}
