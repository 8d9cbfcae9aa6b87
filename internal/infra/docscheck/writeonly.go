package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// atomicWriteRe matches the sync/atomic functions and methods that store
// into their target: Store, Add and Swap, and their typed forms.
var atomicWriteRe = regexp.MustCompile(`^(Store|Add|Swap)`)

// writeOnly reports each struct field and package-level var declared
// under internal/ (the prefix given) that non-test Go writes and never
// reads, keyed `pkg.Type.field` or `pkg.var`, and adds every candidate
// to exists. A candidate is a package-level var, or an untagged,
// non-embedded field of a named struct type (or of an anonymous struct
// that is such a field's or var's type): a tag means reflection reads
// the field. What a write is, writes says; every other appearance (len,
// range, an argument, &x.f, a method call or a method value) is a read.
func (l *loader) writeOnly(internal string, exists map[string]string) map[string]finding {
	cands := map[*types.Var]string{} // candidate -> key
	var addFields func(prefix string, st *types.Struct)
	addFields = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" {
				cands[f] = prefix + f.Name()
				if inner, ok := f.Type().(*types.Struct); ok {
					addFields(prefix+f.Name()+".", inner)
				}
			}
		}
	}
	for id, obj := range l.info.Defs {
		if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), internal) || id.Name == "_" {
			continue
		}
		key := strings.TrimPrefix(obj.Pkg().Path(), internal) + "." + id.Name
		switch o := obj.(type) {
		case *types.TypeName:
			if st, ok := o.Type().Underlying().(*types.Struct); ok && !o.IsAlias() {
				addFields(key+".", st)
			}
		case *types.Var:
			if o.Parent() == o.Pkg().Scope() {
				cands[o] = key
				if st, ok := o.Type().(*types.Struct); ok {
					addFields(key+".", st)
				}
			}
		}
	}

	writes := l.writes()
	read := map[*types.Var]bool{} // each candidate that appears: whether any appearance reads it
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && cands[v.Origin()] != "" {
			read[v.Origin()] = read[v.Origin()] || !writes[id]
		}
	}
	found := map[string]finding{}
	for v, key := range cands {
		exists[key] = "reader"
		if r, ok := read[v]; ok && !r {
			found[key] = finding{v.Pos(), "is written but never read in non-test Go"}
		}
	}
	return found
}

// writes returns the identifiers that appear only to be written: the
// target of = or op=, of ++ or --, of x.f[k] = v or delete(x.f, k); the
// x.f inside x.f = append(x.f, …); a struct literal's key; and what a
// sync/atomic Store, Add or Swap whose result is unused stores into.
func (l *loader) writes() map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{} // a nil key, for what writes no identifier, is never looked up
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					t := target(lhs)
					w[t] = true
					if t == nil || len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && l.isBuiltin(call, "append") {
						if a := target(call.Args[0]); a != nil && l.info.Uses[a] == l.info.Uses[t] {
							w[a] = true
						}
					}
				}
			case *ast.IncDecStmt:
				w[target(n.X)] = true
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					if v, ok := l.info.Uses[k].(*types.Var); ok && v.IsField() {
						w[k] = true
					}
				}
			case *ast.CallExpr:
				if l.isBuiltin(n, "delete") {
					w[target(n.Args[0])] = true
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					w[l.atomicTarget(call)] = true
				}
			}
			return true
		})
	}
	return w
}

// target returns the identifier an assignment to e writes: the name
// itself, a selector's field, or the container of an indexed element.
func target(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return target(e.X)
	}
	return nil
}

// isBuiltin reports whether call calls the named builtin function.
func (l *loader) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && l.info.Uses[id] == types.Universe.Lookup(name)
}

// atomicTarget returns what a sync/atomic Store, Add or Swap call
// stores into: the receiver of a method, or the operand of a function's
// first argument, &x.f.
func (l *loader) atomicTarget(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := l.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomicWriteRe.MatchString(fn.Name()) {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return target(sel.X)
	}
	if u, ok := call.Args[0].(*ast.UnaryExpr); ok && u.Op == token.AND {
		return target(u.X)
	}
	return nil
}
