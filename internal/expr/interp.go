package expr

import (
	"fmt"
	"strings"
)

// Interpolate substitutes $name and ${name} references in s with the
// string form of their bound values. Unbound variables substitute to the
// empty string. "$$" escapes a literal dollar sign.
//
// This is how DGL step parameters reference flow variables, e.g.
// "/grid/scec/${run}/output.dat".
func Interpolate(s string, env Env) (string, error) {
	if !strings.ContainsRune(s, '$') {
		return s, nil
	}
	if env == nil {
		env = MapEnv(nil)
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '$' {
			sb.WriteByte(c)
			i++
			continue
		}
		// c == '$'
		if i+1 >= len(s) {
			sb.WriteByte('$')
			break
		}
		next := s[i+1]
		switch {
		case next == '$':
			sb.WriteByte('$')
			i += 2
		case next == '{':
			end := strings.IndexByte(s[i+2:], '}')
			if end < 0 {
				return "", fmt.Errorf("expr: unterminated ${...} in %q", s)
			}
			name := s[i+2 : i+2+end]
			if name == "" {
				return "", fmt.Errorf("expr: empty ${} in %q", s)
			}
			if v, ok := env.Lookup(name); ok {
				sb.WriteString(v.AsString())
			}
			i += 2 + end + 1
		case isIdentStart(rune(next)):
			j := i + 1
			for j < len(s) && isIdentChar(rune(s[j])) {
				j++
			}
			name := s[i+1 : j]
			if v, ok := env.Lookup(name); ok {
				sb.WriteString(v.AsString())
			}
			i = j
		default:
			sb.WriteByte('$')
			i++
		}
	}
	return sb.String(), nil
}

// Template is Interpolate split once into literal and variable
// segments, for strings rendered many times against changing bindings: a
// step parameter inside a loop, a variable declaration re-run per
// iteration. A string with no reference in it is a constant; a malformed
// one carries its error and reports it from every Render, with the text
// Interpolate would give.
type Template struct {
	src  string
	segs []segment // nil when there is nothing to substitute
	err  error
}

// segment is one piece of a Template: a variable reference when name is
// set, literal text otherwise.
type segment struct {
	lit, name string
}

// CompileTemplate splits s the way Interpolate scans it. It never
// fails: a compile error is kept in the Template and surfaces when the
// string would have been interpolated.
func CompileTemplate(s string) Template {
	t := Template{src: s}
	if strings.IndexByte(s, '$') < 0 {
		return t
	}
	segs := make([]segment, 0, 2*strings.Count(s, "$")+1)
	vars := false
	lit := func(text string) {
		if text != "" {
			segs = append(segs, segment{lit: text})
		}
	}
	from := 0 // start of the literal run not yet emitted
	for i := 0; i < len(s); {
		if s[i] != '$' {
			i++
			continue
		}
		if i+1 >= len(s) {
			break // a trailing "$" is literal
		}
		next := s[i+1]
		switch {
		case next == '$':
			lit(s[from : i+1])
			i += 2
			from = i
		case next == '{':
			end := strings.IndexByte(s[i+2:], '}')
			if end < 0 {
				return Template{src: s, err: fmt.Errorf("expr: unterminated ${...} in %q", s)}
			}
			name := s[i+2 : i+2+end]
			if name == "" {
				return Template{src: s, err: fmt.Errorf("expr: empty ${} in %q", s)}
			}
			lit(s[from:i])
			segs = append(segs, segment{name: name})
			vars = true
			i += 2 + end + 1
			from = i
		case isIdentStart(rune(next)):
			j := i + 1
			for j < len(s) && isIdentChar(rune(s[j])) {
				j++
			}
			lit(s[from:i])
			segs = append(segs, segment{name: s[i+1 : j]})
			vars = true
			i = j
			from = i
		default:
			i++ // a "$" before anything else is literal
		}
	}
	lit(s[from:])
	if !vars {
		// Only "$$" escapes: the rendering is fixed, so fold it now.
		folded := ""
		for _, sg := range segs {
			folded += sg.lit
		}
		segs = append(segs[:0], segment{lit: folded})
	}
	t.segs = segs
	return t
}

// Src returns the string the template was compiled from.
func (t *Template) Src() string { return t.src }

// Render substitutes the template's references from env, exactly as
// Interpolate does for the source string: unbound variables render
// empty, a nil env binds nothing.
func (t *Template) Render(env Env) (string, error) {
	if t.err != nil {
		return "", t.err
	}
	if t.segs == nil {
		return t.src, nil
	}
	if env == nil {
		env = MapEnv(nil)
	}
	if sg := t.segs[0]; len(t.segs) == 1 {
		if sg.name == "" {
			return sg.lit, nil
		}
		// "${path}" alone: the value's own string, no copy.
		v, _ := env.Lookup(sg.name)
		return v.AsString(), nil
	}
	var stack [128]byte
	buf := stack[:0]
	for _, sg := range t.segs {
		if sg.name == "" {
			buf = append(buf, sg.lit...)
		} else if v, ok := env.Lookup(sg.name); ok {
			buf = v.appendTo(buf)
		}
	}
	return string(buf), nil
}

// Vars returns the set of variable names referenced by the expression, in
// no particular order. Validation uses it to flag conditions that mention
// variables a flow never declares.
func (e *Expr) Vars() []string {
	seen := map[string]bool{}
	var walk func(n node)
	walk = func(n node) {
		switch t := n.(type) {
		case *varNode:
			seen[t.name] = true
		case *notNode:
			walk(t.inner)
		case *negNode:
			walk(t.inner)
		case *logicalNode:
			walk(t.left)
			walk(t.right)
		case *cmpNode:
			walk(t.left)
			walk(t.right)
		case *arithNode:
			walk(t.left)
			walk(t.right)
		case *callNode:
			for _, a := range t.args {
				walk(a)
			}
		}
	}
	walk(e.root)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	return out
}
