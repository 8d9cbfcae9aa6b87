package expr

import (
	"fmt"
	"strings"
)

// Template is a string with $name and ${name} references to bound
// values, split once into literal and variable segments. Unbound
// variables render as the empty string, and "$$" escapes a literal
// dollar sign. This is how DGL step parameters reference flow
// variables, e.g. "/grid/scec/${run}/output.dat".
//
// A template is compiled once for strings rendered many times against
// changing bindings: a step parameter inside a loop, a variable
// declaration re-run per iteration. A string with no reference in it is
// a constant; a malformed one carries its error and reports it from
// every Render.
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

// CompileTemplate splits s into its segments. It never fails: a compile
// error is kept in the Template and surfaces when the string is
// rendered.
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
		case startsIdent(s, i+1):
			j := identEnd(s, i+1)
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

// Render substitutes the template's references from env: unbound
// variables render empty, a nil env binds nothing.
func (t *Template) Render(env Env) (string, error) {
	var stack [128]byte
	s, buf, err := t.Append(stack[:0], env)
	if len(buf) > 0 {
		s = string(buf)
	}
	return s, err
}

// Append is Render for a caller that decides where the text is kept. A
// rendering that is a string already — the constant, or the value of a
// lone "${name}" — comes back as s, with buf as it was; any other is
// appended to buf, and s is empty.
func (t *Template) Append(buf []byte, env Env) (s string, out []byte, err error) {
	if t.err != nil {
		return "", buf, t.err
	}
	if t.segs == nil {
		return t.src, buf, nil
	}
	if env == nil {
		env = MapEnv(nil)
	}
	if sg := t.segs[0]; len(t.segs) == 1 {
		if sg.name == "" {
			return sg.lit, buf, nil
		}
		// "${path}" alone: the value's own string, no copy.
		v, _ := env.Lookup(sg.name)
		return v.AsString(), buf, nil
	}
	for _, sg := range t.segs {
		if sg.name == "" {
			buf = append(buf, sg.lit...)
		} else if v, ok := env.Lookup(sg.name); ok {
			buf = v.AppendTo(buf)
		}
	}
	return "", buf, nil
}
