package expr

import "fmt"

// Expr is a parsed expression ready for repeated evaluation. Parsing once
// and evaluating many times matters for while-loops over large collections.
type Expr struct {
	src  string
	root node
}

// String returns the original source text.
func (e *Expr) String() string { return e.src }

type node interface {
	eval(env Env) (Value, error)
}

// Parse compiles src into an Expr. An empty (or all-whitespace) source is
// an error; callers that treat "no condition" as "true" must check first.
func Parse(src string) (*Expr, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokEOF {
		return nil, &SyntaxError{Src: src, Pos: 0, Msg: "empty expression"}
	}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("unexpected trailing %q", p.tok.text)
	}
	return &Expr{src: src, root: root}, nil
}

// Eval evaluates the expression against env. A nil env means no variables
// are bound; referencing an unbound variable yields null rather than an
// error, which lets conditions like "$retries == null" probe for bindings.
func (e *Expr) Eval(env Env) (Value, error) {
	if env == nil {
		env = MapEnv(nil)
	}
	return e.root.eval(env)
}

// EvalBool evaluates the expression and coerces the result to a boolean.
func (e *Expr) EvalBool(env Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errHere(format string, args ...any) error {
	return &SyntaxError{Src: p.lex.src, Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &logicalNode{op: "||", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &logicalNode{op: "&&", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (node, error) {
	if p.tok.kind == tokOp && p.tok.text == "!" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notNode{inner: inner}, nil
	}
	return p.parseCmp()
}

func isCmpOp(s string) bool {
	switch s {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseCmp() (node, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && isCmpOp(p.tok.text) {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return &cmpNode{op: op, left: left, right: right}, nil
	}
	return left, nil
}

func (p *parser) parseSum() (node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &arithNode{op: op, left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/" || p.tok.text == "%") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &arithNode{op: op, left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (node, error) {
	if p.tok.kind == tokOp && p.tok.text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negNode{inner: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	switch p.tok.kind {
	case tokNumber:
		n := &litNode{v: Number(p.tok.num)}
		return n, p.advance()
	case tokString:
		n := &litNode{v: String(p.tok.str)}
		return n, p.advance()
	case tokDollar:
		n := &varNode{name: p.tok.text}
		return n, p.advance()
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errHere("expected ')'")
		}
		return inner, p.advance()
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return &litNode{v: Bool(true)}, nil
		case "false":
			return &litNode{v: Bool(false)}, nil
		case "null", "nil":
			return &litNode{v: Null}, nil
		}
		if p.tok.kind == tokLParen {
			return p.parseCall(name)
		}
		// A bare identifier is treated as a variable reference so that
		// legacy conditions written without '$' still resolve.
		return &varNode{name: name}, nil
	default:
		return nil, p.errHere("unexpected token %q", p.tok.text)
	}
}

func (p *parser) parseCall(name string) (node, error) {
	fn, ok := builtins[name]
	if !ok {
		return nil, p.errHere("unknown function %q", name)
	}
	if err := p.advance(); err != nil { // consume '('
		return nil, err
	}
	var args []node
	if p.tok.kind != tokRParen {
		for {
			arg, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.tok.kind != tokRParen {
		return nil, p.errHere("expected ')' after arguments to %s", name)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if fn.arity >= 0 && len(args) != fn.arity {
		return nil, p.errHere("%s expects %d argument(s), got %d", name, fn.arity, len(args))
	}
	return &callNode{name: name, fn: fn.impl, args: args}, nil
}
