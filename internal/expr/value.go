// Package expr implements the small expression language used throughout
// the Data Grid Language (DGL): trigger conditions (tCondition), while-loop
// and switch-case guards, and $variable interpolation inside step
// parameters.
//
// The language is deliberately simple — the paper describes tCondition as
// "usually [a] simple string that is evaluated" with support for DGL
// variables — but it is implemented as a real lexer/parser/evaluator so
// that conditions compose: comparisons, boolean connectives, arithmetic,
// string functions and variable references all work uniformly.
//
// Grammar (EBNF, precedence low→high):
//
//	expr     = or ;
//	or       = and { "||" and } ;
//	and      = not { "&&" not } ;
//	not      = "!" not | cmp ;
//	cmp      = sum [ ("=="|"!="|"<"|"<="|">"|">=") sum ] ;
//	sum      = term { ("+"|"-") term } ;
//	term     = unary { ("*"|"/"|"%") unary } ;
//	unary    = "-" unary | primary ;
//	primary  = NUMBER | STRING | "true" | "false" | "null"
//	         | IDENT [ "(" args ")" ] | "$" IDENT | "(" expr ")" ;
//
// Values are dynamically typed: null, bool, number (float64) or string.
package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind int

// The possible kinds of a Value.
const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed value produced by evaluating an expression
// or stored in a DGL variable scope.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
}

// Null is the null value.
var Null = Value{kind: KindNull}

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number returns a numeric Value.
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }

// Int returns a numeric Value from an integer.
func Int(n int64) Value { return Value{kind: KindNumber, n: float64(n)} }

// String returns a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool converts the value to a boolean using truthiness rules:
// null→false, bool→itself, number→ ≠0, string→non-empty and not "false"/"0".
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindNumber:
		return v.n != 0
	case KindString:
		return v.s != "" && v.s != "false" && v.s != "0"
	default:
		return false
	}
}

// AsNumber converts the value to a float64. Strings are parsed; booleans
// map to 0/1; null is 0. The second result reports whether the conversion
// was exact (a numeric string, a number, a bool, or null).
func (v Value) AsNumber() (float64, bool) {
	switch v.kind {
	case KindNumber:
		return v.n, true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case KindString:
		s := strings.TrimSpace(v.s)
		// Most strings that reach here are names and paths. ParseFloat
		// would build a *NumError (and clone s into it) only for the
		// failure to be dropped, so text that cannot open a float — not a
		// digit, sign, point, or the first letter of inf/nan — is turned
		// away first.
		if s == "" || !floatStart(s[0]) {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	default:
		return 0, true
	}
}

// floatStart reports whether c can begin a strconv.ParseFloat input.
func floatStart(c byte) bool {
	switch c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	}
	return '0' <= c && c <= '9'
}

// AsString renders the value as a string. Numbers print without a trailing
// ".0" when integral so that interpolated file names stay clean.
func (v Value) AsString() string {
	switch v.kind {
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindNumber:
		if v.n == math.Trunc(v.n) && math.Abs(v.n) < 1e15 {
			return strconv.FormatInt(int64(v.n), 10)
		}
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// appendTo appends AsString's rendering to b without the intermediate
// string.
func (v Value) appendTo(b []byte) []byte {
	if v.kind == KindNumber && v.n == math.Trunc(v.n) && math.Abs(v.n) < 1e15 {
		return strconv.AppendInt(b, int64(v.n), 10)
	}
	return append(b, v.AsString()...)
}

// Equal reports deep equality with numeric coercion: a numeric string
// compares equal to the number it denotes, mirroring how DGL variables
// (which are stored as strings in documents) compare against literals.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindBool:
			return v.b == o.b
		case KindNumber:
			return v.n == o.n
		default:
			return v.s == o.s
		}
	}
	// Cross-kind: try numeric comparison when either side is a number.
	if v.kind == KindNumber || o.kind == KindNumber {
		a, okA := v.AsNumber()
		b, okB := o.AsNumber()
		if okA && okB {
			return a == b
		}
	}
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	return v.AsString() == o.AsString()
}

// Compare orders two values: -1, 0 or +1. Numbers (and numeric strings)
// compare numerically; otherwise lexical string order applies. The error
// is non-nil when the values are incomparable (e.g. null).
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, fmt.Errorf("expr: cannot order %s against %s", v.kind, o.kind)
	}
	a, okA := v.AsNumber()
	b, okB := o.AsNumber()
	if okA && okB {
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return strings.Compare(v.AsString(), o.AsString()), nil
}

// GoString implements fmt.GoStringer for debugging.
func (v Value) GoString() string {
	switch v.kind {
	case KindString:
		return strconv.Quote(v.s)
	default:
		return v.AsString()
	}
}

// Env supplies variable bindings to Eval. Lookup returns the value bound
// to name and whether the binding exists.
type Env interface {
	Lookup(name string) (Value, bool)
}

// MapEnv is an Env backed by a map; nil works as an empty environment.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}

// ChainEnv looks up a name in each environment in turn, enabling the
// nested variable scopes DGL flows require (inner flow shadows outer).
type ChainEnv []Env

// Lookup implements Env.
func (c ChainEnv) Lookup(name string) (Value, bool) {
	for _, e := range c {
		if e == nil {
			continue
		}
		if v, ok := e.Lookup(name); ok {
			return v, true
		}
	}
	return Null, false
}
