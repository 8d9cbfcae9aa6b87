package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokString
	tokIdent  // bare identifier or keyword (true/false/null) or function name
	tokDollar // $name variable reference
	tokLParen
	tokRParen
	tokComma
	tokOp // one of the operator strings below
)

type token struct {
	kind tokenKind
	text string  // raw text (operator, identifier, variable name)
	num  float64 // valid when kind == tokNumber
	str  string  // decoded value when kind == tokString
	pos  int     // byte offset in the source, for error messages
}

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Src string // the expression source
	Pos int    // byte offset of the failure
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %q", e.Msg, e.Pos, e.Src)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Src: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case c == '\'' || c == '"':
		return l.lexString(c)
	case c == '$':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '{' {
			end := strings.IndexByte(l.src[l.pos:], '}')
			if end < 0 {
				return token{}, l.errf(start, "unterminated ${...} variable")
			}
			name := l.src[l.pos+1 : l.pos+end]
			l.pos += end + 1
			if name == "" {
				return token{}, l.errf(start, "empty ${} variable name")
			}
			return token{kind: tokDollar, text: name, pos: start}, nil
		}
		nameStart := l.pos
		l.pos = identEnd(l.src, l.pos)
		if l.pos == nameStart {
			return token{}, l.errf(start, "expected variable name after '$'")
		}
		return token{kind: tokDollar, text: l.src[nameStart:l.pos], pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case startsIdent(l.src, l.pos):
		return l.lexIdent()
	default:
		return l.lexOp()
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentChar(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// runeAt decodes the rune at s[i], i < len(s), and its width; ASCII is
// taken byte by byte, without decoding.
func runeAt(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

// startsIdent reports whether a name starts at s[i], i < len(s).
func startsIdent(s string, i int) bool {
	r, _ := runeAt(s, i)
	return isIdentStart(r)
}

// identEnd returns the end of the run of name characters from s[i].
// Names are read a rune at a time: "$é" names "é", where reading bytes
// would stop inside its UTF-8 sequence.
func identEnd(s string, i int) int {
	for i < len(s) {
		r, n := runeAt(s, i)
		if !isIdentChar(r) {
			break
		}
		i += n
	}
	return i
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errf(start, "bad number %q", text)
	}
	return token{kind: tokNumber, text: text, num: f, pos: start}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // consume opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, str: sb.String(), pos: start}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated escape in string")
			}
			e := l.src[l.pos]
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\', '\'', '"':
				sb.WriteByte(e)
			default:
				return token{}, l.errf(l.pos, "unknown escape \\%c", e)
			}
			l.pos++
		default:
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			sb.WriteRune(r)
			l.pos += size
		}
	}
	return token{}, l.errf(start, "unterminated string")
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	l.pos = identEnd(l.src, l.pos)
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
}

var twoCharOps = []string{"==", "!=", "<=", ">=", "&&", "||"}

func (l *lexer) lexOp() (token, error) {
	start := l.pos
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, op := range twoCharOps {
			if two == op {
				l.pos += 2
				return token{kind: tokOp, text: op, pos: start}, nil
			}
		}
	}
	switch c := l.src[l.pos]; c {
	case '<', '>', '!', '+', '-', '*', '/', '%', '=':
		l.pos++
		text := string(c)
		if text == "=" {
			// Accept single '=' as equality, matching how workflow authors
			// commonly write conditions ("$state = 'done'").
			text = "=="
		}
		return token{kind: tokOp, text: text, pos: start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", string(l.src[l.pos]))
	}
}
