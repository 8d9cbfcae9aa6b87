package dgl

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The XML a DGL document is written in, read without reflection: a pull
// tokenizer over the payload (this file), one reader function per
// element type of the schema (xmlread.go) and an append-style writer
// (xmlwrite.go). docs/WIRE.md, "XML accepted at the client edge", states
// the accepted language; xmldiff_test.go holds it against encoding/xml.

// token is what scanner.next found.
type token uint8

const (
	tokEOF   token = iota // end of the document, no element open
	tokStart              // a start tag: name and prefix are set, attr() walks its attributes
	tokEnd                // an end tag, or the end half of an empty-element tag
	tokText               // character data or a CDATA section: text is set
)

// maxDepth bounds how deep elements may nest. encoding/xml stops
// unmarshalling at depth 10 000, where one element is at most two
// levels, so nothing this reader accepts was refused there.
const maxDepth = 5000

// parseError is the one error type of the reader: ErrInvalid class,
// with the line the scanner stood on.
type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string {
	return ErrInvalid.Error() + ": line " + strconv.Itoa(e.line) + ": " + e.msg
}

func (e *parseError) Unwrap() error { return ErrInvalid }

// Byte classes. A value made only of unclassed bytes stands for itself:
// it is ASCII without control characters, references or carriage
// returns, so the span in the document is the decoded value.
const (
	cText  uint8 = 1 << iota // ends the plain run of character data
	cAttr                    // ends the plain run of an attribute value
	cName                    // may be part of a name (every non-ASCII byte may; isName decides)
	cSpace                   // white space inside tags
	cEsc                     // the writer cannot copy it as it is (escape)
)

var class = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cText | cAttr | cName | cEsc
		case c < ' ' && c != '\t' && c != '\n':
			t[c] = cText | cAttr | cEsc
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			t[c] = cName
		}
	}
	for _, c := range "<&]" {
		t[c] |= cText
	}
	for _, c := range "<&\"'" {
		t[c] |= cAttr
	}
	for _, c := range "_:.-" {
		t[c] |= cName
	}
	for _, c := range " \t\r\n" {
		t[c] |= cSpace
	}
	for _, c := range "\"'&<>\t\n\r" {
		t[c] |= cEsc
	}
	return t
}()

// nameSpan is the qualified name of an open element, as offsets.
type nameSpan struct{ from, to int32 }

// scanner is a pull tokenizer over a document held in memory. It checks
// what encoding/xml's strict tokenizer checks — names, attribute syntax,
// references, UTF-8, the characters XML allows, that tags nest — and
// returns spans of the document, or of its scratch buffer when a value
// had to be decoded. It allocates only that buffer, and only then.
type scanner struct {
	data []byte
	pos  int

	name    []byte // local name of the start tag or attribute last returned
	prefix  []byte // what preceded its colon, nil without one
	text    []byte // tokText: the character data
	decoded bool   // text lies in buf, valid until the next token or attribute

	inTag      bool // a start tag's attributes are not consumed yet
	selfClosed bool // that tag ended in "/>": its end is the next token

	// The open elements: the first len(open) inline, the rest in deep.
	open  [16]nameSpan
	deep  []nameSpan
	depth int

	buf []byte
}

func (s *scanner) fail(at int, format string, args ...any) error {
	at = min(at, len(s.data))
	return &parseError{line: 1 + bytes.Count(s.data[:at], []byte{'\n'}), msg: fmt.Sprintf(format, args...)}
}

func (s *scanner) eof() error {
	return s.fail(len(s.data), "unexpected end of document")
}

func (s *scanner) push(n nameSpan) {
	if s.depth < len(s.open) {
		s.open[s.depth] = n
	} else {
		s.deep = append(s.deep[:s.depth-len(s.open)], n)
	}
	s.depth++
}

func (s *scanner) top() []byte {
	n := s.open[min(s.depth, len(s.open))-1]
	if s.depth > len(s.open) {
		n = s.deep[s.depth-len(s.open)-1]
	}
	return s.data[n.from:n.to]
}

// next returns the next token. Comments and processing instructions are
// skipped; attributes the caller left unread are checked and dropped.
func (s *scanner) next() (token, error) {
	for s.inTag {
		if _, _, _, err := s.attr(); err != nil {
			return 0, err
		}
	}
	if s.selfClosed {
		s.selfClosed = false
		s.depth--
		return tokEnd, nil
	}
	d := s.data
	for {
		if s.pos >= len(d) {
			if s.depth > 0 {
				return 0, s.eof()
			}
			return tokEOF, nil
		}
		if d[s.pos] != '<' {
			return s.charData()
		}
		if s.pos+1 >= len(d) {
			return 0, s.eof()
		}
		var err error
		switch d[s.pos+1] {
		case '/':
			return s.endTag()
		case '?':
			err = s.procInst()
		case '!':
			switch rest := d[s.pos:]; {
			case bytes.HasPrefix(rest, []byte("<!--")):
				err = s.comment()
			case bytes.HasPrefix(rest, []byte("<![CDATA[")):
				return s.cdata()
			case len(rest) == 2, rest[2] == '-', rest[2] == '[':
				err = s.fail(s.pos, "invalid <! sequence")
			default:
				err = s.fail(s.pos, "document type declarations and other <!…> directives are not accepted")
			}
		default:
			return s.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

func (s *scanner) startTag() (token, error) {
	at := s.pos + 1
	end, err := s.qname(at, "expected element name after <")
	if err != nil {
		return 0, err
	}
	if s.depth == maxDepth {
		return 0, s.fail(s.pos, "elements nested deeper than %d", maxDepth)
	}
	s.push(nameSpan{int32(at), int32(end)})
	s.pos, s.inTag = end, true
	return tokStart, nil
}

func (s *scanner) endTag() (token, error) {
	at := s.pos + 2
	end, err := s.qname(at, "expected element name after </")
	if err != nil {
		return 0, err
	}
	raw := s.data[at:end]
	i := s.space(end)
	if i >= len(s.data) {
		return 0, s.eof()
	}
	if s.data[i] != '>' {
		return 0, s.fail(i, "invalid characters between </%s and >", raw)
	}
	if s.depth == 0 {
		return 0, s.fail(s.pos, "unexpected end element </%s>", raw)
	}
	if open := s.top(); !bytes.Equal(open, raw) {
		return 0, s.fail(s.pos, "element <%s> closed by </%s>", open, raw)
	}
	s.depth--
	s.pos = i + 1
	return tokEnd, nil
}

// attr returns the next attribute of the start tag last returned: its
// local name and its decoded value, good until the next call. ok is
// false once the tag has ended.
func (s *scanner) attr() (name, val []byte, ok bool, err error) {
	d := s.data
	i := s.space(s.pos)
	if i >= len(d) {
		return nil, nil, false, s.eof()
	}
	switch d[i] {
	case '>':
		s.pos, s.inTag = i+1, false
		return nil, nil, false, nil
	case '/':
		if i+1 >= len(d) {
			return nil, nil, false, s.eof()
		}
		if d[i+1] != '>' {
			return nil, nil, false, s.fail(i, "expected /> in element")
		}
		s.pos, s.inTag, s.selfClosed = i+2, false, true
		return nil, nil, false, nil
	}
	if i, err = s.qname(i, "expected attribute name in element"); err != nil {
		return nil, nil, false, err
	}
	if i = s.space(i); i >= len(d) {
		return nil, nil, false, s.eof()
	}
	if d[i] != '=' {
		return nil, nil, false, s.fail(i, "attribute name without = in element")
	}
	if i = s.space(i + 1); i >= len(d) {
		return nil, nil, false, s.eof()
	}
	quote := d[i]
	if quote != '"' && quote != '\'' {
		return nil, nil, false, s.fail(i, "unquoted or missing attribute value in element")
	}
	other := byte('"' + '\'' - quote) // the quote that does not end the value
	from := i + 1
	for i = from; i < len(d) && (class[d[i]]&cAttr == 0 || d[i] == other); i++ {
	}
	plain := i < len(d) && d[i] == quote
	for ; i < len(d) && d[i] != quote; i++ {
		if d[i] == '<' {
			return nil, nil, false, s.fail(i, "unescaped < inside quoted string")
		}
	}
	if i >= len(d) {
		return nil, nil, false, s.eof()
	}
	val = d[from:i]
	if !plain {
		if val, err = s.decode(val, from, true); err != nil {
			return nil, nil, false, err
		}
	}
	s.pos = i + 1
	return s.name, val, true, nil
}

// charData reads character data up to the next tag.
func (s *scanner) charData() (token, error) {
	d, from := s.data, s.pos
	i := from
	for i < len(d) && (class[d[i]]&cText == 0 || d[i] == ']' && !bytes.HasPrefix(d[i:], []byte("]]>"))) {
		i++
	}
	s.text, s.decoded = d[from:i], false
	if i < len(d) && d[i] != '<' {
		if j := bytes.IndexByte(d[i:], '<'); j >= 0 {
			i += j
		} else {
			i = len(d)
		}
		if j := bytes.Index(d[from:i], []byte("]]>")); j >= 0 {
			return 0, s.fail(from+j, "unescaped ]]> not in CDATA section")
		}
		var err error
		if s.text, err = s.decode(d[from:i], from, true); err != nil {
			return 0, err
		}
		s.decoded = true
	}
	s.pos = i
	return tokText, nil
}

func (s *scanner) cdata() (token, error) {
	from := s.pos + len("<![CDATA[")
	n := bytes.Index(s.data[from:], []byte("]]>"))
	if n < 0 {
		return 0, s.fail(len(s.data), "unexpected end of document in CDATA section")
	}
	var err error
	if s.text, err = s.decode(s.data[from:from+n], from, false); err != nil {
		return 0, err
	}
	s.decoded = true
	s.pos = from + n + len("]]>")
	return tokText, nil
}

func (s *scanner) comment() error {
	from := s.pos + len("<!--")
	n := bytes.Index(s.data[from:], []byte("--"))
	if n < 0 || from+n+2 >= len(s.data) {
		return s.eof()
	}
	if s.data[from+n+2] != '>' {
		return s.fail(from+n, `invalid sequence "--" not allowed in comments`)
	}
	s.pos = from + n + 3
	return nil
}

// procInst skips a processing instruction. The XML declaration is one:
// it may name no version but 1.0 and no encoding but UTF-8.
func (s *scanner) procInst() error {
	at := s.pos + 2
	end, err := s.ncname(at, "expected target name after <?")
	if err != nil {
		return err
	}
	target := s.data[at:end]
	from := s.space(end)
	n := bytes.Index(s.data[from:], []byte("?>"))
	if n < 0 {
		return s.eof()
	}
	if string(target) == "xml" {
		content := s.data[from : from+n]
		if v := pseudoAttr(content, "version="); len(v) > 0 && string(v) != "1.0" {
			return s.fail(s.pos, "unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := pseudoAttr(content, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return s.fail(s.pos, "encoding %q declared; only UTF-8 is supported", enc)
		}
	}
	s.pos = from + n + 2
	return nil
}

// pseudoAttr finds param (which ends in '=') in an XML declaration and
// returns the quoted value after it, the way encoding/xml looks for it.
func pseudoAttr(content []byte, param string) []byte {
	var quote byte
	i := 0
	for quote == 0 {
		k := bytes.Index(content[i:], []byte(param))
		if k < 0 || i+k+len(param) >= len(content) {
			return nil
		}
		i += k + len(param) + 1
		if c := content[i-1]; c == '\'' || c == '"' {
			quote = c
		}
	}
	j := bytes.IndexByte(content[i:], quote)
	if j < 0 {
		return nil
	}
	return content[i : i+j]
}

// trailer checks what follows the root element: white space, comments
// and processing instructions, nothing else.
func (s *scanner) trailer() error {
	for {
		s.pos = s.space(s.pos)
		var err error
		switch {
		case s.pos >= len(s.data):
			return nil
		case bytes.HasPrefix(s.data[s.pos:], []byte("<!--")):
			err = s.comment()
		case bytes.HasPrefix(s.data[s.pos:], []byte("<?")):
			err = s.procInst()
		default:
			return s.fail(s.pos, "content after the root element")
		}
		if err != nil {
			err.(*parseError).msg += " after the root element"
			return err
		}
	}
}

func (s *scanner) space(i int) int {
	for i < len(s.data) && class[s.data[i]]&cSpace != 0 {
		i++
	}
	return i
}

// qname reads the element or attribute name that starts at from, sets
// name and prefix from it and returns where it ends. A name is split at
// its colon when it has exactly one, with something on both sides;
// names are matched by their local part.
func (s *scanner) qname(from int, missing string) (end int, err error) {
	if end, err = s.ncname(from, missing); err != nil {
		return 0, err
	}
	raw := s.data[from:end]
	colon := bytes.IndexByte(raw, ':')
	if colon >= 0 && bytes.IndexByte(raw[colon+1:], ':') >= 0 {
		return 0, s.fail(from, "%s", missing)
	}
	s.name, s.prefix = raw, nil
	if colon > 0 && colon < len(raw)-1 {
		s.name, s.prefix = raw[colon+1:], raw[:colon]
	}
	return end, nil
}

// ncname checks that a Name of XML 1.0 starts at from and returns where
// it ends.
func (s *scanner) ncname(from int, missing string) (end int, err error) {
	d := s.data
	i, or := from, byte(0)
	for ; i < len(d) && class[d[i]]&cName != 0; i++ {
		or |= d[i]
	}
	if i == from {
		if i >= len(d) {
			return 0, s.eof()
		}
		return 0, s.fail(from, "%s", missing)
	}
	raw := d[from:i]
	if c := raw[0]; or >= utf8.RuneSelf && !isName(raw) || c >= '0' && c <= '9' || c == '-' || c == '.' {
		return 0, s.fail(from, "invalid XML name: %s", raw)
	}
	return i, nil
}

// isName reports whether b is a Name of XML 1.0. Only names with a
// non-ASCII byte get here.
func isName(b []byte) bool {
	for i := 0; i < len(b); {
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(nameStart, r) && (i == 0 || !unicode.Is(nameChar, r)) {
			return false
		}
		i += n
	}
	return true
}

// isChar reports whether r is in the Char production of XML 1.0.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// decode writes what raw stands for into buf and returns it: references
// resolved (refs; not in CDATA), "\r\n" and "\r" turned into "\n". The
// result must be UTF-8 and hold only characters XML allows. Only the
// five predefined entities exist: the document cannot declare others.
func (s *scanner) decode(raw []byte, at int, refs bool) ([]byte, error) {
	buf := s.buf[:0]
	afterCR := false
	for i := 0; i < len(raw); i++ {
		switch b := raw[i]; {
		case b == '&' && refs:
			r, n := reference(raw[i:])
			if n == 0 {
				s.buf = buf
				return nil, s.fail(at+i, "invalid character entity %s", raw[i:min(i+12, len(raw))])
			}
			buf = utf8.AppendRune(buf, r)
			i += n - 1
			afterCR = false
		case b == '\r':
			buf = append(buf, '\n')
			afterCR = true
		case b == '\n' && afterCR:
			afterCR = false
		default:
			buf = append(buf, b)
			afterCR = false
		}
	}
	s.buf = buf
	for i := 0; i < len(buf); {
		r, n := rune(buf[i]), 1
		if r >= utf8.RuneSelf {
			if r, n = utf8.DecodeRune(buf[i:]); r == utf8.RuneError && n == 1 {
				return nil, s.fail(at, "invalid UTF-8")
			}
		}
		if !isChar(r) {
			return nil, s.fail(at, "illegal character code %U", r)
		}
		i += n
	}
	return buf, nil
}

// reference resolves the character or entity reference b starts with
// and returns its length, 0 when it is not one.
func reference(b []byte) (rune, int) {
	for _, e := range [...]struct {
		ref string
		r   rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if bytes.HasPrefix(b, []byte(e.ref)) {
			return e.r, len(e.ref)
		}
	}
	if len(b) < 4 || b[1] != '#' {
		return 0, 0
	}
	i, base := 2, 10
	if b[i] == 'x' {
		i, base = 3, 16
	}
	from := i
	for i < len(b) && (b[i] >= '0' && b[i] <= '9' || base == 16 && (b[i]|0x20 >= 'a' && b[i]|0x20 <= 'f')) {
		i++
	}
	if i >= len(b) || b[i] != ';' {
		return 0, 0
	}
	n, err := strconv.ParseUint(string(b[from:i]), base, 64)
	if err != nil || n > unicode.MaxRune {
		return 0, 0
	}
	return rune(n), i + 1
}
