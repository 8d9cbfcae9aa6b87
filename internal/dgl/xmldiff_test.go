package dgl

import (
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The reflective decoder and encoder the package used to run on, kept as
// the reference the schema-directed reader and writer are held against.

// narrowed reports whether err is one of the refusals this package adds
// to encoding/xml's: the only errors it may return for a document the
// reference accepts.
func narrowed(err error) bool {
	var pe *parseError
	return errors.As(err, &pe) && pe.kind != errSyntax
}

// diff holds one decoder against the reference on one document: it
// never accepts what the reference rejects, agrees with it on what both
// accept, and rejects on its own only the narrowed cases.
func diff[T any](t *testing.T, data []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	got, err := decode(data)
	want := new(T)
	refErr := xml.Unmarshal(data, want)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("accepted a document encoding/xml rejects (%v):\n%q", refErr, data)
	case err != nil && refErr == nil && !narrowed(err):
		t.Fatalf("rejected a document encoding/xml accepts: %v\n%q", err, data)
	case err != nil && !errors.Is(err, ErrInvalid):
		t.Fatalf("error outside the ErrInvalid class: %v", err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoded differently from encoding/xml:\n got %+v\nwant %+v\n%q", got, want, data)
	}
}

func diffRequest(t *testing.T, data []byte) { diff(t, data, DecodeRequest) }

func diffResponse(t *testing.T, data []byte) { diff(t, data, ParseResponse) }

// mixDocs are the five documents of the benchmark's client_mix
// workload: the async submit, the status query, and the three replies.
func mixDocs(t testing.TB) (submit, query, ack, status, detail []byte) {
	b := NewFlow("mix-17")
	for v := 0; v < 8; v++ {
		b.Var("v"+strconv.Itoa(v), strings.Repeat("k3j9x0qa", 16))
	}
	req := NewAsyncRequest("tenant-3", "", b.Step("noop", Op(OpNoop, nil)).Flow())
	node := FlowStatus{ID: "peerB:dgf-000042", Name: "pre-1041", Kind: "flow", State: "succeeded",
		Started: "2005-08-01T00:00:00Z", Finished: "2005-08-01T00:00:00Z"}
	tree := node
	tree.Children = []FlowStatus{{ID: "peerB:dgf-000042/noop", Name: "noop", Kind: "step", State: "succeeded",
		Started: "2005-08-01T00:00:00Z", Finished: "2005-08-01T00:00:00Z"}}
	docs := make([][]byte, 0, 5)
	for _, v := range []any{
		req,
		NewStatusRequest("tenant-3", "peerB:dgf-000042", true),
		&Response{Ack: &Ack{ID: "peerB:dgf-000042", Status: "pending", Valid: true}},
		&Response{Status: &node},
		&Response{Status: &tree},
	} {
		doc, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return docs[0], docs[1], docs[2], docs[3], docs[4]
}

// nasties are small documents at the edges of the accepted language.
var nasties = []string{
	// Values in pieces: CDATA, comments, nested foreign elements.
	`<dataGridRequest><gridUser><name>a<![CDATA[<&]]]>b<!-- c -->c<x>no<y/></x>d</name></gridUser></dataGridRequest>`,
	`<dataGridRequest><flow name="f"><variables><variable name="v"><![CDATA[]]></variable><variable name="w"> <![CDATA[ x ]]> </variable></variables></flow></dataGridRequest>`,
	// References, in text and in both kinds of quote.
	`<dataGridRequest route='a&quot;&apos;"' token="&#x41;&#66;&lt;&gt;&amp;'"><gridUser><name>&#x10FFFF;&#xD7FF;&#9;</name></gridUser></dataGridRequest>`,
	`<dataGridRequest><gridUser><name>&#xD800;</name><virtualOrganization>&#13;
</virtualOrganization></gridUser></dataGridRequest>`,
	`<dataGridRequest route="&#0;"/>`, `<dataGridRequest route="&#x110000;"/>`, `<dataGridRequest route="&#xFFFE;"/>`,
	`<dataGridRequest route="&#;"/>`, `<dataGridRequest route="&#X41;"/>`, `<dataGridRequest route="&#65"/>`,
	`<dataGridRequest route="&nbsp;"/>`, `<dataGridRequest route="&amp"/>`, `<dataGridRequest route="&"/>`,
	`<dataGridRequest route="&#00000000000000000000000000000000000000065;"/>`, `<dataGridRequest route="&#99999999999999999999;"/>`,
	// Line ends and white space.
	"<dataGridRequest route=\"a\r\nb\rc\r\r\nd\te\" >\r\n<gridUser\r\n><name\t>x\r\ny\r</name  ></gridUser>\r</dataGridRequest\n>\r\n",
	"<dataGridRequest><gridUser><name>\r&#10;\r&amp;\n</name></gridUser></dataGridRequest>",
	// Names: prefixes, name spaces, colons, non-ASCII.
	`<p:dataGridRequest xmlns:p="urn:p" p:async="true" xmlns:route="r"><p:gridUser><q:name>n</q:name></p:gridUser></p:dataGridRequest>`,
	`<dataGridRequest xmlns="urn:d" xmlns:x="urn:x"><x:flow x:name="f"/></dataGridRequest>`,
	`<xml:dataGridRequest xmlns:xml="urn:no"/>`, `<xmlns:dataGridRequest xmlns:xmlns="urn:no"/>`, `<p:dataGridRequest xmlns:p=""/>`,
	`<p:dataGridRequest xmlns:q="urn:q"></p:dataGridRequest>`, `<p:dataGridRequest></q:dataGridRequest>`,
	`<a:b:dataGridRequest/>`, `<:dataGridRequest/>`, `<dataGridRequest:/>`, `<dataGridRequest a:b:c="1"/>`, `<dataGridRequest :a="1" b:="2"/>`,
	`<dataGridRequest><é ü="1">x</é><élan/><a·b/><_/></dataGridRequest>`, `<dataGridRequest><×/></dataGridRequest>`, `<dataGridRequest><·a/></dataGridRequest>`,
	"<dataGridRequest><a\xff/></dataGridRequest>", `<dataGridRequest><1a/></dataGridRequest>`, `<dataGridRequest><-a/></dataGridRequest>`, `<dataGridRequest><a.-1/></dataGridRequest>`,
	// Attribute syntax.
	`<dataGridRequest async="1"route="r"/>`, `<dataGridRequest async = "true" async="0" />`, `<dataGridRequest async/>`, `<dataGridRequest async=true/>`,
	`<dataGridRequest async=" true "/>`, `<dataGridRequest async=" "/>`, `<dataGridRequest async=""/>`, `<dataGridRequest async="yes"/>`, `<dataGridRequest async="&#x85;T&#xA0;"/>`,
	`<dataGridRequest route="a<b"/>`, `<dataGridRequest route="]]>"/>`, `<dataGridRequest route="x/>`, `<dataGridRequest route="x" /`, `<dataGridRequest / >`,
	// Values that must parse.
	`<dataGridRequest><flowStatusQuery><id>i</id><detail> T </detail></flowStatusQuery></dataGridRequest>`,
	`<dataGridRequest><flowStatusQuery><detail> </detail></flowStatusQuery></dataGridRequest>`,
	`<dataGridRequest><flowStatusQuery><detail>tr<!-- -->ue<x>false</x></detail></flowStatusQuery></dataGridRequest>`,
	`<dataGridRequest><flow><flowLogic><iterate><times> +12 </times></iterate></flowLogic><step retries=" -3 " pure="t"/></flow></dataGridRequest>`,
	`<dataGridRequest><flow><flowLogic><iterate><times>1_0</times></iterate></flowLogic></flow></dataGridRequest>`,
	`<dataGridRequest><flow><flowLogic><iterate><times>99999999999999999999</times></iterate></flowLogic></flow></dataGridRequest>`,
	`<dataGridRequest><flow><step retries="0x10"/></flow></dataGridRequest>`, `<dataGridRequest><flow><step retries=""/></flow></dataGridRequest>`,
	// Structure: paths, wrong places, wrong root, nothing at all.
	`<dataGridRequest><flow><variable name="stray">x</variable><variables><variables><variable name="deep"/></variables><variable name="v">1</variable>text<other/></variables></flow></dataGridRequest>`,
	`<dataGridRequest><step name="stray"/><flow name="f"><step name="s"><operation type="noop"><param name="p">1</param><param/>x</operation></step><flow><flow/></flow></flow></dataGridRequest>`,
	`<dataGridRequest><flow><flowLogic><control> forEach </control><iterate var="i" parallel="1"><in>a,b</in><query scope="/g" objectsOnly="true"><where attr="a" op="=" value="v">x<y/></where><where/></query></iterate><userDefinedRule name="r"><condition>c</condition><action name="a"><operation type="delete"/></action><action/></userDefinedRule></flowLogic></flow></dataGridRequest>`,
	`<dataGridResponse><requestAcknowledgement><id>i</id><status>pending</status><valid>1</valid><message>m</message></requestAcknowledgement><error>e</error></dataGridResponse>`,
	`<dataGridResponse><flowStatus id="a" name="n" kind="flow" state="running" started="s" finished="f" delegated="d" other="o"><error>e</error><status id="b" kind="step" state="odd"><status/></status></flowStatus></dataGridResponse>`,
	`<FlowStatus id="a"><status id="b"/></FlowStatus>`, `<anything id="a" xmlns:id="b"/>`,
	`<dataGridRequest>`, `<dataGridRequest></dataGridRequest`, `<dataGridRequest><a></b></dataGridRequest>`, `<dataGridRequest></a></dataGridRequest>`,
	`</dataGridRequest>`, `<other/>`, ``, ` `, `text only`, `<`, `<!`, `<?`, `<a`, `<a `, `</`, `<!-`, `<![`, `<![CDATA[`, `<![CDATA[x]]`, `&`, "\xff",
	// Before the root: text, comments, declarations.
	`junk &amp; more <!-- c --><?pi x?><dataGridRequest/>`, `junk &bad; <dataGridRequest/>`, "junk \x01 <dataGridRequest/>", `]]><dataGridRequest/>`, `<![CDATA[x]]><dataGridRequest/>`,
	`<?xml version="1.0"?><dataGridRequest/>`, `<?xml version="1.1"?><dataGridRequest/>`, `<?xml version='1.0' encoding='utf-8'?><dataGridRequest/>`,
	`<?xml encoding="UTF-8" version="1.0"?><dataGridRequest/>`, `<?xml version="1.0" encoding="ISO-8859-1"?><dataGridRequest/>`, `<?xml version="1.0" encoding="uTf-8" ?><dataGridRequest/>`,
	`<?xml?><dataGridRequest/>`, `<?xml version=?><dataGridRequest/>`, `<?xml version="?><dataGridRequest/>`, `<?xml versionx="2" version="1.0"?><dataGridRequest/>`, `<?xml encoding=utf-8 encoding="latin1"?><dataGridRequest/>`,
	`<dataGridRequest><?xml version="2.0"?></dataGridRequest>`, `<?a:b:c d?><dataGridRequest/>`, `<?1 ?><dataGridRequest/>`, `<? x?><dataGridRequest/>`, `<?x><dataGridRequest/>`,
	// Comments and their terminators; ]]> outside CDATA.
	`<dataGridRequest><!----><!-- - --><!--->--></dataGridRequest>`, `<dataGridRequest><!-- a -- b --></dataGridRequest>`, `<dataGridRequest><!-- a ---></dataGridRequest>`, `<dataGridRequest><!-- a</dataGridRequest>`,
	`<dataGridRequest><gridUser><name>a]]>b</name></gridUser></dataGridRequest>`, `<dataGridRequest><gridUser><name>a]]&gt;b]] >]>c]</name></gridUser></dataGridRequest>`,
	`<dataGridRequest><gridUser><name><![CDATA[a]]]]><![CDATA[>b]]></name></gridUser></dataGridRequest>`, "<dataGridRequest><gridUser><name><![CDATA[a\r\nb\x00]]></name></gridUser></dataGridRequest>",
	// Characters.
	"<dataGridRequest><gridUser><name>\xe2\x82</name></gridUser></dataGridRequest>", "<dataGridRequest><gridUser><name>é �\U0001F600</name></gridUser></dataGridRequest>",
	"<dataGridRequest><gridUser><name>\uFFFE</name></gridUser></dataGridRequest>", "<dataGridRequest><gridUser><name>\x0b</name></gridUser></dataGridRequest>", "<dataGridRequest route=\"\x7f\xc2\x80\"/>",
	"<dataGridRequest><!-- \xff\x00 --><?pi \xff\x00?></dataGridRequest>", "<dataGridRequest><gridUser><name>\xed\xa0\x80</name></gridUser></dataGridRequest>",
	// The narrowed cases.
	`<dataGridRequest><flow name="a"/><flow name="b"/></dataGridRequest>`, `<dataGridRequest/> x`, `<dataGridRequest/><other/>`, `<dataGridRequest/><!-- ok --> <?ok ?>
`, `<dataGridRequest/><!-- open`, `<dataGridRequest/><![CDATA[]]>`,
	`<!DOCTYPE dataGridRequest [<!ENTITY x "y">]><dataGridRequest/>`, `<dataGridRequest><!ELEMENT x></dataGridRequest>`, `<dataGridRequest/><!DOCTYPE x>`, `<!DOCTYPE x`, `<!x>`,
}

// corpus is what the differential checks always run on and the fuzz
// targets start from: testdata/*.xml, the client_mix documents, nasties.
func corpus(t testing.TB) [][]byte {
	files, err := filepath.Glob("testdata/*.xml")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v, %v", files, err)
	}
	var docs [][]byte
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	submit, query, ack, status, detail := mixDocs(t)
	docs = append(docs, submit, query, ack, status, detail)
	for _, doc := range nasties {
		docs = append(docs, []byte(doc))
	}
	return docs
}

func seedCorpus(f *testing.F) {
	for _, doc := range corpus(f) {
		f.Add(doc)
	}
}

func FuzzDecodeRequestXML(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRequest(t, data)
		owned(t, data, DecodeRequest)
	})
}

func FuzzParseResponseXML(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		diffResponse(t, data)
		owned(t, data, ParseResponse)
	})
}

// owned parses a copy of data, overwrites the copy with 0xFF and
// requires the result unchanged: nothing a parse returns lies in the
// document it read.
func owned[T any](t *testing.T, data []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	doc := bytes.Clone(data)
	got, err := decode(doc)
	if err != nil {
		return
	}
	for i := range doc {
		doc[i] = 0xFF
	}
	if want, _ := decode(data); !reflect.DeepEqual(got, want) {
		t.Fatalf("a value kept from the parse changed with the document under it:\n got %+v\nwant %+v\n%q", got, want, data)
	}
}

// TestParseKeepsNoDocumentBytes: no value a parse keeps lies in the
// document, for generated documents that set every string field of the
// schema, lent from the document or decoded at random (the fuzz
// targets' seeds hold the corpus to the same).
func TestParseKeepsNoDocumentBytes(t *testing.T) {
	g := gen{rand.New(rand.NewSource(40))}
	for i := 0; i < 1000; i++ {
		for _, v := range []any{g.request(), g.response()} {
			doc, err := Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			owned(t, doc, DecodeRequest)
			owned(t, doc, ParseResponse)
		}
	}
}

// TestXMLReaderNarrowed: a document the schema forbids must not run as
// a flow nobody wrote. One case per refusal this reader adds to
// encoding/xml's, each of which the reference decoder accepts.
func TestXMLReaderNarrowed(t *testing.T) {
	const head = `<dataGridRequest><gridUser><name>u</name></gridUser>`
	step := func(body string) string {
		return head + `<flow name="f"><flowLogic><control>sequential</control></flowLogic><step name="s">` + body + `</step></flow></dataGridRequest>`
	}
	for _, tc := range []struct {
		name, doc string
		kind      errKind
	}{
		{"two flows become one", head + `<flow name="a"><step name="x"><operation type="noop"/></step></flow><flow name="b"><step name="y"><operation type="noop"/></step></flow></dataGridRequest>`, errRepeated},
		{"two operations lend params", step(`<operation type="delete"><param name="path">/grid/home</param></operation><operation type="noop"/>`), errRepeated},
		{"two controls", head + `<flow name="f"><flowLogic><control>sequential</control><control>parallel</control></flowLogic></flow></dataGridRequest>`, errRepeated},
		{"two flowLogics", head + `<flow name="f"><flowLogic/><flowLogic/></flow></dataGridRequest>`, errRepeated},
		{"two variables blocks", head + `<flow name="f"><variables/><variables/></flow></dataGridRequest>`, errRepeated},
		{"two users", head + `<gridUser><name>root</name></gridUser></dataGridRequest>`, errRepeated},
		{"two ids", head + `<flowStatusQuery><id>a</id><id>b</id></flowStatusQuery></dataGridRequest>`, errRepeated},
		{"flow and a second query", head + `<flowStatusQuery/><flowStatusQuery/></dataGridRequest>`, errRepeated},
		{"text after the root", head + `</dataGridRequest> and more`, errTrailing},
		{"element after the root", head + `</dataGridRequest><flow name="late"/>`, errTrailing},
		{"broken comment after the root", head + `</dataGridRequest><!-- `, errTrailing},
		{"doctype with an entity", `<!DOCTYPE dataGridRequest [<!ENTITY u "root">]>` + head + `</dataGridRequest>`, errDirective},
		{"directive inside", head + `<!ATTLIST x></dataGridRequest>`, errDirective},
		{"nesting", strings.Repeat("<dataGridRequest>", maxDepth+1) + strings.Repeat("</dataGridRequest>", maxDepth+1), errDepth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref Request
			if err := xml.Unmarshal([]byte(tc.doc), &ref); err != nil {
				t.Fatalf("the reference rejects it too: %v", err)
			}
			_, err := DecodeRequest([]byte(tc.doc))
			var pe *parseError
			if !errors.As(err, &pe) || pe.kind != tc.kind || !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want kind %d in the ErrInvalid class", err, tc.kind)
			}
			if !strings.HasPrefix(err.Error(), "dgl: parse request: ") {
				t.Errorf("error %q lacks the parse prefix", err)
			}
		})
	}
	// The same rule on the reply side.
	for _, doc := range []string{
		`<dataGridResponse><error>a</error><error>b</error></dataGridResponse>`,
		`<dataGridResponse><flowStatus id="a"/><flowStatus id="b"/></dataGridResponse>`,
		`<dataGridResponse><requestAcknowledgement><valid>true</valid><valid>false</valid></requestAcknowledgement></dataGridResponse>`,
	} {
		if _, err := ParseResponse([]byte(doc)); !narrowed(err) || !strings.HasPrefix(err.Error(), "dgl: parse response: ") {
			t.Errorf("ParseResponse(%s) = %v, want a repeated-element error", doc, err)
		}
	}
	// What stays accepted after the root, and at the depth limit.
	for _, doc := range []string{
		head + "</dataGridRequest>\r\n<!-- done --><?audit ok?>\n",
		strings.Repeat("<dataGridRequest>", maxDepth) + strings.Repeat("</dataGridRequest>", maxDepth),
	} {
		diffRequest(t, []byte(doc))
		if _, err := DecodeRequest([]byte(doc)); err != nil {
			t.Errorf("rejected: %v", err)
		}
	}
}

// TestXMLReaderAgainstReference runs the seed corpus of the fuzz
// targets through the differential check on every test run.
func TestXMLReaderAgainstReference(t *testing.T) {
	for _, doc := range corpus(t) {
		diffRequest(t, doc)
		diffResponse(t, doc)
		// Cut short and doubled, every document is another document.
		diffRequest(t, doc[:len(doc)/2])
		diffResponse(t, append(doc[:len(doc):len(doc)], doc...))
	}
}

// TestXMLReaderDeepFlows: flows nested as deep as encoding/xml follows
// them decode the same, and one level further both refuse.
func TestXMLReaderDeepFlows(t *testing.T) {
	for _, n := range []int{100, maxDepth - 2, maxDepth - 1, maxDepth} {
		doc := "<dataGridRequest>" + strings.Repeat(`<flow name="f">`, n) + strings.Repeat("</flow>", n) + "</dataGridRequest>"
		diffRequest(t, []byte(doc))
	}
}

// gen builds random documents for the writer property. Strings draw on
// every rune the escaper treats specially.
type gen struct{ *rand.Rand }

var genRunes = []string{
	"a", "b", "Z", "0", " ", "  ", "\t", "\n", "\r", "\r\n", `"`, "'", "&", "<", ">", "]]>", "&amp;", "&#x41;",
	"é", " ", "\U0001F600", "�", "￾", "￿", "\x00", "\x01", "\x0b", "\x1f", "\x7f", "\xff", "\xc3", "\xed\xa0\x80", "", " ",
}

func (g gen) str() string {
	var sb strings.Builder
	for n := g.Intn(6); n > 0; n-- {
		sb.WriteString(genRunes[g.Intn(len(genRunes))])
	}
	return sb.String()
}

func (g gen) opt() string {
	if g.Intn(2) == 0 {
		return ""
	}
	return g.str()
}

func (g gen) flag() bool { return g.Intn(3) == 0 }

func (g gen) variables() []Variable {
	var vs []Variable
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []Variable{}
	}
	for n := g.Intn(3) + 1; n > 0; n-- {
		vs = append(vs, Variable{Name: g.str(), Value: g.opt()})
	}
	return vs
}

func (g gen) operation() Operation {
	o := Operation{Type: g.opt()}
	for n := g.Intn(3); n > 0; n-- {
		o.Params = append(o.Params, Param{Name: g.opt(), Value: g.opt()})
	}
	return o
}

func (g gen) rules() []Rule {
	var rules []Rule
	for n := g.Intn(3); n > 0; n-- {
		u := Rule{Name: g.opt(), Condition: g.opt()}
		for m := g.Intn(3); m > 0; m-- {
			a := Action{Name: g.opt()}
			if g.flag() {
				op := g.operation()
				a.Operation = &op
			}
			u.Actions = append(u.Actions, a)
		}
		rules = append(rules, u)
	}
	return rules
}

func (g gen) flow(depth int) Flow {
	f := Flow{Name: g.opt(), Variables: g.variables()}
	f.Logic = FlowLogic{Control: Control(g.opt()), Condition: g.opt(), Rules: g.rules()}
	if g.flag() {
		it := &Iterate{Var: g.opt(), Parallel: g.flag(), In: g.opt()}
		if g.flag() {
			it.Times = g.Intn(7) - 3
		}
		if g.flag() {
			it.Query = &NSQuery{Scope: g.opt(), ObjectsOnly: g.flag()}
			for n := g.Intn(3); n > 0; n-- {
				it.Query.Conditions = append(it.Query.Conditions, QueryCond{Attr: g.opt(), Op: g.opt(), Value: g.opt()})
			}
		}
		f.Logic.Iterate = it
	}
	if depth < 3 {
		for n := g.Intn(3); n > 0; n-- {
			f.Flows = append(f.Flows, g.flow(depth+1))
		}
	}
	for n := g.Intn(3); n > 0; n-- {
		s := Step{Name: g.opt(), OnError: g.opt(), Backoff: g.opt(), MaxBackoff: g.opt(), Timeout: g.opt(),
			Pure: g.flag(), Outputs: g.opt(), Variables: g.variables(), Rules: g.rules(), Operation: g.operation()}
		if g.flag() {
			s.Retries = g.Intn(9) - 4
		}
		f.Steps = append(f.Steps, s)
	}
	return f
}

func (g gen) status(depth int) FlowStatus {
	s := FlowStatus{ID: g.opt(), Name: g.opt(), Kind: g.opt(), State: g.opt(), Started: g.opt(), Finished: g.opt(), Delegated: g.opt(), Error: g.opt()}
	if depth < 4 {
		for n := g.Intn(3); n > 0; n-- {
			s.Children = append(s.Children, g.status(depth+1))
		}
	}
	return s
}

func (g gen) request() *Request {
	q := &Request{Async: g.flag(), Route: g.opt(), Token: g.opt(),
		Metadata: DocumentMeta{CreatedBy: g.opt(), CreatedAt: g.opt(), Description: g.opt()},
		User:     GridUser{Name: g.opt(), VO: g.opt()}}
	if g.flag() {
		q.XMLName = xml.Name{Space: g.opt(), Local: g.opt()} // the tag's name wins
	}
	if g.Intn(4) > 0 {
		f := g.flow(0)
		q.Flow = &f
	}
	if g.flag() {
		q.StatusQuery = &StatusQuery{ID: g.opt(), Detail: g.flag()}
	}
	return q
}

func (g gen) response() *Response {
	p := &Response{Error: g.opt()}
	if g.flag() {
		p.Ack = &Ack{ID: g.opt(), Status: g.opt(), Valid: g.flag(), Message: g.opt()}
	}
	if g.Intn(3) > 0 {
		s := g.status(0)
		p.Status = &s
	}
	return p
}

// TestXMLWriterMatchesReference: for generated documents of all three
// root types, by value and by pointer, Marshal writes the bytes
// xml.MarshalIndent writes — and what it wrote reads back the same
// through both decoders.
func TestXMLWriterMatchesReference(t *testing.T) {
	g := gen{rand.New(rand.NewSource(20))}
	check := func(v any) []byte {
		t.Helper()
		got, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := xml.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte(xml.Header), ref...); !bytes.Equal(got, want) {
			t.Fatalf("Marshal(%T) differs from xml.MarshalIndent:\n got %q\nwant %q", v, got, want)
		}
		return got
	}
	for i := 0; i < 2000; i++ {
		q, p := g.request(), g.response()
		diffRequest(t, check(q))
		diffResponse(t, check(p))
		check(*q)
		check(*p)
		if q.Flow != nil {
			check(q.Flow)
			check(*q.Flow)
		}
	}
	check((*Request)(nil))
	check((*Response)(nil))
	check((*Flow)(nil))
	check(&Request{})
	check(&Response{})
	check(&Flow{})
	deep := g.flow(3)
	for i := 0; i < 40; i++ {
		deep = Flow{Name: "d", Flows: []Flow{deep}}
	}
	check(&deep)
	for _, v := range []any{nil, 7, "x", &Step{}, Operation{}, []Flow{{}}, &FlowStatus{}} {
		if _, err := Marshal(v); err == nil {
			t.Errorf("Marshal(%T) succeeded; only the three document roots are documents", v)
		}
	}
}

// memPerRun is the exact mean of the allocations and the bytes f makes
// (testing.AllocsPerRun rounds the count down).
func memPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestXMLAllocs holds the allocation budgets of the client edge: what a
// parse allocates is the result's own structs and slices and one string
// that holds every value it keeps; a marshal allocates the document.
// The parent commit, which copied each value on its own, is in the
// message.
func TestXMLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	submit, query, ack, status, detail := mixDocs(t)
	for _, tc := range []struct {
		name           string
		doc            []byte
		parse          func([]byte) (any, error)
		budget, parent float64
	}{
		{"submit", submit, func(b []byte) (any, error) { return ParseRequest(b) }, 8, 27},
		{"status query", query, func(b []byte) (any, error) { return ParseRequest(b) }, 3, 4},
		{"ack", ack, func(b []byte) (any, error) { return ParseResponse(b) }, 3, 3},
		{"status", status, func(b []byte) (any, error) { return ParseResponse(b) }, 3, 6},
		{"detail status", detail, func(b []byte) (any, error) { return ParseResponse(b) }, 4, 11},
	} {
		v, err := tc.parse(tc.doc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, _ := memPerRun(200, func() { _, _ = tc.parse(tc.doc) }); got > tc.budget+0.5 {
			t.Errorf("parse %s: %.2f allocations, budget %.0f (parent commit %.0f)", tc.name, got, tc.budget, tc.parent)
		} else {
			t.Logf("parse %s: %.2f allocations (budget %.0f, parent commit %.0f)", tc.name, got, tc.budget, tc.parent)
		}
		if got, _ := memPerRun(200, func() { _, _ = Marshal(v) }); got > 2.5 {
			t.Errorf("marshal %s: %.2f allocations, budget 2", tc.name, got)
		}
	}
}

// TestKeptValueDropsTheDocument: what a parse allocates is in proportion
// to the values it keeps, not to the document, so a value kept — an
// ack's id a client holds on to — does not keep the markup alive. An ack
// padded with a 64 KB comment parses in a few hundred bytes.
func TestKeptValueDropsTheDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	_, _, ack, _, _ := mixDocs(t)
	at := bytes.Index(ack, []byte("<requestAcknowledgement>"))
	padded := slices.Concat(ack[:at], []byte("<!--"), bytes.Repeat([]byte("pad "), 16<<10), []byte("-->"), ack[at:])
	p, err := ParseResponse(padded)
	if err != nil || p.Ack == nil || p.Ack.ID != "peerB:dgf-000042" {
		t.Fatalf("padded ack: %+v, %v", p, err)
	}
	if _, got := memPerRun(50, func() { _, _ = ParseResponse(padded) }); got >= 4<<10 {
		t.Errorf("parsing an ack padded to %d bytes allocates %.0f bytes, want < 4 KB", len(padded), got)
	} else {
		t.Logf("parsing an ack padded to %d bytes allocates %.0f bytes", len(padded), got)
	}
}

// BenchmarkXMLDocs times parse and marshal of the five client_mix
// documents (the per-document table of docs/ARCHITECTURE.md).
func BenchmarkXMLDocs(b *testing.B) {
	submit, query, ack, status, detail := mixDocs(b)
	for _, tc := range []struct {
		name  string
		doc   []byte
		parse func([]byte) (any, error)
	}{
		{"submit", submit, func(d []byte) (any, error) { return ParseRequest(d) }},
		{"query", query, func(d []byte) (any, error) { return ParseRequest(d) }},
		{"ack", ack, func(d []byte) (any, error) { return ParseResponse(d) }},
		{"status", status, func(d []byte) (any, error) { return ParseResponse(d) }},
		{"detail", detail, func(d []byte) (any, error) { return ParseResponse(d) }},
	} {
		v, err := tc.parse(tc.doc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("parse/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.doc)))
			for i := 0; i < b.N; i++ {
				if _, err := tc.parse(tc.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("marshal/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Marshal(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
