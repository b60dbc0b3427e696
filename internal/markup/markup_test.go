package markup

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dom"
)

func mustParse(t *testing.T, src string) *dom.Node {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return doc
}

func mustParseHTML(t *testing.T, src string) *dom.Node {
	t.Helper()
	doc, err := ParseHTML(src)
	if err != nil {
		t.Fatalf("ParseHTML(%q): %v", src, err)
	}
	return doc
}

func TestParseSimple(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b>hi</b><c/></a>`)
	root := doc.DocumentElement()
	if root.Name.Local != "a" || root.AttrValue("x") != "1" {
		t.Fatalf("root = %s", Serialize(root))
	}
	if len(root.Children()) != 2 {
		t.Fatalf("children = %d", len(root.Children()))
	}
	if root.Children()[0].StringValue() != "hi" {
		t.Error("text content lost")
	}
}

func TestParseEntities(t *testing.T) {
	doc := mustParse(t, `<a>&lt;x&gt; &amp; &quot;&apos; &#65;&#x42;</a>`)
	got := doc.StringValue()
	want := `<x> & "' AB`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestParseCDATA(t *testing.T) {
	doc := mustParse(t, `<a><![CDATA[<not><markup> & stuff]]></a>`)
	if got := doc.StringValue(); got != "<not><markup> & stuff" {
		t.Errorf("CDATA content = %q", got)
	}
}

func TestParseCommentAndPI(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><a><!--note--><?target data?></a>`)
	kids := doc.DocumentElement().Children()
	if len(kids) != 2 {
		t.Fatalf("kids = %d", len(kids))
	}
	if kids[0].Type != dom.CommentNode || kids[0].Data != "note" {
		t.Error("comment wrong")
	}
	if kids[1].Type != dom.ProcessingInstructionNode || kids[1].Name.Local != "target" || kids[1].Data != "data" {
		t.Errorf("pi wrong: %v %q", kids[1].Name, kids[1].Data)
	}
}

func TestParseNamespaces(t *testing.T) {
	doc := mustParse(t, `<a xmlns="urn:d" xmlns:p="urn:p"><p:b q="1" p:r="2"/></a>`)
	root := doc.DocumentElement()
	if root.Name.Space != "urn:d" {
		t.Errorf("default ns = %q", root.Name.Space)
	}
	b := root.Children()[0]
	if b.Name.Space != "urn:p" || b.Name.Local != "b" {
		t.Errorf("b name = %+v", b.Name)
	}
	// Unprefixed attributes are in no namespace.
	if v, ok := b.Attr(dom.Name("q")); !ok || v != "1" {
		t.Error("unprefixed attribute lookup failed")
	}
	if v, ok := b.Attr(dom.NameNS("urn:p", "r")); !ok || v != "2" {
		t.Error("prefixed attribute lookup failed")
	}
}

func TestParsePrefixedEndTags(t *testing.T) {
	doc := mustParse(t, `<a xmlns:p="urn:p"><p:b>x</p:b></a>`)
	b := doc.Elements("b")[0]
	if b.Name.Space != "urn:p" || b.StringValue() != "x" {
		t.Errorf("prefixed element: %+v", b.Name)
	}
	// Prefix mismatch between open and close is an error.
	if _, err := Parse(`<a xmlns:p="urn:p" xmlns:q="urn:p"><p:b></q:b></a>`); err == nil {
		t.Error("lexically mismatched end tag should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                    // no root
		`<a>`,                 // unclosed
		`<a></b>`,             // mismatch
		`<a><b attr></b></a>`, // valueless attribute
		`<a>&unknown;</a>`,    // unknown entity
		`<a><![CDATA[x</a>`,   // unterminated CDATA
		`<a/><b/>`,            // two roots... actually allowed? no: text/elements after root
		`text<a/>`,            // text before root
		`<a x="1 <b></b></a>`, // unterminated attribute
		`<a><!--never closed </a>`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("<a>\n<b>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line < 2 {
		t.Errorf("line = %d, want >= 2", pe.Line)
	}
}

func TestParseHTMLLowercasesTags(t *testing.T) {
	doc := mustParseHTML(t, `<HTML><BODY CLASS="x"><DIV>hi</DIV></BODY></HTML>`)
	html := doc.DocumentElement()
	if html.Name.Local != "html" {
		t.Errorf("root = %q", html.Name.Local)
	}
	body := html.Children()[0]
	if body.Name.Local != "body" || body.AttrValue("class") != "x" {
		t.Errorf("body = %s", Serialize(body))
	}
}

func TestParseHTMLVoidElements(t *testing.T) {
	doc := mustParseHTML(t, `<body><br><img src="a.gif"><p>x</p></body>`)
	body := doc.DocumentElement()
	if len(body.Children()) != 3 {
		t.Fatalf("children = %d: %s", len(body.Children()), Serialize(body))
	}
	if body.Children()[1].AttrValue("src") != "a.gif" {
		t.Error("void element attributes lost")
	}
}

func TestParseHTMLScriptRawText(t *testing.T) {
	src := `<html><head><script type="text/xquery">for $x in //a where 1 < 2 return <b/></script></head></html>`
	doc := mustParseHTML(t, src)
	script := doc.Elements("script")[0]
	if got := script.StringValue(); !strings.Contains(got, "1 < 2") || !strings.Contains(got, "<b/>") {
		t.Errorf("script content mangled: %q", got)
	}
}

func TestParseHTMLScriptCDATAUnwrap(t *testing.T) {
	src := `<html><script type="text/xquery"><![CDATA[1 < 2]]></script></html>`
	doc := mustParseHTML(t, src)
	script := doc.Elements("script")[0]
	if got := strings.TrimSpace(script.StringValue()); got != "1 < 2" {
		t.Errorf("CDATA unwrap: %q", got)
	}
}

func TestParseHTMLUnquotedAttr(t *testing.T) {
	doc := mustParseHTML(t, `<input type=button value=Buy>`)
	in := doc.DocumentElement()
	if in.AttrValue("type") != "button" || in.AttrValue("value") != "Buy" {
		t.Errorf("unquoted attrs: %s", Serialize(in))
	}
}

func TestParseHTMLImpliedClose(t *testing.T) {
	// <p> left open; </div> implies closing it.
	doc := mustParseHTML(t, `<div><p>one</div>`)
	div := doc.DocumentElement()
	if div.Name.Local != "div" {
		t.Fatalf("root = %q", div.Name.Local)
	}
	if div.StringValue() != "one" {
		t.Errorf("content = %q", div.StringValue())
	}
}

func TestParseHTMLStrayEndTagIgnored(t *testing.T) {
	doc := mustParseHTML(t, `<div>a</span>b</div>`)
	if got := doc.StringValue(); got != "ab" {
		t.Errorf("content = %q", got)
	}
}

func TestParseFragment(t *testing.T) {
	nodes, err := ParseFragment(`<a/>text<b x="1"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Name.Local != "a" || nodes[1].Data != "text" || nodes[2].AttrValue("x") != "1" {
		t.Error("fragment content wrong")
	}
	for _, n := range nodes {
		if n.Parent() != nil {
			t.Error("fragment nodes must be detached")
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cases := []string{
		`<a x="1"><b>hi</b><c/></a>`,
		`<a>&lt;tag&gt; &amp; text</a>`,
		`<a><!--c--><?pi data?></a>`,
		`<a xmlns:p="urn:p"><p:b/></a>`,
	}
	for _, src := range cases {
		doc := mustParse(t, src)
		out := Serialize(doc)
		doc2 := mustParse(t, out)
		if Serialize(doc2) != out {
			t.Errorf("round trip unstable:\n1: %s\n2: %s", out, Serialize(doc2))
		}
	}
}

func TestSerializeHTMLVoidAndScript(t *testing.T) {
	doc := mustParseHTML(t, `<body><br><script>if (a < b) x();</script></body>`)
	out := SerializeHTML(doc)
	if !strings.Contains(out, "<br/>") {
		t.Errorf("void serialization: %s", out)
	}
	if !strings.Contains(out, "if (a < b) x();") {
		t.Errorf("script must be raw: %s", out)
	}
}

func TestSerializeEscaping(t *testing.T) {
	e := dom.NewElement(dom.Name("a"))
	e.SetAttr(dom.Name("t"), `x"<&`)
	_ = e.AppendChild(dom.NewText(`<&>`))
	out := Serialize(e)
	want := `<a t="x&quot;&lt;&amp;">&lt;&amp;&gt;</a>`
	if out != want {
		t.Errorf("got %s, want %s", out, want)
	}
}

func TestSerializeIndent(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d>text</d></a>`)
	out := SerializeIndent(doc)
	if !strings.Contains(out, "\n  <b>\n    <c/>\n") {
		t.Errorf("indentation wrong:\n%s", out)
	}
	if !strings.Contains(out, "<d>text</d>") {
		t.Errorf("mixed content must stay inline:\n%s", out)
	}
}

// randomXMLTree builds a random element tree for round-trip properties.
func randomXMLTree(r *rand.Rand, depth int) *dom.Node {
	names := []string{"a", "b", "c", "item", "p"}
	e := dom.NewElement(dom.Name(names[r.Intn(len(names))]))
	if r.Intn(2) == 0 {
		e.SetAttr(dom.Name("k"), `v"<&`)
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && r.Intn(2) == 0:
			_ = e.AppendChild(randomXMLTree(r, depth-1))
		case r.Intn(2) == 0:
			_ = e.AppendChild(dom.NewText("t<&x "))
		default:
			_ = e.AppendChild(dom.NewComment("note"))
		}
	}
	return e
}

// Property: Serialize then Parse yields a tree that serializes
// identically (parse ∘ serialize is a fixpoint after one iteration).
func TestSerializeParseFixpointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomXMLTree(r, 3)
		s1 := Serialize(root)
		doc, err := Parse(s1)
		if err != nil {
			return false
		}
		return Serialize(doc) == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: escaping never leaves raw markup characters unescaped in
// text output.
func TestEscapeTextProperty(t *testing.T) {
	f := func(s string) bool {
		out := EscapeText(s)
		return !strings.ContainsAny(strings.NewReplacer(
			"&amp;", "", "&lt;", "", "&gt;", "").Replace(out), "<>")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEscapeAllocations pins the escapers' cost: nothing to escape
// returns the input without allocating, anything to escape allocates
// the result once.
func TestEscapeAllocations(t *testing.T) {
	for _, tt := range []struct {
		name   string
		escape func(string) string
		in     string
		want   string
		allocs float64
	}{
		{"text/clean", EscapeText, "plain text, quotes \" kept", "plain text, quotes \" kept", 0},
		{"text/escaped", EscapeText, "a < b && c > d", "a &lt; b &amp;&amp; c &gt; d", 1},
		{"attr/clean", EscapeAttr, "x > y", "x > y", 0},
		{"attr/escaped", EscapeAttr, `say "a<b" & go`, "say &quot;a&lt;b&quot; &amp; go", 1},
	} {
		if got := tt.escape(tt.in); got != tt.want {
			t.Errorf("%s: got %q, want %q", tt.name, got, tt.want)
		}
		if n := testing.AllocsPerRun(100, func() { tt.escape(tt.in) }); n > tt.allocs {
			t.Errorf("%s: %.0f allocs per call, want <= %.0f", tt.name, n, tt.allocs)
		}
	}
}
