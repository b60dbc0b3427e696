package markup

import (
	"strings"

	"repro/internal/dom"
)

// Serialize renders a node (and its subtree) as XML.
func Serialize(n *dom.Node) string {
	var b strings.Builder
	writeNode(&b, n, XML)
	return b.String()
}

// SerializeHTML renders a node as HTML: void elements are written
// without end tags and raw-text elements without escaping.
func SerializeHTML(n *dom.Node) string {
	var b strings.Builder
	writeNode(&b, n, HTML)
	return b.String()
}

// SerializeIndent renders a node as XML with two-space indentation,
// for human-facing dumps (cmd/xqib, examples). Text nodes containing
// non-whitespace suppress indentation inside their parent.
func SerializeIndent(n *dom.Node) string {
	var b strings.Builder
	writeIndent(&b, n, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *dom.Node, mode Mode) {
	switch n.Type {
	case dom.DocumentNode:
		for _, c := range n.Children() {
			writeNode(b, c, mode)
		}
	case dom.ElementNode:
		writeElement(b, n, mode)
	case dom.TextNode:
		writeEscaped(b, n.Data, &textEscapes)
	case dom.CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case dom.ProcessingInstructionNode:
		b.WriteString("<?")
		b.WriteString(n.Name.Local)
		if n.Data != "" {
			b.WriteString(" ")
			b.WriteString(n.Data)
		}
		b.WriteString("?>")
	case dom.AttributeNode:
		writeAttr(b, n)
	}
}

func attrLexical(a *dom.Node) string {
	if a.Name.Space == XMLNSNamespace {
		if a.Name.Local == "xmlns" {
			return "xmlns"
		}
		return "xmlns:" + a.Name.Local
	}
	return a.Name.String()
}

func writeAttr(b *strings.Builder, a *dom.Node) {
	b.WriteString(attrLexical(a))
	b.WriteString(`="`)
	writeEscaped(b, a.Data, &attrEscapes)
	b.WriteString(`"`)
}

func writeElement(b *strings.Builder, n *dom.Node, mode Mode) {
	b.WriteByte('<')
	b.WriteString(n.Name.String())
	for _, a := range n.Attrs() {
		b.WriteByte(' ')
		writeAttr(b, a)
	}
	kids := n.Children()
	if mode == HTML {
		if voidElements[n.Name.Local] {
			b.WriteString("/>")
			return
		}
		if rawTextElements[n.Name.Local] {
			b.WriteByte('>')
			for _, c := range kids {
				if c.Type == dom.TextNode {
					b.WriteString(c.Data) // raw, unescaped
				}
			}
			b.WriteString("</" + n.Name.String() + ">")
			return
		}
	}
	if len(kids) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range kids {
		writeNode(b, c, mode)
	}
	b.WriteString("</" + n.Name.String() + ">")
}

func writeIndent(b *strings.Builder, n *dom.Node, depth int) {
	ind := strings.Repeat("  ", depth)
	switch n.Type {
	case dom.DocumentNode:
		for _, c := range n.Children() {
			writeIndent(b, c, depth)
		}
	case dom.ElementNode:
		b.WriteString(ind)
		b.WriteByte('<')
		b.WriteString(n.Name.String())
		for _, a := range n.Attrs() {
			b.WriteByte(' ')
			writeAttr(b, a)
		}
		kids := n.Children()
		if len(kids) == 0 {
			b.WriteString("/>\n")
			return
		}
		if mixed(n) {
			b.WriteByte('>')
			for _, c := range kids {
				writeNode(b, c, XML)
			}
			b.WriteString("</" + n.Name.String() + ">\n")
			return
		}
		b.WriteString(">\n")
		for _, c := range kids {
			writeIndent(b, c, depth+1)
		}
		b.WriteString(ind + "</" + n.Name.String() + ">\n")
	case dom.TextNode:
		if strings.TrimSpace(n.Data) != "" {
			b.WriteString(ind + EscapeText(strings.TrimSpace(n.Data)) + "\n")
		}
	default:
		b.WriteString(ind)
		writeNode(b, n, XML)
		b.WriteByte('\n')
	}
}

// mixed reports whether an element has meaningful text content mixed
// with its children (in which case indentation would corrupt it).
func mixed(n *dom.Node) bool {
	for _, c := range n.Children() {
		if c.Type == dom.TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

// textEscapes and attrEscapes map every byte to its escape in XML
// character data and in a double-quoted attribute value; "" means the
// byte is written as it is. Built once per process: a per-call
// strings.NewReplacer rebuilt its 256-entry table on every text node.
var (
	textEscapes = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;"}
	attrEscapes = [256]string{'&': "&amp;", '<': "&lt;", '"': "&quot;"}
)

// EscapeText escapes character data for XML output. It returns s
// itself when nothing needs escaping and allocates once otherwise.
func EscapeText(s string) string { return escape(s, &textEscapes) }

// EscapeAttr escapes an attribute value for double-quoted XML output,
// with EscapeText's allocation behaviour.
func EscapeAttr(s string) string { return escape(s, &attrEscapes) }

func escape(s string, table *[256]string) string {
	extra := 0
	for i := 0; i < len(s); i++ {
		if r := table[s[i]]; r != "" {
			extra += len(r) - 1
		}
	}
	if extra == 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + extra)
	writeEscaped(&b, s, table)
	return b.String()
}

// writeEscaped writes s to b, replacing every byte that has an escape
// in table.
func writeEscaped(b *strings.Builder, s string, table *[256]string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if r := table[s[i]]; r != "" {
			b.WriteString(s[last:i])
			b.WriteString(r)
			last = i + 1
		}
	}
	b.WriteString(s[last:])
}
