// Package dom implements a mutable XML/HTML document object model with
// DOM Level 3 style event dispatch. It is the tree the browser renders
// and the store the XQuery engine's data model wraps ("implementing the
// XDM on top of the DOM", paper §5.2).
//
// The package is self-contained: it knows nothing about XQuery. Higher
// layers (internal/xdm, internal/browser, internal/core) build on it.
package dom

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// NodeType enumerates the node kinds of the XDM/DOM intersection.
type NodeType int

// Node kinds. Namespace nodes are modelled as regular attributes in the
// xmlns namespace; entity and CDATA nodes are resolved by the parser.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	ProcessingInstructionNode
)

// String returns the conventional name of the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcessingInstructionNode:
		return "processing-instruction"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// QName is an expanded XML name. Two QNames match when their Space and
// Local parts are equal; Prefix is retained only for serialization.
type QName struct {
	Space  string // namespace URI, "" for no namespace
	Prefix string // lexical prefix, "" for default/none
	Local  string
}

// Name builds a QName in no namespace.
func Name(local string) QName { return QName{Local: local} }

// NameNS builds a QName in the given namespace URI.
func NameNS(space, local string) QName { return QName{Space: space, Local: local} }

// String renders the lexical form (prefix:local or local).
func (q QName) String() string {
	if q.Prefix != "" {
		return q.Prefix + ":" + q.Local
	}
	return q.Local
}

// Matches reports whether the expanded names are equal (prefix ignored).
func (q QName) Matches(o QName) bool { return q.Space == o.Space && q.Local == o.Local }

// IsZero reports whether the QName is the zero value.
func (q QName) IsZero() bool { return q.Space == "" && q.Prefix == "" && q.Local == "" }

// Node is a node in a document tree. All kinds share this struct; fields
// that do not apply to a kind are zero. Nodes must only be mutated
// through the methods of this package so that parent/sibling links and
// the document-order cache stay consistent.
type Node struct {
	Type NodeType
	Name QName  // element, attribute, PI (Local = target) names
	Data string // text/comment content, attribute value, PI data

	// BaseURI is set on document nodes (fn:doc identity, same-origin
	// checks) and inherited by descendants.
	BaseURI string

	parent   *Node
	children []*Node
	attrs    []*Node // attribute nodes; their parent is this element

	// listeners is a pointer so the rarely used list costs a node 8
	// bytes, not a slice header's 24; that keeps Node (seq included)
	// in the 224-byte allocation size class.
	listeners *[]*listener

	// order cache: stamp valid while the owning document's version
	// matches stampVersion.
	stamp        uint64
	stampVersion uint64
	// seq is the node's creation sequence number, the deterministic
	// order CompareOrder gives nodes of different trees.
	seq uint64
	// version is the root node's mutation counter, bumped on every
	// mutation of its tree. It stays atomic: a plain integer would need
	// every reader and writer of one tree to be ordered by its owner,
	// which is unverified.
	version atomic.Uint64

	// indexCache holds the version-stamped index of the tree rooted at
	// this node (see internal/dom/index); meaningful on roots only.
	indexCache atomic.Value

	// ftCache holds the version-stamped full-text index of the tree
	// rooted at this node (see internal/fulltext/index); meaningful on
	// roots only. A separate slot from indexCache so the two indexes
	// build and invalidate independently.
	ftCache atomic.Value
}

// nodeSeq numbers nodes in creation order (see Node.seq).
var nodeSeq atomic.Uint64

// born stamps a freshly allocated node with its creation sequence
// number; every constructor routes through it.
func born(n *Node) *Node {
	n.seq = nodeSeq.Add(1)
	return n
}

// NewDocument creates an empty document node.
func NewDocument() *Node { return born(&Node{Type: DocumentNode}) }

// NewDocumentOf creates a document node with the given base URI and
// adopts the (detached) children into it — the constructor transport
// layers use to rebuild a document identity around a deserialized
// root element.
func NewDocumentOf(baseURI string, children ...*Node) *Node {
	d := born(&Node{Type: DocumentNode, BaseURI: baseURI})
	for _, c := range children {
		_ = d.AppendChild(c)
	}
	return d
}

// NewElement creates a detached element node.
func NewElement(name QName) *Node { return born(&Node{Type: ElementNode, Name: name}) }

// NewText creates a detached text node.
func NewText(data string) *Node { return born(&Node{Type: TextNode, Data: data}) }

// NewComment creates a detached comment node.
func NewComment(data string) *Node { return born(&Node{Type: CommentNode, Data: data}) }

// NewAttr creates a detached attribute node.
func NewAttr(name QName, value string) *Node {
	return born(&Node{Type: AttributeNode, Name: name, Data: value})
}

// NewPI creates a detached processing-instruction node.
func NewPI(target, data string) *Node {
	return born(&Node{Type: ProcessingInstructionNode, Name: Name(target), Data: data})
}

// Parent returns the parent node (the owning element for attributes),
// or nil for detached nodes and documents.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the child list. Callers must not mutate the slice.
func (n *Node) Children() []*Node { return n.children }

// Attrs returns the attribute nodes of an element in insertion order.
// Callers must not mutate the slice.
func (n *Node) Attrs() []*Node { return n.attrs }

// Root walks to the topmost ancestor (the document, for attached nodes).
func (n *Node) Root() *Node {
	r := n
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Document returns the owning document node, or nil if detached.
func (n *Node) Document() *Node {
	r := n.Root()
	if r.Type == DocumentNode {
		return r
	}
	return nil
}

// DocumentElement returns the first element child of a document.
func (n *Node) DocumentElement() *Node {
	for _, c := range n.children {
		if c.Type == ElementNode {
			return c
		}
	}
	return nil
}

// Base returns the effective base URI: the nearest ancestor-or-self
// BaseURI that is set.
func (n *Node) Base() string {
	for a := n; a != nil; a = a.parent {
		if a.BaseURI != "" {
			return a.BaseURI
		}
	}
	return ""
}

// StringValue returns the XDM string value: concatenated descendant text
// for documents and elements, Data for the others.
func (n *Node) StringValue() string {
	switch n.Type {
	case DocumentNode, ElementNode:
		var b strings.Builder
		n.appendText(&b)
		return b.String()
	default:
		return n.Data
	}
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.children {
		switch c.Type {
		case TextNode:
			b.WriteString(c.Data)
		case ElementNode:
			c.appendText(b)
		}
	}
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name QName) (string, bool) {
	for _, a := range n.attrs {
		if a.Name.Matches(name) {
			return a.Data, true
		}
	}
	return "", false
}

// AttrValue returns the value of the named no-namespace attribute, or "".
func (n *Node) AttrValue(local string) string {
	v, _ := n.Attr(Name(local))
	return v
}

// AttrNode returns the attribute node with the given name, or nil.
func (n *Node) AttrNode(name QName) *Node {
	for _, a := range n.attrs {
		if a.Name.Matches(name) {
			return a
		}
	}
	return nil
}

// FirstChild returns the first child or nil.
func (n *Node) FirstChild() *Node {
	if len(n.children) == 0 {
		return nil
	}
	return n.children[0]
}

// LastChild returns the last child or nil.
func (n *Node) LastChild() *Node {
	if len(n.children) == 0 {
		return nil
	}
	return n.children[len(n.children)-1]
}

// childIndex returns n's position in its parent's child list, -1 if
// detached or an attribute.
func (n *Node) childIndex() int {
	if n.parent == nil || n.Type == AttributeNode {
		return -1
	}
	for i, c := range n.parent.children {
		if c == n {
			return i
		}
	}
	return -1
}

// NextSibling returns the following sibling or nil.
func (n *Node) NextSibling() *Node {
	i := n.childIndex()
	if i < 0 || i+1 >= len(n.parent.children) {
		return nil
	}
	return n.parent.children[i+1]
}

// PrevSibling returns the preceding sibling or nil.
func (n *Node) PrevSibling() *Node {
	i := n.childIndex()
	if i <= 0 {
		return nil
	}
	return n.parent.children[i-1]
}

// IsAncestorOf reports whether n is a proper ancestor of d.
func (n *Node) IsAncestorOf(d *Node) bool {
	for a := d.parent; a != nil; a = a.parent {
		if a == n {
			return true
		}
	}
	return false
}

// Walk visits n and every descendant (attributes excluded) in document
// order. Returning false from f stops the walk.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, c := range n.children {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// Elements returns descendant-or-self elements matching name (any name
// if local is "*").
func (n *Node) Elements(local string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && (local == "*" || c.Name.Local == local) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// ElementByID returns the first descendant element whose "id" attribute
// equals id, or nil. This backs getElementById-style lookups.
func (n *Node) ElementByID(id string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.AttrValue("id") == id {
			found = c
			return false
		}
		return true
	})
	return found
}

// Clone deep-copies the node and its subtree (and attributes). The copy
// is detached and carries no event listeners, matching XQuery copy
// semantics for constructed/inserted content.
func (n *Node) Clone() *Node {
	c := born(&Node{Type: n.Type, Name: n.Name, Data: n.Data, BaseURI: n.BaseURI})
	for _, a := range n.attrs {
		ac := born(&Node{Type: AttributeNode, Name: a.Name, Data: a.Data, parent: c})
		c.attrs = append(c.attrs, ac)
	}
	for _, k := range n.children {
		kc := k.Clone()
		kc.parent = c
		c.children = append(c.children, kc)
	}
	return c
}
