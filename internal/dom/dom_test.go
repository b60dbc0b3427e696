package dom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAppend(t *testing.T, p, c *Node) {
	t.Helper()
	if err := p.AppendChild(c); err != nil {
		t.Fatalf("AppendChild: %v", err)
	}
}

// buildSample returns <root><a id="1">hello</a><b><c/>world</b></root>
// attached to a document.
func buildSample(t *testing.T) (doc, root, a, b, c *Node) {
	t.Helper()
	doc = NewDocument()
	root = NewElement(Name("root"))
	a = NewElement(Name("a"))
	a.SetAttr(Name("id"), "1")
	b = NewElement(Name("b"))
	c = NewElement(Name("c"))
	mustAppend(t, doc, root)
	mustAppend(t, root, a)
	mustAppend(t, a, NewText("hello"))
	mustAppend(t, root, b)
	mustAppend(t, b, c)
	mustAppend(t, b, NewText("world"))
	return
}

func TestStringValue(t *testing.T) {
	doc, root, a, b, _ := buildSample(t)
	tests := []struct {
		name string
		n    *Node
		want string
	}{
		{"document", doc, "helloworld"},
		{"root", root, "helloworld"},
		{"a", a, "hello"},
		{"b", b, "world"},
		{"attr", a.AttrNode(Name("id")), "1"},
	}
	for _, tt := range tests {
		if got := tt.n.StringValue(); got != tt.want {
			t.Errorf("%s: StringValue = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestTreeNavigation(t *testing.T) {
	doc, root, a, b, c := buildSample(t)
	if a.Parent() != root || root.Parent() != doc {
		t.Fatal("parent links wrong")
	}
	if a.NextSibling() != b {
		t.Error("NextSibling(a) != b")
	}
	if b.PrevSibling() != a {
		t.Error("PrevSibling(b) != a")
	}
	if a.PrevSibling() != nil || b.NextSibling() != nil {
		t.Error("edge siblings should be nil")
	}
	if c.Root() != doc || c.Document() != doc {
		t.Error("Root/Document wrong")
	}
	if !root.IsAncestorOf(c) || c.IsAncestorOf(root) {
		t.Error("IsAncestorOf wrong")
	}
	if doc.DocumentElement() != root {
		t.Error("DocumentElement wrong")
	}
}

func TestDocumentOrder(t *testing.T) {
	doc, root, a, b, c := buildSample(t)
	ordered := []*Node{doc, root, a, a.AttrNode(Name("id")), a.FirstChild(), b, c}
	for i := range ordered {
		for j := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := CompareOrder(ordered[i], ordered[j]); got != want {
				t.Errorf("CompareOrder(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestDocumentOrderAfterMutation(t *testing.T) {
	_, root, a, b, _ := buildSample(t)
	if CompareOrder(a, b) != -1 {
		t.Fatal("precondition")
	}
	// Move a after b: order must flip despite the stamp cache.
	if err := root.InsertAfter(a, b); err != nil {
		t.Fatal(err)
	}
	if CompareOrder(a, b) != 1 {
		t.Error("order not invalidated after mutation")
	}
}

// TestCompareOrderAcrossTrees pins the inter-tree order: trees order by
// their roots' creation, whatever the heap layout, a detached node
// counts as a tree of its own, and the comparison allocates nothing.
func TestCompareOrderAcrossTrees(t *testing.T) {
	older, newer := NewDocument(), NewDocument()
	x, y := NewElement(Name("x")), NewElement(Name("y"))
	if err := older.AppendChild(y); err != nil {
		t.Fatal(err)
	}
	if err := newer.AppendChild(x); err != nil {
		t.Fatal(err)
	}
	if CompareOrder(y, x) != -1 || CompareOrder(x, y) != 1 {
		t.Error("nodes of the older tree must precede the newer tree's")
	}
	// Detached, x is a root of its own and orders by its own creation,
	// which came after both documents'.
	x.Detach()
	if CompareOrder(older, x) != -1 || CompareOrder(x, newer) != 1 {
		t.Error("a detached node orders by its own creation")
	}
	if n := testing.AllocsPerRun(100, func() { CompareOrder(y, x) }); n != 0 {
		t.Errorf("cross-tree CompareOrder allocates %v times", n)
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	_, root, a, b, _ := buildSample(t)
	x := NewElement(Name("x"))
	if err := root.InsertBefore(x, b); err != nil {
		t.Fatal(err)
	}
	if a.NextSibling() != x || x.NextSibling() != b {
		t.Error("InsertBefore misplaced node")
	}
	y := NewElement(Name("y"))
	if err := root.InsertAfter(y, b); err != nil {
		t.Fatal(err)
	}
	if b.NextSibling() != y || y.NextSibling() != nil {
		t.Error("InsertAfter misplaced node")
	}
	if got := len(root.Children()); got != 4 {
		t.Errorf("children = %d, want 4", got)
	}
}

func TestCycleRejected(t *testing.T) {
	_, root, a, _, _ := buildSample(t)
	if err := a.AppendChild(root); err == nil {
		t.Error("appending ancestor should fail")
	}
	if err := a.AppendChild(a); err == nil {
		t.Error("appending self should fail")
	}
}

func TestAttrOps(t *testing.T) {
	_, _, a, _, _ := buildSample(t)
	if v, ok := a.Attr(Name("id")); !ok || v != "1" {
		t.Fatalf("Attr = %q,%v", v, ok)
	}
	a.SetAttr(Name("id"), "2")
	if a.AttrValue("id") != "2" {
		t.Error("SetAttr did not overwrite")
	}
	a.SetAttr(Name("class"), "big")
	if len(a.Attrs()) != 2 {
		t.Error("SetAttr did not add")
	}
	a.RemoveAttr(Name("id"))
	if _, ok := a.Attr(Name("id")); ok {
		t.Error("RemoveAttr failed")
	}
	dup := NewAttr(Name("class"), "x")
	if err := a.AddAttrNode(dup); err == nil {
		t.Error("duplicate attribute should fail")
	}
}

func TestReplaceElementContent(t *testing.T) {
	_, _, _, b, _ := buildSample(t)
	b.ReplaceElementContent("new")
	if b.StringValue() != "new" || len(b.Children()) != 1 {
		t.Errorf("ReplaceElementContent: %q, %d children", b.StringValue(), len(b.Children()))
	}
	b.ReplaceElementContent("")
	if len(b.Children()) != 0 {
		t.Error("empty replacement should clear children")
	}
}

func TestClone(t *testing.T) {
	_, root, a, _, _ := buildSample(t)
	c := root.Clone()
	if c.Parent() != nil {
		t.Error("clone must be detached")
	}
	if c.StringValue() != root.StringValue() {
		t.Error("clone text differs")
	}
	// Mutating the clone must not affect the original.
	c.Children()[0].SetAttr(Name("id"), "99")
	if a.AttrValue("id") != "1" {
		t.Error("clone shares attribute storage")
	}
	if got := len(c.Children()); got != len(root.Children()) {
		t.Errorf("clone children = %d", got)
	}
}

func TestNormalizeText(t *testing.T) {
	e := NewElement(Name("e"))
	for _, s := range []string{"a", "", "b", "c"} {
		mustAppend(t, e, NewText(s))
	}
	mustAppend(t, e, NewElement(Name("k")))
	mustAppend(t, e, NewText("d"))
	e.NormalizeText()
	kids := e.Children()
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3", len(kids))
	}
	if kids[0].Data != "abc" || kids[2].Data != "d" {
		t.Errorf("merge wrong: %q %q", kids[0].Data, kids[2].Data)
	}
}

func TestElementByID(t *testing.T) {
	_, root, a, _, _ := buildSample(t)
	if root.ElementByID("1") != a {
		t.Error("ElementByID failed")
	}
	if root.ElementByID("nope") != nil {
		t.Error("ElementByID should return nil for missing id")
	}
}

func TestEventDispatchPhases(t *testing.T) {
	_, root, _, b, c := buildSample(t)
	var trace []string
	rec := func(tag string) Listener {
		return func(e *Event) { trace = append(trace, tag) }
	}
	root.AddEventListener("click", true, nil, rec("root-capture"))
	root.AddEventListener("click", false, nil, rec("root-bubble"))
	b.AddEventListener("click", true, nil, rec("b-capture"))
	b.AddEventListener("click", false, nil, rec("b-bubble"))
	c.AddEventListener("click", false, nil, rec("c-target"))

	c.DispatchEvent(&Event{Type: "click", Bubbles: true})
	want := []string{"root-capture", "b-capture", "c-target", "b-bubble", "root-bubble"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEventNoBubble(t *testing.T) {
	_, root, _, _, c := buildSample(t)
	n := 0
	root.AddEventListener("focus", false, nil, func(e *Event) { n++ })
	c.DispatchEvent(&Event{Type: "focus", Bubbles: false})
	if n != 0 {
		t.Error("non-bubbling event reached ancestor bubble listener")
	}
}

func TestStopPropagation(t *testing.T) {
	_, root, _, b, c := buildSample(t)
	var trace []string
	b.AddEventListener("click", true, nil, func(e *Event) {
		trace = append(trace, "b")
		e.StopPropagation()
	})
	c.AddEventListener("click", false, nil, func(e *Event) { trace = append(trace, "c") })
	root.AddEventListener("click", false, nil, func(e *Event) { trace = append(trace, "root") })
	c.DispatchEvent(&Event{Type: "click", Bubbles: true})
	if len(trace) != 1 || trace[0] != "b" {
		t.Errorf("trace = %v, want [b]", trace)
	}
}

func TestPreventDefault(t *testing.T) {
	_, _, _, _, c := buildSample(t)
	c.AddEventListener("submit", false, nil, func(e *Event) { e.PreventDefault() })
	if c.DispatchEvent(&Event{Type: "submit", Cancelable: true}) {
		t.Error("DispatchEvent should report prevented default")
	}
	// Non-cancelable events ignore PreventDefault.
	if !c.DispatchEvent(&Event{Type: "submit"}) {
		t.Error("non-cancelable event must not be prevented")
	}
}

func TestListenerIdentity(t *testing.T) {
	e := NewElement(Name("e"))
	n := 0
	fn := func(*Event) { n++ }
	e.AddEventListener("click", false, "local:f", fn)
	e.AddEventListener("click", false, "local:f", fn) // duplicate suppressed
	e.DispatchEvent(&Event{Type: "click"})
	if n != 1 {
		t.Errorf("duplicate registration fired %d times", n)
	}
	e.RemoveEventListener("click", false, "local:f")
	e.DispatchEvent(&Event{Type: "click"})
	if n != 1 {
		t.Error("listener not removed")
	}
}

func TestListenerAddedDuringDispatchDeferred(t *testing.T) {
	e := NewElement(Name("e"))
	n := 0
	e.AddEventListener("click", false, nil, func(*Event) {
		e.AddEventListener("click", false, nil, func(*Event) { n += 10 })
		n++
	})
	e.DispatchEvent(&Event{Type: "click"})
	if n != 1 {
		t.Errorf("listener added during dispatch fired immediately: n=%d", n)
	}
	e.DispatchEvent(&Event{Type: "click"})
	if n != 12 {
		t.Errorf("second dispatch: n=%d, want 12", n)
	}
}

func TestListenerRemovedDuringDispatchSkipped(t *testing.T) {
	e := NewElement(Name("e"))
	n := 0
	e.AddEventListener("click", false, "a", func(*Event) {
		e.RemoveEventListener("click", false, "b")
	})
	e.AddEventListener("click", false, "b", func(*Event) { n++ })
	e.DispatchEvent(&Event{Type: "click"})
	if n != 0 {
		t.Error("removed listener still fired")
	}
}

// randomTree builds a random tree with the given rand; returns all nodes
// in construction (document) order.
func randomTree(r *rand.Rand, size int) []*Node {
	doc := NewDocument()
	root := NewElement(Name("r"))
	_ = doc.AppendChild(root)
	parents := []*Node{root}
	for i := 0; i < size; i++ {
		p := parents[r.Intn(len(parents))]
		var n *Node
		switch r.Intn(3) {
		case 0:
			n = NewElement(Name("e"))
			parents = append(parents, n)
		case 1:
			n = NewText("t")
		default:
			n = NewComment("c")
		}
		_ = p.AppendChild(n)
	}
	var all []*Node
	doc.Walk(func(n *Node) bool { all = append(all, n); return true })
	return all
}

// Property: CompareOrder is a strict total order consistent with Walk's
// document order.
func TestCompareOrderTotalOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		all := randomTree(r, 30)
		for i := range all {
			for j := range all {
				got := CompareOrder(all[i], all[j])
				want := 0
				if i < j {
					want = -1
				} else if i > j {
					want = 1
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Clone produces a structurally equal, fully detached copy.
func TestClonePreservesStructureProperty(t *testing.T) {
	var equal func(a, b *Node) bool
	equal = func(a, b *Node) bool {
		if a.Type != b.Type || !a.Name.Matches(b.Name) || a.Data != b.Data {
			return false
		}
		if len(a.Children()) != len(b.Children()) || len(a.Attrs()) != len(b.Attrs()) {
			return false
		}
		for i := range a.Children() {
			if !equal(a.Children()[i], b.Children()[i]) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		all := randomTree(r, 25)
		root := all[0]
		c := root.Clone()
		return equal(root, c) && c.Parent() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQName(t *testing.T) {
	q := QName{Space: "urn:x", Prefix: "p", Local: "a"}
	if q.String() != "p:a" {
		t.Errorf("String = %q", q.String())
	}
	if !q.Matches(QName{Space: "urn:x", Local: "a"}) {
		t.Error("Matches must ignore prefix")
	}
	if q.Matches(QName{Space: "urn:y", Local: "a"}) {
		t.Error("Matches must compare namespace")
	}
	if Name("a").String() != "a" {
		t.Error("unprefixed String")
	}
}

func TestPrependChild(t *testing.T) {
	_, root, a, _, _ := buildSample(t)
	x := NewElement(Name("x"))
	if err := root.PrependChild(x); err != nil {
		t.Fatal(err)
	}
	if root.FirstChild() != x || x.NextSibling() != a {
		t.Error("PrependChild misplaced node")
	}
	// Prepending a node that is elsewhere in the tree moves it.
	if err := root.PrependChild(a); err != nil {
		t.Fatal(err)
	}
	if root.FirstChild() != a {
		t.Error("PrependChild did not move existing child")
	}
	if got := len(root.Children()); got != 3 {
		t.Errorf("children = %d, want 3", got)
	}
}

func TestReplaceChild(t *testing.T) {
	_, root, a, b, _ := buildSample(t)
	x := NewElement(Name("x"))
	if err := root.ReplaceChild(x, a); err != nil {
		t.Fatal(err)
	}
	if a.Parent() != nil || x.Parent() != root || root.FirstChild() != x {
		t.Error("ReplaceChild wiring wrong")
	}
	if err := root.ReplaceChild(NewElement(Name("y")), a); err == nil {
		t.Error("replacing a detached node should fail")
	}
	_ = b
}

func TestWalkEarlyStop(t *testing.T) {
	_, root, _, _, _ := buildSample(t)
	visited := 0
	root.Walk(func(n *Node) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Errorf("visited = %d, want 3 (early stop)", visited)
	}
}

func TestBaseURIInheritance(t *testing.T) {
	doc, _, a, _, c := buildSample(t)
	doc.BaseURI = "http://example.com/doc.xml"
	if a.Base() != "http://example.com/doc.xml" || c.Base() != doc.BaseURI {
		t.Error("Base() must inherit from the document")
	}
	a.BaseURI = "http://other/base"
	if a.FirstChild().Base() != "http://other/base" {
		t.Error("nearer BaseURI must win")
	}
	detached := NewElement(Name("d"))
	if detached.Base() != "" {
		t.Error("detached node has no base")
	}
}

func TestListenerCount(t *testing.T) {
	e := NewElement(Name("e"))
	e.AddEventListener("click", false, nil, func(*Event) {})
	e.AddEventListener("click", true, nil, func(*Event) {})
	e.AddEventListener("focus", false, nil, func(*Event) {})
	if e.ListenerCount("click") != 2 || e.ListenerCount("focus") != 1 || e.ListenerCount("blur") != 0 {
		t.Error("ListenerCount wrong")
	}
}

func TestDispatchOnDetachedSubtree(t *testing.T) {
	// Events dispatched in a detached subtree still run local listeners.
	e := NewElement(Name("e"))
	c := NewElement(Name("c"))
	_ = e.AppendChild(c)
	hits := 0
	e.AddEventListener("ping", false, nil, func(*Event) { hits++ })
	c.DispatchEvent(&Event{Type: "ping", Bubbles: true})
	if hits != 1 {
		t.Errorf("detached dispatch hits = %d", hits)
	}
}

func TestNodeTypeString(t *testing.T) {
	if DocumentNode.String() != "document" || AttributeNode.String() != "attribute" {
		t.Error("NodeType.String wrong")
	}
	if NodeType(99).String() == "" {
		t.Error("unknown NodeType must still render")
	}
}
