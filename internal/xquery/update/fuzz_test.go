package update

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/markup"
)

// FuzzPULPartition drives dead-update elimination against the plain
// serial oracle: an arbitrary byte string is decoded into a pending
// update list, the same list is built against two parses of one
// document, and applyReference (every primitive, none dropped) and
// ApplyEliminate must agree — same error presence, byte-identical live
// documents (after rollback too). The gated rule is switched from the
// input's first byte; eliminable() guarantees it never changes failure
// behaviour, so comparing error presence stays valid with it on.
func FuzzPULPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{1, 7, 0, 7, 2, 7, 9, 3})
	f.Add([]byte{0, 8, 1, 8, 10, 4, 10, 4})
	f.Add([]byte{1, 0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 5, 10, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		const src = `<r><a>one</a><b k="v"><b1/><b2>two</b2></b><c/><d><d1/></d></r>`
		docS, err := markup.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		docP, _ := markup.Parse(src)
		nodesS, nodesP := collectNodes(docS), collectNodes(docP)
		if len(nodesS) != len(nodesP) {
			t.Fatal("clone node counts differ")
		}

		eliminate := len(data) > 0 && data[0]&1 == 1
		if len(data) > 1 {
			data = data[1:]
		}
		ps, pp := &PUL{}, &PUL{}
		for i := 0; i+1 < len(data) && i < 24; i += 2 {
			kind := Kind(data[i]%10) + 1
			ni := int(data[i+1]) % len(nodesS)
			prS := fuzzPrim(kind, nodesS[ni], i)
			prP := fuzzPrim(kind, nodesP[ni], i)
			errS, errP := ps.Add(prS), pp.Add(prP)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("Add diverged: %v vs %v", errS, errP)
			}
		}

		index.For(docS)
		index.For(docP)
		errS := applyReference(ps, func(Primitive) {})
		_, errP := pp.ApplyEliminate(nil, eliminate)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("apply error mismatch: serial %v, eliminating %v", errS, errP)
		}
		s, p := markup.Serialize(docS), markup.Serialize(docP)
		if s != p {
			t.Fatalf("documents diverged (err=%v):\n serial      %s\n eliminating %s", errS, s, p)
		}
	})
}

// fuzzPrim builds one primitive of the given kind against n, with
// deterministic content derived from the list position.
func fuzzPrim(kind Kind, n *dom.Node, pos int) Primitive {
	pr := Primitive{Kind: kind, Target: n}
	switch kind {
	case InsertInto, InsertIntoFirst, InsertIntoLast, InsertBefore, InsertAfter:
		pr.Content = []*dom.Node{dom.NewElement(dom.Name(fuzzName(pos)))}
	case InsertAttributes:
		pr.Content = []*dom.Node{dom.NewAttr(dom.Name(fuzzName(pos)), "v")}
	case ReplaceNode:
		if n.Type == dom.AttributeNode {
			pr.Content = []*dom.Node{dom.NewAttr(dom.Name(fuzzName(pos)), "w")}
		} else {
			pr.Content = []*dom.Node{dom.NewElement(dom.Name(fuzzName(pos)))}
		}
	case ReplaceValue:
		pr.Value = fuzzName(pos)
	case Rename:
		pr.Name = dom.Name(fuzzName(pos))
	}
	return pr
}

func fuzzName(pos int) string {
	return string(rune('p' + pos%8))
}

// collectNodes returns the document's nodes in document order —
// elements, attributes and texts — so a byte index picks the same node
// in two parses of one source.
func collectNodes(doc *dom.Node) []*dom.Node {
	var out []*dom.Node
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		out = append(out, n)
		for _, a := range n.Attrs() {
			out = append(out, a)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, c := range doc.Children() {
		walk(c)
	}
	return out
}
