package update

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/faultpoint"
	"repro/internal/markup"
)

func TestAddRejectsNilTarget(t *testing.T) {
	p := &PUL{}
	err := p.Add(Primitive{Kind: Delete})
	if !errors.Is(err, ErrNilTarget) {
		t.Fatalf("Add(nil target) = %v, want ErrNilTarget", err)
	}
	if !p.Empty() {
		t.Fatal("rejected primitive entered the list")
	}
	// Merge validates through Add, so a hand-built list with a nil
	// target cannot cross into a healthy one.
	q := &PUL{prims: []Primitive{{Kind: Rename, Name: dom.Name("x")}}}
	if err := p.Merge(q); !errors.Is(err, ErrNilTarget) {
		t.Fatalf("Merge(nil target) = %v, want ErrNilTarget", err)
	}
}

// applyReference is the elimination oracle: every primitive of the
// list, dead or not, applies in the Update Facility's order, and a
// failure unwinds the undo log.
func applyReference(p *PUL, onChange func(Primitive)) error {
	ordered := orderedPrims(p.prims)
	versions := snapshotVersions(p.prims)
	u := &undoLog{}
	for _, pr := range ordered {
		if err := applyOne(pr, u); err != nil {
			return rollback(err, u, versions)
		}
	}
	for _, pr := range ordered {
		onChange(pr)
	}
	p.Reset()
	return nil
}

// primSpec builds the same primitive list against a document, so the
// reference and the eliminating apply can run over two parses of one
// source.
type primSpec func(t *testing.T, doc *dom.Node, p *PUL)

// runBothApplies parses src twice, applies build's list through the
// reference on one tree and through ApplyEliminate on the other (with
// a fresh index on both, so the gated rule can fire), and asserts
// identical serialisations, identical error presence and — when
// nothing was eliminated — identical onChange sequences.
func runBothApplies(t *testing.T, src string, eliminate bool, build primSpec) (eliminated int) {
	t.Helper()
	docR, docE := tree(t, src), tree(t, src)
	pr, pe := &PUL{}, &PUL{}
	build(t, docR, pr)
	build(t, docE, pe)
	index.For(docR)
	index.For(docE)

	var seqR, seqE []string
	errR := applyReference(pr, func(p Primitive) { seqR = append(seqR, p.Kind.String()) })
	eliminated, errE := pe.ApplyEliminate(func(p Primitive) { seqE = append(seqE, p.Kind.String()) }, eliminate)
	if (errR == nil) != (errE == nil) {
		t.Fatalf("error mismatch: reference %v, eliminating %v", errR, errE)
	}
	if r, e := markup.Serialize(docR), markup.Serialize(docE); r != e {
		t.Fatalf("trees diverged:\n reference   %s\n eliminating %s", r, e)
	}
	if eliminated == 0 && errR == nil && fmt.Sprint(seqR) != fmt.Sprint(seqE) {
		t.Fatalf("onChange order diverged:\n reference   %v\n eliminating %v", seqR, seqE)
	}
	return eliminated
}

// TestPartitionAcrossDocuments applies one list across two documents
// without building an index for either.
func TestPartitionAcrossDocuments(t *testing.T) {
	doc1 := tree(t, `<r><a>x</a><c/></r>`)
	doc2 := tree(t, `<q><b>y</b><d/></q>`)
	builds0 := index.Snapshot().Builds
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc1, "a"), Value: "1"})
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc2, "b"), Value: "2"})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc1, "c")})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc2, "d")})
	if err := p.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if got := markup.Serialize(doc1); got != `<r><a>1</a></r>` {
		t.Errorf("doc1 = %s", got)
	}
	if got := markup.Serialize(doc2); got != `<q><b>2</b></q>` {
		t.Errorf("doc2 = %s", got)
	}
	if got := index.Snapshot().Builds; got != builds0 {
		t.Errorf("apply built %d indexes", got-builds0)
	}
}

// TestApplyBuildsNoIndex pins that an apply with elimination off never
// pays an O(document) index build, however long the list: the spans
// are only needed by the gated rule.
func TestApplyBuildsNoIndex(t *testing.T) {
	const src = `<r><a>x</a><b>y</b><c><c1/></c><d/></r>`
	build := func(doc *dom.Node) *PUL {
		p := &PUL{}
		_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "1"})
		_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("bb")})
		_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "c1"),
			Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})
		_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "c")})
		_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "d"),
			Content: []*dom.Node{dom.NewElement(dom.Name("y"))}})
		return p
	}
	builds0 := index.Snapshot().Builds
	if err := build(tree(t, src)).Apply(nil); err != nil {
		t.Fatal(err)
	}
	if n, err := build(tree(t, src)).ApplyEliminate(nil, false); err != nil || n != 0 {
		t.Fatalf("ApplyEliminate(false) = %d, %v", n, err)
	}
	if got := index.Snapshot().Builds; got != builds0 {
		t.Errorf("apply with elimination off built %d indexes", got-builds0)
	}
}

// TestUnconditionalElimination drops exact no-ops even with elimination
// off: a delete of a replaced target and a duplicate delete.
func TestUnconditionalElimination(t *testing.T) {
	const src = `<r><a/><b/></r>`
	n := runBothApplies(t, src, false, func(t *testing.T, doc *dom.Node, p *PUL) {
		a, b := el(t, doc, "a"), el(t, doc, "b")
		_ = p.Add(Primitive{Kind: ReplaceNode, Target: a,
			Content: []*dom.Node{dom.NewElement(dom.Name("a2"))}})
		_ = p.Add(Primitive{Kind: Delete, Target: a}) // replace-then-delete: dead
		_ = p.Add(Primitive{Kind: Delete, Target: b})
		_ = p.Add(Primitive{Kind: Delete, Target: b}) // duplicate: dead
	})
	if n != 2 {
		t.Errorf("eliminated = %d, want 2", n)
	}
}

// TestGatedElimination drops an insert whose whole effect lands in a
// deleted subtree — live tree identical to the reference — but only
// when the caller vouches nothing observes detached nodes.
func TestGatedElimination(t *testing.T) {
	const src = `<r><a><a1>t</a1></a><b/></r>`
	build := func(t *testing.T, doc *dom.Node, p *PUL) {
		_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "a1"),
			Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})
		_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "gone"})
		_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "a")})
		_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("b2")})
	}
	if n := runBothApplies(t, src, false, build); n != 0 {
		t.Errorf("eliminated without opt-in: %d", n)
	}
	// insertInto a1 and replaceValue a both die inside a's deleted
	// span; the delete itself and the rename survive.
	if n := runBothApplies(t, src, true, build); n != 2 {
		t.Errorf("eliminated = %d, want 2", n)
	}
}

// TestEliminationNeverDropsFailingPrimitive pins the guard: a rename
// of a text node inside a deleted subtree fails the reference apply,
// so elimination must not drop it into a success.
func TestEliminationNeverDropsFailingPrimitive(t *testing.T) {
	const src = `<r><a>text</a></r>`
	docR, docE := tree(t, src), tree(t, src)
	build := func(doc *dom.Node, p *PUL) {
		a := el(t, doc, "a")
		_ = p.Add(Primitive{Kind: Rename, Target: a.FirstChild(), Name: dom.Name("x")})
		_ = p.Add(Primitive{Kind: Delete, Target: a})
	}
	pr, pe := &PUL{}, &PUL{}
	build(docR, pr)
	build(docE, pe)
	index.For(docE)
	errR := applyReference(pr, func(Primitive) {})
	_, errE := pe.ApplyEliminate(nil, true)
	if errR == nil || errE == nil {
		t.Fatalf("renaming a text node must fail both applies: reference %v, eliminating %v", errR, errE)
	}
	if r, e := markup.Serialize(docR), markup.Serialize(docE); r != e {
		t.Fatalf("rolled-back trees diverged:\n reference   %s\n eliminating %s", r, e)
	}
}

// TestRollbackSeededFault drives the seeded chaos trigger through
// applies and asserts every failed apply restores the pre-apply
// serialisation exactly (the mid-apply entry of the chaos matrix,
// deterministic for a fixed seed).
func TestRollbackSeededFault(t *testing.T) {
	defer faultpoint.Reset()
	const src = `<r><a>one</a><b k="v"/><c><c1/></c><d/></r>`
	for seed := uint64(1); seed <= 8; seed++ {
		faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Seeded(seed, 0.3))
		doc := tree(t, src)
		before := markup.Serialize(doc)
		p := &PUL{}
		_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "two"})
		_ = p.Add(Primitive{Kind: InsertAttributes, Target: el(t, doc, "b"),
			Content: []*dom.Node{dom.NewAttr(dom.Name("k"), "w")}})
		_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "c1")})
		_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "d"),
			Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})
		if err := p.Apply(nil); err != nil {
			if got := markup.Serialize(doc); got != before {
				t.Fatalf("seed %d: not restored:\n before %s\n  after %s", seed, before, got)
			}
		} else if got := markup.Serialize(doc); got == before {
			t.Fatalf("seed %d: successful apply changed nothing", seed)
		}
		faultpoint.Disable(faultpoint.PointUpdateApply)
	}
}

// TestPartitionSkipsIndexForSmallLists pins the build heuristic of the
// gated rule: below minIndexPrims with no cached index it must not pay
// an index build (and so eliminates nothing); with a fresh index
// already cached it eliminates for free.
func TestPartitionSkipsIndexForSmallLists(t *testing.T) {
	doc := tree(t, `<r><a><a1/></a><b/></r>`)
	build := func() *PUL {
		p := &PUL{}
		_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "a1"), Name: dom.Name("x")})
		_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "a")})
		return p
	}
	builds0 := index.Snapshot().Builds
	n, err := build().ApplyEliminate(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := index.Snapshot().Builds; got != builds0 {
		t.Errorf("small list built an index (%d builds)", got-builds0)
	}
	if n != 0 {
		t.Errorf("eliminated = %d, want 0 without an index", n)
	}

	// With a fresh index cached the same list eliminates the rename.
	doc = tree(t, `<r><a><a1/></a><b/></r>`)
	index.For(doc)
	if n, err := build().ApplyEliminate(nil, true); err != nil || n != 1 {
		t.Errorf("ApplyEliminate = %d, %v; want 1 eliminated with a fresh index", n, err)
	}
}

// TestPartitionContentAliasingForcesSerial pins the safety guard: a
// hand-built list inserting a tree that other primitives target
// switches gated elimination off, so every primitive applies as in
// the reference.
func TestPartitionContentAliasingForcesSerial(t *testing.T) {
	const src = `<r><a><a1/></a><b/></r>`
	build := func(aliased bool) primSpec {
		return func(t *testing.T, doc *dom.Node, p *PUL) {
			frag := dom.NewElement(dom.Name("frag"))
			x := dom.NewElement(dom.Name("x"))
			if err := frag.AppendChild(x); err != nil {
				t.Fatal(err)
			}
			if aliased {
				_ = p.Add(Primitive{Kind: ReplaceValue, Target: x, Value: "w"})
			}
			_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "b"), Content: []*dom.Node{frag}})
			_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "a1"), Name: dom.Name("y")})
			_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "a")})
		}
	}
	if n := runBothApplies(t, src, true, build(false)); n != 1 {
		t.Fatalf("eliminated = %d, want 1 without aliasing", n)
	}
	if n := runBothApplies(t, src, true, build(true)); n != 0 {
		t.Errorf("eliminated = %d, want 0 under content aliasing", n)
	}
}

// TestRenameDuplicateAttributeRollback pins the XUDY0021-style check:
// a rename that would duplicate an attribute name fails the apply
// (with and without elimination) instead of poisoning the tree with a
// state the rollback machinery cannot restore.
func TestRenameDuplicateAttributeRollback(t *testing.T) {
	for _, eliminate := range []bool{false, true} {
		doc := tree(t, `<r><b k="v" p="w"/></r>`)
		index.For(doc)
		before := markup.Serialize(doc)
		p := &PUL{}
		_ = p.Add(Primitive{Kind: InsertAttributes, Target: el(t, doc, "b"),
			Content: []*dom.Node{dom.NewAttr(dom.Name("q"), "x")}})
		_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b").AttrNode(dom.Name("k")),
			Name: dom.Name("p")})
		if _, err := p.ApplyEliminate(nil, eliminate); err == nil {
			t.Fatalf("eliminate=%v: duplicate-attribute rename must fail", eliminate)
		}
		if got := markup.Serialize(doc); got != before {
			t.Fatalf("eliminate=%v: not restored:\n before %s\n  after %s", eliminate, before, got)
		}
	}
}

// TestSnapshotCounters asserts the process-wide counters advance: one
// group per apply, the dropped duplicate delete, and never a parallel
// apply.
func TestSnapshotCounters(t *testing.T) {
	before := Snapshot()
	doc := tree(t, `<r><a>x</a><b><b1/></b></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "1"})
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("bb")})
	b1 := el(t, doc, "b1")
	_ = p.Add(Primitive{Kind: Delete, Target: b1})
	_ = p.Add(Primitive{Kind: Delete, Target: b1})
	if err := p.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(nil); err != nil { // empty list: no group
		t.Fatal(err)
	}
	after := Snapshot()
	if after.Eliminated != before.Eliminated+1 {
		t.Errorf("Eliminated delta = %d, want 1", after.Eliminated-before.Eliminated)
	}
	if after.Groups != before.Groups+1 {
		t.Errorf("Groups delta = %d, want 1", after.Groups-before.Groups)
	}
	if after.ParallelApplies != 0 {
		t.Errorf("ParallelApplies = %d, want 0", after.ParallelApplies)
	}
}
