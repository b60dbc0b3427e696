// Package update implements the XQuery Update Facility's pending update
// lists. Updating expressions do not mutate nodes when they evaluate;
// they accumulate update primitives which are checked for compatibility,
// merged, and applied in the order the candidate recommendation
// prescribes — "all modifications are performed once the expression is
// entirely evaluated: there are no side effects until the end" (paper
// §3.2). The Scripting Extension then makes snapshots smaller: the host
// applies the list after every statement instead of once per query.
package update

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/faultpoint"
)

// Kind identifies an update primitive.
type Kind int

// Update primitives, in declaration order (not application order).
const (
	InsertInto Kind = iota + 1
	InsertIntoFirst
	InsertIntoLast
	InsertBefore
	InsertAfter
	InsertAttributes
	Delete
	ReplaceNode
	ReplaceValue
	Rename
)

// String names the primitive kind.
func (k Kind) String() string {
	return [...]string{"", "insertInto", "insertIntoFirst", "insertIntoLast",
		"insertBefore", "insertAfter", "insertAttributes", "delete",
		"replaceNode", "replaceValue", "rename"}[k]
}

// Primitive is one pending update.
type Primitive struct {
	Kind    Kind
	Target  *dom.Node
	Content []*dom.Node // inserted/replacement nodes (already copies)
	Value   string      // ReplaceValue
	Name    dom.QName   // Rename
}

// PUL is a pending update list.
type PUL struct {
	prims []Primitive
}

// Empty reports whether no updates are pending.
func (p *PUL) Empty() bool { return len(p.prims) == 0 }

// Len returns the number of pending primitives.
func (p *PUL) Len() int { return len(p.prims) }

// Primitives returns the pending primitives (callers must not mutate).
func (p *PUL) Primitives() []Primitive { return p.prims }

// ErrNilTarget reports a primitive that names no target node. Add is
// the single validation point: Merge routes through Add, so a nil
// target can never enter a list from either path (it used to slip
// through and only fail — with a panic — deep inside apply).
var ErrNilTarget = errors.New("update: primitive has no target node")

// Add appends a primitive, enforcing the Update Facility's
// compatibility rules: at most one rename, one replaceNode and one
// replaceValue per target node. Primitives without a target are
// rejected with an error matching ErrNilTarget.
func (p *PUL) Add(pr Primitive) error {
	if pr.Target == nil {
		return fmt.Errorf("%w (%s)", ErrNilTarget, pr.Kind)
	}
	for _, q := range p.prims {
		if q.Target != pr.Target {
			continue
		}
		if pr.Kind == q.Kind &&
			(pr.Kind == Rename || pr.Kind == ReplaceNode || pr.Kind == ReplaceValue) {
			return fmt.Errorf("update: incompatible updates: two %s operations target the same node", pr.Kind)
		}
	}
	p.prims = append(p.prims, pr)
	return nil
}

// Merge appends all primitives of q, enforcing compatibility.
func (p *PUL) Merge(q *PUL) error {
	for _, pr := range q.prims {
		if err := p.Add(pr); err != nil {
			return err
		}
	}
	return nil
}

// Reset drops all pending updates.
func (p *PUL) Reset() { p.prims = p.prims[:0] }

// TargetsWithin verifies every primitive targets a node whose root is
// one of the given roots — the "transform" expression's requirement that
// modify clauses only touch copied trees.
func (p *PUL) TargetsWithin(roots []*dom.Node) error {
	in := func(n *dom.Node) bool {
		r := n.Root()
		for _, x := range roots {
			if r == x {
				return true
			}
		}
		return false
	}
	for _, pr := range p.prims {
		if !in(pr.Target) {
			return fmt.Errorf("update: %s targets a node outside the copied trees", pr.Kind)
		}
	}
	return nil
}

// applyOrder is the Update Facility's application order.
var applyOrder = [][]Kind{
	{InsertInto, InsertAttributes, ReplaceValue, Rename},
	{InsertBefore, InsertAfter, InsertIntoFirst, InsertIntoLast},
	{ReplaceNode},
	{Delete},
}

// rollbacks counts PUL applications that failed mid-way and were
// rolled back, process-wide (surfaced in serve.Metrics.Failures).
var rollbacks atomic.Int64

// Rollbacks returns the process-wide rollback count.
func Rollbacks() int64 { return rollbacks.Load() }

// Apply performs all pending updates against the live trees in the
// prescribed order and clears the list — atomically: every primitive
// records its exact inverse in an undo log, and if any primitive fails
// mid-apply the log unwinds in reverse, each touched tree's version
// counter is rewound to its pre-apply value (re-stamping document
// order and dropping any index built in the rolled-back window, once
// per tree), and the original error returns with the documents
// serialisation-identical to their pre-apply state and the list intact.
// That makes the Update Facility's all-or-nothing contract hold against
// the live DOM, not just the evaluation snapshot. Primitives that are
// exact no-ops in that order (a delete of a replaced node, a duplicate
// delete) are dropped first.
//
// If onChange is non-nil it is called once per applied primitive (the
// plug-in host uses this to count DOM mutations and schedule
// re-rendering) — but only after the whole list has applied, so
// observers never see a primitive that is later rolled back.
func (p *PUL) Apply(onChange func(Primitive)) error {
	_, err := p.ApplyEliminate(onChange, false)
	return err
}

// ApplyEliminate is Apply with the observability-gated dead-update
// rules switched by eliminate: primitives whose entire effect lands
// inside a subtree that a surviving delete/replaceNode detaches are
// dropped as well. The live documents end up byte-identical either
// way; what changes is the state of the detached subtrees, so callers
// must only set eliminate when nothing can observe them (no node items
// in the result, no node-bearing external variables, no reused
// context). It returns how many primitives were dropped, the exact
// no-ops included.
func (p *PUL) ApplyEliminate(onChange func(Primitive), eliminate bool) (int, error) {
	survivors, eliminated := dropDead(p.prims, eliminate)
	ordered := orderedPrims(survivors)
	versions := snapshotVersions(p.prims)
	u := &undoLog{}
	for _, pr := range ordered {
		err := faultpoint.Hit(faultpoint.PointUpdateApply)
		if err == nil {
			err = applyOne(pr, u)
		}
		if err != nil {
			rollbacks.Add(1)
			return 0, rollback(err, u, versions)
		}
	}
	statEliminated.Add(int64(eliminated))
	if len(ordered) > 0 {
		statGroups.Add(1)
	}
	if onChange != nil {
		for _, pr := range ordered {
			onChange(pr)
		}
	}
	p.Reset()
	return eliminated, nil
}

// orderedPrims returns the primitives in the Update Facility's
// application order: phase by phase, original list order within a
// phase.
func orderedPrims(prims []Primitive) []Primitive {
	out := make([]Primitive, 0, len(prims))
	for _, phase := range applyOrder {
		for _, pr := range prims {
			if kindIn(pr.Kind, phase) {
				out = append(out, pr)
			}
		}
	}
	return out
}

// snapshotVersions records each target tree's version counter before
// the first mutation. Content trees need no entry: nothing caches on a
// freshly constructed copy, and inserts bump the target tree.
func snapshotVersions(prims []Primitive) map[*dom.Node]uint64 {
	versions := map[*dom.Node]uint64{}
	for _, pr := range prims {
		if r := pr.Target.Root(); r != nil {
			if _, ok := versions[r]; !ok {
				versions[r] = r.Version()
			}
		}
	}
	return versions
}

// rollback unwinds a failed apply: the undo log runs in strict
// reverse, every touched tree's version counter is rewound, and the
// original error returns — joined with an undo failure if the rollback
// itself broke.
func rollback(err error, u *undoLog, versions map[*dom.Node]uint64) error {
	undoErr := u.undo()
	for root, v := range versions {
		if root.Version() != v {
			root.RestoreVersion(v)
		}
	}
	if undoErr != nil {
		return errors.Join(err, fmt.Errorf("update: rollback failed: %w", undoErr))
	}
	return err
}

// undoLog records, during an apply, the exact inverse of every
// mutation in application order. Inverses are positional
// (RestoreChildAt/RestoreAttrAt) rather than sibling-relative: by the
// time the log unwinds, the sibling that anchored an operation may
// itself be detached, but unwinding in strict reverse order means each
// inverse runs against exactly the state its operation produced, so a
// captured list index is always valid.
type undoLog struct {
	steps []func() error
}

func (u *undoLog) add(f func() error) {
	u.steps = append(u.steps, f)
}

func (u *undoLog) undo() error {
	var errs []error
	for i := len(u.steps) - 1; i >= 0; i-- {
		if err := u.steps[i](); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func kindIn(k Kind, ks []Kind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

func applyOne(pr Primitive, u *undoLog) error {
	t := pr.Target
	switch pr.Kind {
	case InsertInto, InsertIntoLast:
		for _, c := range pr.Content {
			if err := insertChildOrAttr(t, c, u, func(n *dom.Node) error { return t.AppendChild(n) }); err != nil {
				return err
			}
		}
	case InsertIntoFirst:
		// Preserve content order while prepending.
		for i := len(pr.Content) - 1; i >= 0; i-- {
			c := pr.Content[i]
			if err := insertChildOrAttr(t, c, u, func(n *dom.Node) error { return t.PrependChild(n) }); err != nil {
				return err
			}
		}
	case InsertBefore:
		parent := t.Parent()
		if parent == nil {
			return fmt.Errorf("update: insert before a parentless node")
		}
		for _, c := range pr.Content {
			if err := insertChild(c, u, func() error { return parent.InsertBefore(c, t) }); err != nil {
				return err
			}
		}
	case InsertAfter:
		parent := t.Parent()
		if parent == nil {
			return fmt.Errorf("update: insert after a parentless node")
		}
		ref := t
		for _, c := range pr.Content {
			if err := insertChild(c, u, func() error { return parent.InsertAfter(c, ref) }); err != nil {
				return err
			}
			ref = c
		}
	case InsertAttributes:
		for _, a := range pr.Content {
			if a.Type != dom.AttributeNode {
				return fmt.Errorf("update: insertAttributes content must be attributes")
			}
			setAttr(t, a.Name, a.Data, u)
		}
	case Delete:
		detach(t, u)
	case ReplaceNode:
		if t.Type == dom.AttributeNode {
			owner := t.Parent()
			if owner == nil {
				return fmt.Errorf("update: replace a detached attribute")
			}
			detach(t, u)
			for _, c := range pr.Content {
				if c.Type != dom.AttributeNode {
					return fmt.Errorf("update: attribute can only be replaced by attributes")
				}
				setAttr(owner, c.Name, c.Data, u)
			}
			return nil
		}
		parent := t.Parent()
		if parent == nil {
			return fmt.Errorf("update: replace a parentless node")
		}
		ref := t
		for _, c := range pr.Content {
			if err := insertChild(c, u, func() error { return parent.InsertAfter(c, ref) }); err != nil {
				return err
			}
			ref = c
		}
		detach(t, u)
	case ReplaceValue:
		switch t.Type {
		case dom.ElementNode:
			old := append([]*dom.Node(nil), t.Children()...)
			t.ReplaceElementContent(pr.Value)
			u.add(func() error {
				t.RemoveChildren()
				var errs []error
				for _, c := range old {
					if err := t.AppendChild(c); err != nil {
						errs = append(errs, err)
					}
				}
				return errors.Join(errs...)
			})
		case dom.DocumentNode:
			return fmt.Errorf("update: cannot replace value of a document node")
		default:
			old := t.Data
			t.SetData(pr.Value)
			u.add(func() error { t.SetData(old); return nil })
		}
	case Rename:
		switch t.Type {
		case dom.ElementNode, dom.AttributeNode, dom.ProcessingInstructionNode:
			// A duplicate attribute name (XUDY0021) must fail here, not
			// slip into the tree: the transient duplicate state would
			// poison a later rollback (RestoreAttrAt rightly refuses to
			// recreate it).
			if t.Type == dom.AttributeNode {
				if owner := t.Parent(); owner != nil {
					if ex := owner.AttrNode(pr.Name); ex != nil && ex != t {
						return fmt.Errorf("update: rename would create a duplicate attribute %s", pr.Name.Local)
					}
				}
			}
			old := t.Name
			t.Rename(pr.Name)
			u.add(func() error { t.Rename(old); return nil })
		default:
			return fmt.Errorf("update: cannot rename a %s node", t.Type)
		}
	default:
		return fmt.Errorf("update: unknown primitive %d", pr.Kind)
	}
	return nil
}

// insertChild runs one child insertion and records its inverse (the
// content node was detached before insertion, so detaching again is
// exact).
func insertChild(c *dom.Node, u *undoLog, insert func() error) error {
	if err := insert(); err != nil {
		return err
	}
	u.add(func() error { c.Detach(); return nil })
	return nil
}

// setAttr sets (or adds) an attribute and records its inverse: restore
// the previous value on the same attribute node, or detach the node
// SetAttr created.
func setAttr(t *dom.Node, name dom.QName, value string, u *undoLog) {
	if a := t.AttrNode(name); a != nil {
		old := a.Data
		a.SetData(value)
		u.add(func() error { a.SetData(old); return nil })
		return
	}
	a := t.SetAttr(name, value)
	u.add(func() error { a.Detach(); return nil })
}

// detach removes t from its parent and records a positional inverse so
// the undo restores the exact child/attribute list order. Detaching a
// parentless node records nothing (Detach itself is a no-op there).
func detach(t *dom.Node, u *undoLog) {
	p := t.Parent()
	if p == nil {
		return
	}
	if t.Type == dom.AttributeNode {
		i := nodeIndex(p.Attrs(), t)
		t.Detach()
		u.add(func() error { return p.RestoreAttrAt(t, i) })
		return
	}
	i := nodeIndex(p.Children(), t)
	t.Detach()
	u.add(func() error { return p.RestoreChildAt(t, i) })
}

func nodeIndex(list []*dom.Node, t *dom.Node) int {
	for i, x := range list {
		if x == t {
			return i
		}
	}
	return -1
}

// insertChildOrAttr routes attribute nodes in an insert-into content
// list to the attribute list and everything else through insert.
func insertChildOrAttr(target, c *dom.Node, u *undoLog, insert func(*dom.Node) error) error {
	if c.Type == dom.AttributeNode {
		if target.Type != dom.ElementNode {
			return fmt.Errorf("update: attributes can only be inserted into elements")
		}
		setAttr(target, c.Name, c.Data, u)
		return nil
	}
	if err := insert(c); err != nil {
		return err
	}
	u.add(func() error { c.Detach(); return nil })
	return nil
}
