// eliminate.go is the dynamic half of the FLUX-style update analysis
// (Cheney; see PAPERS.md): before a pending update list applies, dead
// primitives are dropped. Two rules are unconditional, because the
// dropped primitives are exact no-ops in the serial order: a delete of
// a target some replaceNode detaches in phase 3 finds it already
// parentless in phase 4, and a second delete of one target finds it
// detached by the first. The third rule is gated on the caller
// vouching that nothing observes detached subtrees: a primitive whose
// whole effect lands inside a subtree that a surviving delete or
// replaceNode detaches only changes that detached subtree, so the live
// documents come out identical without it.
//
// Region argument, in brief. Each primitive is assigned a region node
// r: the target itself for the self-contained kinds (insertInto*,
// insertAttributes, replaceValue, rename), the target's parent for the
// kinds that edit a sibling list (insertBefore/After, delete,
// replaceNode). Every write a primitive performs — child-slice edits,
// attribute-list edits, parent-pointer writes — lands on nodes inside
// r's pre-apply subtree span, plus freshly constructed content nodes
// owned by this list. The spans come from the pre/end document-order
// numbering of internal/dom/index, looked up only when the gated rule
// can fire: elimination is on and the tree holds a delete or
// replaceNode of an attached node.
package update

import (
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/dom/index"
)

// minIndexPrims is the smallest per-tree list for which gated
// elimination pays an O(document) index build when no fresh
// document-order index is cached; shorter lists only eliminate against
// an index some query already built.
const minIndexPrims = 4

// Process-wide apply counters, surfaced in serve.Metrics.Updates.
var (
	statEliminated atomic.Int64
	statGroups     atomic.Int64
)

// Stats is a snapshot of the process-wide apply counters.
type Stats struct {
	// Eliminated counts dead primitives dropped before apply.
	Eliminated int64
	// Groups counts applies left with at least one primitive after
	// elimination. Each applies as one serial group, so Groups over
	// applies is at most 1.
	Groups int64
	// ParallelApplies is always 0: pending lists apply serially. The
	// field stays so readers of the counter set keep compiling.
	ParallelApplies int64
}

// Snapshot returns the current apply counters.
func Snapshot() Stats {
	return Stats{
		Eliminated: statEliminated.Load(),
		Groups:     statGroups.Load(),
	}
}

// regionNode maps a primitive to the node whose pre-apply subtree
// bounds all of its writes: the target for self-contained kinds, the
// target's parent for sibling-list edits. A parentless target of a
// sibling-list kind (which applies as an error or a no-op) conservatively
// regions at the target itself.
func regionNode(pr Primitive) *dom.Node {
	switch pr.Kind {
	case InsertBefore, InsertAfter, Delete, ReplaceNode:
		if p := pr.Target.Parent(); p != nil {
			return p
		}
	}
	return pr.Target
}

// eliminable reports whether pr provably cannot fail at apply time,
// whatever else the list does — the precondition for dropping it.
// Eliminating a primitive that would have failed would convert a
// failing (and fully rolled back) apply into a succeeding one, which
// the plain apply could observe. Sibling-relative inserts and element
// replaceNode stay ineligible: an earlier-phase primitive in the same
// subtree can detach their reference node and fail them.
func eliminable(pr Primitive) bool {
	switch pr.Kind {
	case Delete:
		return true
	case ReplaceValue:
		return pr.Target.Type != dom.DocumentNode
	case Rename:
		// Attribute renames stay ineligible even though they cannot
		// fail: setAttr resolves attributes by name on the owner
		// element, so renaming a doomed attribute is observable to a
		// surviving insertAttributes on its (live) owner. Element and
		// PI names feed no lookup in applyOne.
		t := pr.Target.Type
		return t == dom.ElementNode || t == dom.ProcessingInstructionNode
	case InsertInto, InsertIntoFirst, InsertIntoLast:
		if pr.Target.Type != dom.ElementNode {
			return false
		}
		for _, c := range pr.Content {
			if c == nil || c.Type == dom.DocumentNode {
				return false
			}
		}
		return true
	case InsertAttributes:
		if pr.Target.Type != dom.ElementNode {
			return false
		}
		for _, c := range pr.Content {
			if c == nil || c.Type != dom.AttributeNode {
				return false
			}
		}
		return true
	}
	return false
}

// isKiller reports whether pr detaches an attached subtree.
func isKiller(pr Primitive) bool {
	return (pr.Kind == Delete || pr.Kind == ReplaceNode) && pr.Target.Parent() != nil
}

// dropDead returns the primitives that survive dead-update elimination
// (prims itself when none die) and how many were dropped. The gated
// rule runs only when eliminate is set.
func dropDead(prims []Primitive, eliminate bool) ([]Primitive, int) {
	drop := make([]bool, len(prims))
	eliminated := 0

	replaced := map[*dom.Node]bool{}
	for _, pr := range prims {
		if pr.Kind == ReplaceNode {
			replaced[pr.Target] = true
		}
	}
	deleted := map[*dom.Node]bool{}
	for i, pr := range prims {
		if pr.Kind != Delete {
			continue
		}
		if replaced[pr.Target] || deleted[pr.Target] {
			drop[i] = true
			eliminated++
			continue
		}
		deleted[pr.Target] = true
	}

	if eliminate && !contentAliased(prims) {
		eliminated += eliminateGated(prims, drop)
	}
	if eliminated == 0 {
		return prims, 0
	}
	survivors := make([]Primitive, 0, len(prims)-eliminated)
	for i, pr := range prims {
		if !drop[i] {
			survivors = append(survivors, pr)
		}
	}
	return survivors, eliminated
}

// contentAliased is the content-aliasing guard: the region argument
// assumes content nodes are fresh detached copies (the runtime's
// evalContentNodes guarantees it). A hand-built list may attach a tree
// that other primitives target, or re-insert an attached node; either
// switches the gated rule off.
func contentAliased(prims []Primitive) bool {
	targetRoots := map[*dom.Node]bool{}
	for _, pr := range prims {
		targetRoots[pr.Target.Root()] = true
	}
	for _, pr := range prims {
		for _, c := range pr.Content {
			if c.Parent() != nil || targetRoots[c] {
				return true
			}
		}
	}
	return false
}

// eliminateGated marks the primitives the gated rule kills, tree by
// tree, and returns how many it marked.
func eliminateGated(prims []Primitive, drop []bool) int {
	trees := map[*dom.Node][]int{}
	for i, pr := range prims {
		if !drop[i] {
			r := pr.Target.Root()
			trees[r] = append(trees[r], i)
		}
	}
	n := 0
	for root, idxs := range trees {
		n += eliminateInTree(root, prims, idxs, drop)
	}
	return n
}

// eliminateInTree applies the gated rule to the surviving primitives
// idxs of one tree. A tree without a killer is skipped before any span
// lookup; it eliminates nothing either when no index is available or
// a region has no span.
func eliminateInTree(root *dom.Node, prims []Primitive, idxs []int, drop []bool) int {
	var killerIdxs []int
	for _, i := range idxs {
		if isKiller(prims[i]) {
			killerIdxs = append(killerIdxs, i)
		}
	}
	if len(killerIdxs) == 0 || len(idxs) < 2 {
		return 0
	}
	d := index.Fresh(root)
	if d == nil && len(idxs) >= minIndexPrims {
		d = index.For(root)
	}
	if d == nil {
		return 0
	}
	type region struct {
		i        int
		pre, end uint64
	}
	spans := make([]region, 0, len(idxs))
	for _, i := range idxs {
		pre, end, ok := d.Span(regionNode(prims[i]))
		if !ok {
			return 0
		}
		spans = append(spans, region{i: i, pre: pre, end: end})
	}

	// The killer itself survives by construction: its region is the
	// target's parent, strictly above the detached span.
	//
	// A killer span may only eliminate when every primitive regioned
	// inside it is infallible (eliminable). Dropping an infallible
	// primitive from a span that also holds a fallible one could
	// remove the very mutation that made the fallible survivor fail (a
	// replaceValue detaching the reference node of a later
	// replaceNode), turning a failing apply into a succeeding one. Such
	// spans are tainted and eliminate nothing.
	type killSpan struct {
		pre, end uint64
		tainted  bool
	}
	var killers []killSpan
	for _, i := range killerIdxs {
		if pre, end, ok := d.Span(prims[i].Target); ok {
			killers = append(killers, killSpan{pre: pre, end: end})
		}
	}
	for ki := range killers {
		for _, rs := range spans {
			if killers[ki].pre <= rs.pre && rs.pre <= killers[ki].end && !eliminable(prims[rs.i]) {
				killers[ki].tainted = true
				break
			}
		}
	}
	n := 0
	for _, rs := range spans {
		if !eliminable(prims[rs.i]) {
			continue
		}
		for _, k := range killers {
			if !k.tainted && k.pre <= rs.pre && rs.pre <= k.end {
				drop[rs.i] = true
				n++
				break
			}
		}
	}
	return n
}
