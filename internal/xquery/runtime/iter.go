package runtime

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
)

// This file is the lazy half of the evaluator: EvalIter produces a
// pull-based xdm.Iter for an expression, so consumers that only need a
// prefix of the result — fn:exists, positional predicates, quantifiers,
// general comparisons — stop pulling as soon as the answer is decided.
// Eval remains the materializing entry point; expressions with no
// streaming benefit fall back to a deferred Eval. Setting
// Context.NoStream forces the deferred-Eval fallback everywhere, which
// is the eager baseline the benchmarks compare against.

// fnSpace is the XPath functions namespace; the parser resolves
// unprefixed function names to it unless the prolog overrides the
// default function namespace.
const fnSpace = "http://www.w3.org/2005/xpath-functions"

// EvalIter evaluates an expression lazily. Errors are deferred to the
// first Next call, so building an iterator never fails. The result is
// wrapped in an ordered marker when it is statically known to be a
// document-ordered, duplicate-free node stream.
func (ctx *Context) EvalIter(e ast.Expr) xdm.Iter {
	it, ord := ctx.evalIter(e)
	if ctx.Profiler != nil {
		it = countItems(ctx.Profiler, exprKind(e), it)
	}
	if ord {
		return orderedIter{it}
	}
	return it
}

func (ctx *Context) evalIter(e ast.Expr) (xdm.Iter, bool) {
	if ctx.NoStream {
		return ctx.lazyEval(e), false
	}
	switch x := e.(type) {
	case ast.StringLit:
		return xdm.SingletonIter(xdm.String(x.Val)), false
	case ast.IntLit:
		return xdm.SingletonIter(xdm.Integer(x.Val)), false
	case ast.DoubleLit:
		return xdm.SingletonIter(xdm.Double(x.Val)), false
	case ast.VarRef:
		if b := ctx.env.lookup(x.Name); b != nil {
			return xdm.FromSlice(b.Val), false
		}
		return xdm.ErrIter(fmt.Errorf("xquery: undefined variable $%s", x.Name)), false
	case ast.ContextItem:
		if ctx.Item == nil {
			return xdm.ErrIter(fmt.Errorf("xquery: context item is undefined")), false
		}
		return xdm.SingletonIter(ctx.Item), false
	case ast.SeqExpr:
		return ctx.seqIter(x), false
	case ast.Ordered:
		return ctx.evalIter(x.X)
	case ast.Hoisted:
		if ctx.hoist != nil {
			return ctx.lazyEval(e), false // through the entry's memo
		}
		return ctx.evalIter(x.X)
	case ast.If:
		return deferredIter(func() (xdm.Iter, error) {
			c, err := ctx.evalEBV(x.Cond)
			if err != nil {
				return nil, err
			}
			if c {
				return ctx.EvalIter(x.Then), nil
			}
			return ctx.EvalIter(x.Else), nil
		}), false
	case ast.Range:
		return ctx.rangeIter(x), false
	case ast.Path:
		return ctx.pathIter(x)
	case ast.FuncCall:
		f := ctx.Prog.Reg.Lookup(x.Name, len(x.Args))
		if f == nil || f.Stream == nil {
			return ctx.lazyEval(e), false
		}
		return deferredIter(func() (xdm.Iter, error) {
			iters := make([]xdm.Iter, len(x.Args))
			for i, a := range x.Args {
				iters[i] = ctx.EvalIter(a)
			}
			return f.Stream(ctx, iters)
		}), false
	default:
		return ctx.lazyEval(e), false
	}
}

// lazyEval defers a materializing Eval to the first pull.
func (ctx *Context) lazyEval(e ast.Expr) xdm.Iter {
	return deferredIter(func() (xdm.Iter, error) {
		s, err := ctx.Eval(e)
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(s), nil
	})
}

// deferredIter opens the underlying iterator on the first pull. An open
// error is sticky: every subsequent pull reports it again.
func deferredIter(open func() (xdm.Iter, error)) xdm.Iter {
	var it xdm.Iter
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		if it == nil {
			i, err := open()
			if err != nil {
				it = xdm.ErrIter(err)
				return nil, false, err
			}
			it = i
		}
		return it.Next()
	})
}

// orderedIter marks a stream as document-ordered, duplicate-free nodes.
// The path machinery streams a filter step's predicates only over
// ordered primaries (anything else is sorted eagerly first).
type orderedIter struct{ xdm.Iter }

func isOrdered(it xdm.Iter) bool { _, ok := it.(orderedIter); return ok }

// countItems feeds per-kind items-pulled counts to the profiler, which
// is how a profile proves early exit (items ≪ count × sequence size).
func countItems(p *Profiler, kind string, it xdm.Iter) xdm.Iter {
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		item, ok, err := it.Next()
		if ok {
			p.recordItems(kind, 1)
		}
		return item, ok, err
	})
}

func (ctx *Context) seqIter(x ast.SeqExpr) xdm.Iter {
	var cur xdm.Iter
	i := 0
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		for {
			if cur == nil {
				if i >= len(x.Items) {
					return nil, false, nil
				}
				cur = ctx.EvalIter(x.Items[i])
				i++
			}
			item, ok, err := cur.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return item, true, nil
			}
			cur = nil
		}
	})
}

// rangeIter yields a range one integer at a time: (1 to 1000000)[2]
// allocates nothing beyond the two pulled items. The size cap matches
// the eager evalRange so behaviour is mode-independent.
func (ctx *Context) rangeIter(x ast.Range) xdm.Iter {
	var v, hi int64
	opened, done := false, false
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		if done {
			return nil, false, nil
		}
		if !opened {
			opened = true
			l, err := ctx.evalAtomizedOne(x.L)
			if err != nil {
				done = true
				return nil, false, err
			}
			r, err := ctx.evalAtomizedOne(x.R)
			if err != nil {
				done = true
				return nil, false, err
			}
			if l == nil || r == nil {
				done = true
				return nil, false, nil
			}
			li, err := xdm.Cast(l, xdm.TInteger)
			if err != nil {
				done = true
				return nil, false, fmt.Errorf("xquery: range start: %w", err)
			}
			ri, err := xdm.Cast(r, xdm.TInteger)
			if err != nil {
				done = true
				return nil, false, fmt.Errorf("xquery: range end: %w", err)
			}
			v, hi = int64(li.(xdm.Integer)), int64(ri.(xdm.Integer))
			if v <= hi && hi-v >= 10_000_000 {
				done = true
				return nil, false, fmt.Errorf("xquery: range %d to %d is too large", v, hi)
			}
		}
		if v > hi {
			done = true
			return nil, false, nil
		}
		if err := ctx.Budget.Step(); err != nil {
			done = true
			return nil, false, err
		}
		item := xdm.Integer(v)
		v++
		return item, true, nil
	})
}

// --- streaming paths ---------------------------------------------------------

// pathIter evaluates a path lazily. Steps stream as long as two
// invariants can be maintained without a sort: the focus stream is in
// document order without duplicates ("ordered"), and — where the axis
// needs it — no focus node is an ancestor of another ("disjoint"):
//
//   - self and attribute steps preserve order from any ordered input;
//   - child, descendant and descendant-or-self preserve order only from
//     disjoint input (overlapping subtrees would interleave);
//   - child and attribute outputs are disjoint again; descendant
//     outputs are ordered but overlapping.
//
// The first step that cannot stream becomes a barrier: everything
// before it is materialized and the remaining steps run through the
// eager per-step machinery (evalStep + finishStep), which sorts and
// deduplicates. Correctness therefore never depends on streamability.
//
// The second return value reports whether the result is statically
// known to be an ordered node stream.
func (ctx *Context) pathIter(p ast.Path) (xdm.Iter, bool) {
	steps := plan.RewriteDescendantSteps(p.Steps)
	var cur xdm.Iter
	ord, disjoint := true, true
	start := 0
	if p.Absolute {
		n, ok := xdm.IsNode(ctx.Item)
		if !ok {
			return xdm.ErrIter(fmt.Errorf("xquery: absolute path requires a node context item")), false
		}
		cur = xdm.SingletonIter(xdm.NewNode(n.Root()))
		if len(steps) == 0 {
			return cur, true
		}
	} else {
		if len(steps) == 0 {
			return xdm.ErrIter(fmt.Errorf("xquery: empty path")), false
		}
		if first := steps[0]; first.Primary != nil {
			last := len(steps) == 1
			cur, ord = ctx.filterStepIter(first, last)
			disjoint = false
			start = 1
		} else {
			if ctx.Item == nil {
				return xdm.ErrIter(fmt.Errorf("xquery: context item is undefined in a path step")), false
			}
			cur = xdm.SingletonIter(ctx.Item)
		}
	}
	for si := start; si < len(steps); si++ {
		step := steps[si]
		if step.Primary != nil || !ord || !axisStreamable(step.Axis, disjoint) {
			// Barrier: materialize the focus so far, then run the rest
			// of the path eagerly (sorted and deduplicated per step).
			rest := steps[si:]
			prev := cur
			lastIsAxis := steps[len(steps)-1].Primary == nil
			return deferredIter(func() (xdm.Iter, error) {
				in, err := xdm.Materialize(prev)
				if err != nil {
					return nil, err
				}
				out, err := ctx.continueSteps(in, rest)
				if err != nil {
					return nil, err
				}
				return xdm.FromSlice(out), nil
			}), lastIsAxis
		}
		cur = &stepStream{ctx: ctx, step: step, input: cur}
		ord, disjoint = true, axisOutDisjoint(step.Axis, disjoint)
	}
	return cur, ord
}

// axisStreamable reports whether an axis step preserves document order
// over an ordered input stream with the given disjointness.
func axisStreamable(a ast.Axis, disjoint bool) bool {
	switch a {
	case ast.AxisSelf, ast.AxisAttribute:
		return true
	case ast.AxisChild, ast.AxisDescendant, ast.AxisDescendantOrSelf:
		return disjoint
	default:
		return false
	}
}

// axisOutDisjoint reports whether the output of a streamed axis step is
// disjoint (no node an ancestor of another).
func axisOutDisjoint(a ast.Axis, inDisjoint bool) bool {
	switch a {
	case ast.AxisChild, ast.AxisAttribute:
		return true
	case ast.AxisSelf:
		return inDisjoint
	default: // descendant, descendant-or-self: subtrees overlap
		return false
	}
}

// filterStepIter evaluates a path-initial filter step (a primary
// expression plus predicates). Filter-step predicates apply in the
// primary's own order — the document-order sort happens after — so the
// predicate stages always stream over the primary: (1, err())[1] and
// (//div)[1] both pull exactly one item. An ordered primary needs no
// sort at all; anything else materializes only the (post-predicate)
// survivors for finishStep's sort/dedup/mixing rules. Predicates that
// mention last() need the primary's size and take the eager route.
func (ctx *Context) filterStepIter(step ast.Step, last bool) (xdm.Iter, bool) {
	prim := ctx.EvalIter(step.Primary)
	if !plan.AnyExprMentions(step.Preds, "last") {
		cur := xdm.Iter(prim)
		for _, pred := range step.Preds {
			cur = ctx.predStage(cur, pred)
		}
		if isOrdered(prim) {
			return cur, true
		}
		return deferredIter(func() (xdm.Iter, error) {
			res, err := xdm.Materialize(cur)
			if err != nil {
				return nil, err
			}
			out, err := ctx.finishStep(res, last)
			if err != nil {
				return nil, err
			}
			return xdm.FromSlice(out), nil
		}), false
	}
	return deferredIter(func() (xdm.Iter, error) {
		res, err := ctx.evalStep(step, ctx.Item, ctx.Pos, ctx.Size)
		if err != nil {
			return nil, err
		}
		out, err := ctx.finishStep(res, last)
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(out), nil
	}), false
}

// stepStream maps an ordered focus stream through one axis step,
// yielding each focus node's candidates lazily.
type stepStream struct {
	ctx   *Context
	step  ast.Step
	input xdm.Iter
	cur   xdm.Iter
}

func (s *stepStream) Next() (xdm.Item, bool, error) {
	for {
		if s.cur != nil {
			item, ok, err := s.cur.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return item, true, nil
			}
			s.cur = nil
		}
		focus, ok, err := s.input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		n, isNode := xdm.IsNode(focus)
		if !isNode {
			return nil, false, fmt.Errorf("xquery: axis step applied to an atomic value")
		}
		s.cur = s.ctx.stepCandidates(n, s.step)
	}
}

// stepCandidates returns one focus node's lazily filtered candidates:
// axis walk → node test → predicate stages. Every candidate pulled
// consumes one budget step, which is what bounds pure tree walks that
// never re-enter Eval. Both evaluators route every axis step through
// here, which makes it the single place the planner's access-method
// annotation is consulted: an indexed step replaces the axis walk with
// the (much smaller) probed candidate list, and the node test plus all
// predicates still re-apply, so a probe can never change a result —
// only skip the nodes a scan would have visited and rejected.
func (ctx *Context) stepCandidates(n *dom.Node, step ast.Step) xdm.Iter {
	var it xdm.Iter
	if cand, ok := ctx.probeIndex(n, &step); ok {
		i := 0
		it = xdm.IterFunc(func() (xdm.Item, bool, error) {
			for i < len(cand) {
				c := cand[i]
				i++
				if err := ctx.Budget.Step(); err != nil {
					return nil, false, err
				}
				if matchNodeTest(c, step.Test, step.Axis) {
					return xdm.NewNode(c), true, nil
				}
			}
			return nil, false, nil
		})
	} else {
		walk := newAxisWalker(n, step.Axis)
		it = xdm.IterFunc(func() (xdm.Item, bool, error) {
			for {
				c, ok := walk.next()
				if !ok {
					return nil, false, nil
				}
				if err := ctx.Budget.Step(); err != nil {
					return nil, false, err
				}
				if matchNodeTest(c, step.Test, step.Axis) {
					return xdm.NewNode(c), true, nil
				}
			}
		})
	}
	for _, pred := range step.Preds {
		it = ctx.predStage(it, pred)
	}
	return it
}

// predStage filters a stream through one predicate. Predicates that
// mention last() need the input size, so that stage materializes its
// input; everything else streams, and statically bounded positional
// predicates ([1], [position() le 3]) stop pulling input at the bound.
func (ctx *Context) predStage(in xdm.Iter, pred ast.Expr) xdm.Iter {
	if plan.ExprMentions(pred, "last") {
		return deferredIter(func() (xdm.Iter, error) {
			items, err := xdm.Materialize(in)
			if err != nil {
				return nil, err
			}
			kept, err := ctx.applyPredicates(items, []ast.Expr{pred}, false)
			if err != nil {
				return nil, err
			}
			return xdm.FromSlice(kept), nil
		})
	}
	bound, bounded := positionalBound(pred)
	return &predIter{ctx: ctx, in: in, pred: pred, bound: bound, bounded: bounded}
}

type predIter struct {
	ctx     *Context
	in      xdm.Iter
	pred    ast.Expr
	pos     int
	bound   int64
	bounded bool
	done    bool
}

func (p *predIter) Next() (xdm.Item, bool, error) {
	if p.done {
		return nil, false, nil
	}
	for {
		if p.bounded && int64(p.pos) >= p.bound {
			p.done = true
			return nil, false, nil
		}
		item, ok, err := p.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			p.done = true
			return nil, false, nil
		}
		p.pos++
		// Size 0: predicates that mention last() never reach this stage.
		c := p.ctx.withFocus(item, p.pos, 0)
		res, err := c.Eval(p.pred)
		if err != nil {
			return nil, false, err
		}
		keep, err := predicateTruth(res, p.pos)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return item, true, nil
		}
	}
}

// --- lazy axis walkers -------------------------------------------------------

type axisWalker interface{ next() (*dom.Node, bool) }

// newAxisWalker walks an axis lazily where the axis allows it (child,
// attribute, self, descendant, descendant-or-self, following) and
// falls back to the materialized axisNodes list — which is still in
// axis order — everywhere else.
func newAxisWalker(n *dom.Node, axis ast.Axis) axisWalker {
	switch axis {
	case ast.AxisChild:
		return &sliceWalker{nodes: n.Children()}
	case ast.AxisAttribute:
		return &sliceWalker{nodes: n.Attrs()}
	case ast.AxisSelf:
		return &sliceWalker{nodes: []*dom.Node{n}}
	case ast.AxisDescendant:
		w := &treeWalker{}
		w.pushChildren(n)
		return w
	case ast.AxisDescendantOrSelf:
		return &treeWalker{stack: []*dom.Node{n}}
	case ast.AxisFollowing:
		return newFollowingWalker(n)
	default:
		return &sliceWalker{nodes: axisNodes(n, axis)}
	}
}

type sliceWalker struct {
	nodes []*dom.Node
	i     int
}

func (w *sliceWalker) next() (*dom.Node, bool) {
	if w.i >= len(w.nodes) {
		return nil, false
	}
	n := w.nodes[w.i]
	w.i++
	return n, true
}

// treeWalker streams a subtree in document order with an explicit
// stack, visiting each node exactly once without materializing the
// descendant list.
type treeWalker struct {
	stack []*dom.Node
}

func (w *treeWalker) pushChildren(n *dom.Node) {
	ch := n.Children()
	for i := len(ch) - 1; i >= 0; i-- {
		w.stack = append(w.stack, ch[i])
	}
}

func (w *treeWalker) next() (*dom.Node, bool) {
	if len(w.stack) == 0 {
		return nil, false
	}
	n := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	w.pushChildren(n)
	return n, true
}

// followingWalker streams the following axis lazily: for every
// ancestor-or-self of the origin (inner to outer), the subtrees of its
// following siblings, left to right — which is exactly document order
// past the origin's subtree. Emitting through the walker replaced the
// old collectDescendants materialization, which allocated the full
// descendant list per sibling even when the step's node test was about
// to reject almost all of it.
type followingWalker struct {
	anc *dom.Node // ancestor-or-self chain cursor
	sib *dom.Node // next following sibling of anc to expand
	tw  treeWalker
}

func newFollowingWalker(n *dom.Node) *followingWalker {
	return &followingWalker{anc: n, sib: n.NextSibling()}
}

func (w *followingWalker) next() (*dom.Node, bool) {
	for {
		if x, ok := w.tw.next(); ok {
			return x, true
		}
		if w.sib == nil {
			if w.anc == nil {
				return nil, false
			}
			w.anc = w.anc.Parent()
			if w.anc == nil {
				return nil, false
			}
			w.sib = w.anc.NextSibling()
			continue
		}
		w.tw.stack = append(w.tw.stack, w.sib)
		w.sib = w.sib.NextSibling()
	}
}

// --- static analysis ---------------------------------------------------------
//
// The //-rewrite and the conservative expression predicates
// (ExprMentions, BooleanValuedPred) moved to internal/xquery/plan,
// where the path planner and the analyzer's cost model share them.
// What remains here is streaming-specific: the positional-bound
// detection that lets predicate stages stop pulling input.

// positionalBound statically bounds the input positions a predicate can
// accept: [N] and [position() < N] shapes never accept an item past the
// bound, letting predicate stages stop pulling. ok=false is unbounded.
func positionalBound(pred ast.Expr) (int64, bool) {
	switch x := pred.(type) {
	case ast.IntLit:
		if x.Val < 1 {
			return 0, true // [0]: no position matches
		}
		return x.Val, true
	case ast.Compare:
		if n, ok := intLitVal(x.R); ok && isPositionCall(x.L) {
			switch x.Op {
			case "<", "lt":
				return clampBound(n - 1), true
			case "<=", "le", "=", "eq":
				return clampBound(n), true
			}
		}
		if n, ok := intLitVal(x.L); ok && isPositionCall(x.R) {
			switch x.Op {
			case ">", "gt":
				return clampBound(n - 1), true
			case ">=", "ge", "=", "eq":
				return clampBound(n), true
			}
		}
	}
	return 0, false
}

func clampBound(n int64) int64 {
	if n < 0 {
		return 0
	}
	return n
}

func isPositionCall(e ast.Expr) bool {
	f, ok := e.(ast.FuncCall)
	return ok && len(f.Args) == 0 && f.Name.Local == "position" &&
		(f.Name.Space == fnSpace || f.Name.Space == "")
}

func intLitVal(e ast.Expr) (int64, bool) {
	l, ok := e.(ast.IntLit)
	return l.Val, ok
}
