package plan

import (
	"repro/internal/dom"
	"repro/internal/xquery/ast"
)

// Optimize is the algebraic rewrite stage between path planning and
// evaluation: it rebuilds an expression tree with
//
//   - constant subtrees folded to literals (sharing plan.Fold with the
//     static analyzer, so the two passes agree on what is constant);
//   - nested FLWORs flattened into one clause list, which is what
//     exposes joins written as `for ... return for ...`;
//   - leading where conjuncts pushed down into the last for clause's
//     path as ordinary predicates — the shape the path planner then
//     turns into index probes;
//   - loop-invariant let bindings and where conjuncts wrapped in
//     ast.Hoisted, which the walker memoises per FLWOR entry;
//   - equality predicates between the last for clause and an earlier
//     one annotated as ast.JoinPlan for hash-join execution.
//
// Every rewrite copies: Optimize never mutates its input, because the
// input is the shared, cache-resident parsed module (the `planpure`
// vet pass in tools/analyzers enforces the discipline syntactically).
// Rewrites are conservative about effects, per FLUX: a subexpression
// is only moved or memoised when pureExpr proves it free of updates,
// scripting state, browser effects and node construction, so no
// rewrite reorders across an updating expression and PUL snapshot
// semantics survive unchanged.
type Stats struct {
	Folds     int // subtrees replaced by literals
	Pushdowns int // where conjuncts moved into path predicates
	Hoists    int // loop-invariant lets/conjuncts marked Hoisted
	Joins     int // FLWORs annotated with a JoinPlan
}

// Optimize rewrites e bottom-up, accumulating rewrite counts into st
// (which may be nil).
func Optimize(e ast.Expr, st *Stats) ast.Expr {
	if st == nil {
		st = &Stats{}
	}
	o := &optimizer{st: st}
	return o.expr(e)
}

type optimizer struct {
	st *Stats
}

// expr rewrites children first, then tries node-local rewrites. A
// FLWOR is flattened before its children are: the FLWOR rewrites of an
// inner level (hoisting in particular) are only valid relative to that
// level's own clauses, so they must run on the merged clause list, not
// be carried into it.
func (o *optimizer) expr(e ast.Expr) ast.Expr {
	if f, ok := e.(ast.FLWOR); ok {
		e = flatten(f)
	}
	e = o.children(e)
	if lit, ok := o.foldToLiteral(e); ok {
		o.st.Folds++
		return lit
	}
	switch x := e.(type) {
	case ast.If:
		// Dead-branch elimination: a constant condition selects one
		// branch at compile time. FoldBool never succeeds on an
		// expression whose evaluation could error, so the eliminated
		// EBV computation was observationally pure.
		if b, ok := FoldBool(x.Cond); ok {
			o.st.Folds++
			if b {
				return x.Then
			}
			return x.Else
		}
		return x
	case ast.FLWOR:
		return o.flwor(x)
	}
	return e
}

// foldToLiteral replaces a foldable subtree with its literal form. It
// refuses trees that are already literal-shaped (nothing to gain) and
// and/or operators with only one foldable side (the walker would still
// evaluate the other side's EBV, which can error — folding it away
// would change error behaviour).
func (o *optimizer) foldToLiteral(e ast.Expr) (ast.Expr, bool) {
	switch x := e.(type) {
	case ast.IntLit, ast.DoubleLit, ast.StringLit, ast.DecimalLit,
		ast.VarRef, ast.ContextItem:
		return nil, false
	case ast.SeqExpr:
		if len(x.Items) == 0 {
			return nil, false
		}
	case ast.FuncCall:
		if x.Name.Space == fnSpace && len(x.Args) == 0 &&
			(x.Name.Local == "true" || x.Name.Local == "false") {
			return nil, false
		}
	case ast.Binary:
		if x.Op == "and" || x.Op == "or" {
			if _, lok := FoldBool(x.L); !lok {
				return nil, false
			}
			if _, rok := FoldBool(x.R); !rok {
				return nil, false
			}
		}
	}
	v, ok := Fold(e)
	if !ok {
		return nil, false
	}
	switch v.Kind {
	case ConstInt:
		return ast.IntLit{Val: v.I}, true
	case ConstFloat:
		return ast.DoubleLit{Val: v.F}, true
	case ConstString:
		return ast.StringLit{Val: v.S}, true
	case ConstBool:
		name := "false"
		if v.B {
			name = "true"
		}
		return ast.FuncCall{Name: dom.QName{Space: fnSpace, Local: name}}, true
	case ConstEmpty:
		return ast.SeqExpr{}, true
	}
	return nil, false
}

// --- FLWOR rewrites ----------------------------------------------------------

func (o *optimizer) flwor(f ast.FLWOR) ast.FLWOR {
	conj := andConjuncts(f.Where)
	conj, f.Join = o.detectJoin(f, conj)
	if f.Join != nil {
		o.st.Joins++
	} else {
		conj, f.Clauses = o.pushdown(f.Clauses, conj)
	}
	f.Clauses = o.hoistLets(f.Clauses, &f.Hoists)
	conj = o.hoistConjuncts(f.Clauses, conj, &f.Hoists)
	f.Where = andChain(conj)
	return f
}

// flatten merges `for $a in E return for $b in F return R` into one
// clause list. Binding order, evaluation order and shadowing are
// identical between the nested and the flat form, so the rewrite is
// unconditional as long as neither level sorts (order by changes when
// tuples are collected) and the outer level has no filter of its own.
// It runs on parsed levels only, before any other FLWOR rewrite.
func flatten(f ast.FLWOR) ast.FLWOR {
	for f.Where == nil && len(f.OrderBy) == 0 {
		inner, ok := f.Return.(ast.FLWOR)
		if !ok || len(inner.OrderBy) != 0 {
			break
		}
		clauses := make([]ast.Clause, 0, len(f.Clauses)+len(inner.Clauses))
		clauses = append(clauses, f.Clauses...)
		clauses = append(clauses, inner.Clauses...)
		f = ast.FLWOR{Clauses: clauses, Where: inner.Where, Return: inner.Return}
	}
	return f
}

// andConjuncts splits a where expression on top-level `and` into its
// conjuncts, in evaluation order.
func andConjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(ast.Binary); ok && b.Op == "and" {
		return append(andConjuncts(b.L), andConjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// andChain rebuilds a left-associated and-chain (the evaluation order
// of the conjunct list).
func andChain(conj []ast.Expr) ast.Expr {
	if len(conj) == 0 {
		return nil
	}
	e := conj[0]
	for _, c := range conj[1:] {
		e = ast.Binary{Op: "and", L: e, R: c}
	}
	return e
}

// detectJoin looks for a hash-joinable leading conjunct: the last
// clause is a plain for (no position variable, no type), its binding
// sequence is pure and independent of every earlier clause, and the
// first where conjunct equates a key over that clause's variable with
// a key over earlier scope only. Restricting to the leading conjunct
// and the last clause keeps evaluation order — and therefore error
// and effect order — identical to the nested loop it replaces.
func (o *optimizer) detectJoin(f ast.FLWOR, conj []ast.Expr) ([]ast.Expr, *ast.JoinPlan) {
	j := len(f.Clauses) - 1
	if len(conj) == 0 || j < 1 {
		return conj, nil
	}
	cl := f.Clauses[j]
	if !cl.For || !cl.PosVar.IsZero() || cl.Type != nil {
		return conj, nil
	}
	hasForBefore := false
	for _, pc := range f.Clauses[:j] {
		if pc.For {
			hasForBefore = true
			break
		}
	}
	if !hasForBefore {
		return conj, nil
	}
	earlier := boundVarSet(f.Clauses[:j])
	if !pureExpr(cl.In) || mentionsVars(cl.In, earlier) {
		return conj, nil
	}
	cmp, ok := conj[0].(ast.Compare)
	if !ok {
		return conj, nil
	}
	inner := map[string]bool{vkey(cl.Var): true}
	var plan *ast.JoinPlan
	switch {
	case cmp.Kind == ast.ValueComp && cmp.Op == "eq":
		// eq: the inner side must be a bare key path over the clause
		// variable; the outer side may be any pure expression over
		// earlier scope.
		outerOK := func(e ast.Expr) bool { return pureExpr(e) && !mentionsVars(e, inner) }
		if isVarKey(cmp.L, cl.Var) && outerOK(cmp.R) {
			plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.R, InnerKey: cmp.L, ValueEq: true, Pred: cmp}
		} else if isVarKey(cmp.R, cl.Var) && outerOK(cmp.L) {
			plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.L, InnerKey: cmp.R, ValueEq: true, OuterLeft: true, Pred: cmp}
		}
	case cmp.Kind == ast.GeneralComp && cmp.Op == "=":
		// =: existential; both sides must be bare key paths so the
		// key atoms are nodes' untyped values (string-comparable).
		lroot, lok := varKeyRoot(cmp.L)
		rroot, rok := varKeyRoot(cmp.R)
		if lok && rok {
			if lroot.Matches(cl.Var) && !rroot.Matches(cl.Var) {
				plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.R, InnerKey: cmp.L, Pred: cmp}
			} else if rroot.Matches(cl.Var) && !lroot.Matches(cl.Var) {
				plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.L, InnerKey: cmp.R, OuterLeft: true, Pred: cmp}
			}
		}
	}
	if plan == nil {
		return conj, nil
	}
	return conj[1:], plan
}

// isVarKey reports whether e is $v or a predicate-free axis path
// rooted at $v — the shapes whose evaluation depends on nothing but
// the one variable.
func isVarKey(e ast.Expr, v dom.QName) bool {
	root, ok := varKeyRoot(e)
	return ok && root.Matches(v)
}

// varKeyRoot matches $x or $x/axis-step/... (predicate-free, no mid-
// path primaries) and returns the root variable.
func varKeyRoot(e ast.Expr) (dom.QName, bool) {
	if vr, ok := e.(ast.VarRef); ok {
		return vr.Name, true
	}
	p, ok := e.(ast.Path)
	if !ok || p.Absolute || len(p.Steps) == 0 {
		return dom.QName{}, false
	}
	vr, ok := p.Steps[0].Primary.(ast.VarRef)
	if !ok || len(p.Steps[0].Preds) != 0 {
		return dom.QName{}, false
	}
	for _, s := range p.Steps[1:] {
		if s.Primary != nil || len(s.Preds) != 0 {
			return dom.QName{}, false
		}
	}
	return vr.Name, true
}

// pushdown moves leading where conjuncts into the last clause's path
// as trailing predicates, repeating while the new leading conjunct
// qualifies. Only the leading conjunct may move: where conjuncts
// short-circuit left to right, so a later conjunct must not run (or
// error) for a tuple an earlier one rejected. The last clause must be
// a plain for over an axis-ended path, and the rewritten conjunct must
// stay boolean-valued (a numeric predicate would turn positional).
func (o *optimizer) pushdown(clauses []ast.Clause, conj []ast.Expr) ([]ast.Expr, []ast.Clause) {
	if len(clauses) == 0 {
		return conj, clauses
	}
	last := len(clauses) - 1
	cl := clauses[last]
	if !cl.For || !cl.PosVar.IsZero() || cl.Type != nil {
		return conj, clauses
	}
	p, ok := cl.In.(ast.Path)
	if !ok || len(p.Steps) == 0 || p.Steps[len(p.Steps)-1].Primary != nil {
		return conj, clauses
	}
	var pushed []ast.Expr
	for len(conj) > 0 {
		pred, ok := rewriteForPushdown(conj[0], cl.Var)
		if !ok || !BooleanValuedPred(pred) {
			break
		}
		pushed = append(pushed, pred)
		conj = conj[1:]
		o.st.Pushdowns++
	}
	if len(pushed) == 0 {
		return conj, clauses
	}
	// Copy the spine: fresh steps slice, fresh last step with the new
	// predicates appended, re-planned (an [@id = ...] predicate can
	// upgrade the step to an id probe).
	steps := make([]ast.Step, len(p.Steps))
	copy(steps, p.Steps)
	lastStep := steps[len(steps)-1]
	preds := make([]ast.Expr, 0, len(lastStep.Preds)+len(pushed))
	preds = append(preds, lastStep.Preds...)
	preds = append(preds, pushed...)
	lastStep.Preds = preds
	PlanStep(&lastStep)
	steps[len(steps)-1] = lastStep
	out := make([]ast.Clause, len(clauses))
	copy(out, clauses)
	out[last].In = ast.Path{Absolute: p.Absolute, Steps: steps}
	return conj, out
}

// rewriteForPushdown rewrites a where conjunct over $v into a path
// predicate over the candidate node: $v becomes `.` (a context-item
// path root). ok is false when the conjunct cannot move — it mentions
// the surrounding focus (., position(), last(), or a builtin call that
// defaults an omitted argument to the context item), contains a
// relative or absolute path not rooted at a variable, binds variables
// of its own, or has a shape the rewriter does not understand.
func rewriteForPushdown(e ast.Expr, v dom.QName) (ast.Expr, bool) {
	switch x := e.(type) {
	case nil:
		return nil, true
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit:
		return e, true
	case ast.VarRef:
		if x.Name.Matches(v) {
			return ast.ContextItem{}, true
		}
		return e, true
	case ast.ContextItem:
		return nil, false // outer-focus reference: cannot move
	case ast.SeqExpr:
		items := make([]ast.Expr, len(x.Items))
		for i, it := range x.Items {
			r, ok := rewriteForPushdown(it, v)
			if !ok {
				return nil, false
			}
			items[i] = r
		}
		return ast.SeqExpr{Items: items}, true
	case ast.FuncCall:
		if x.Name.Local == "position" || x.Name.Local == "last" {
			return nil, false
		}
		if n, defaults := contextFnMinArgs[x.Name.Local]; defaults && len(x.Args) < n {
			return nil, false // implicit context item: outer-focus reference
		}
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			r, ok := rewriteForPushdown(a, v)
			if !ok {
				return nil, false
			}
			args[i] = r
		}
		return ast.FuncCall{Name: x.Name, Args: args, At: x.At}, true
	case ast.If:
		c, ok1 := rewriteForPushdown(x.Cond, v)
		t, ok2 := rewriteForPushdown(x.Then, v)
		el, ok3 := rewriteForPushdown(x.Else, v)
		if !ok1 || !ok2 || !ok3 {
			return nil, false
		}
		return ast.If{Cond: c, Then: t, Else: el, At: x.At}, true
	case ast.Binary:
		l, ok1 := rewriteForPushdown(x.L, v)
		r, ok2 := rewriteForPushdown(x.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.Binary{Op: x.Op, L: l, R: r}, true
	case ast.Compare:
		l, ok1 := rewriteForPushdown(x.L, v)
		r, ok2 := rewriteForPushdown(x.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.Compare{Op: x.Op, Kind: x.Kind, L: l, R: r}, true
	case ast.Unary:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.Unary{Neg: x.Neg, X: r}, true
	case ast.Range:
		l, ok1 := rewriteForPushdown(x.L, v)
		r, ok2 := rewriteForPushdown(x.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.Range{L: l, R: r}, true
	case ast.InstanceOf:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.InstanceOf{X: r, Type: x.Type}, true
	case ast.TreatAs:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.TreatAs{X: r, Type: x.Type}, true
	case ast.CastAs:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.CastAs{X: r, Type: x.Type, Optional: x.Optional, Castable: x.Castable}, true
	case ast.Path:
		if x.Absolute {
			return nil, false // rooted at the focus node's tree
		}
		if len(x.Steps) == 0 {
			return nil, false
		}
		first := x.Steps[0]
		if first.Primary == nil {
			return nil, false // relative to the outer focus
		}
		steps := make([]ast.Step, len(x.Steps))
		copy(steps, x.Steps)
		switch prim := first.Primary.(type) {
		case ast.VarRef:
			if prim.Name.Matches(v) {
				if len(first.Preds) == 0 && len(steps) > 1 {
					// `$v/rest` over the candidate node is just `rest`:
					// dropping the root step (rather than rewriting it
					// to `.`) keeps the predicate a plain axis path —
					// the shape the id-index planner recognises, so
					// [@id = "v"] pushdowns upgrade to id probes.
					steps = steps[1:]
				} else {
					steps[0].Primary = ast.ContextItem{}
				}
			}
		default:
			return nil, false
		}
		// Step predicates have their own focus, so `.`, position() and
		// last() inside them are local — but a mention of $v inside a
		// predicate would need the outer binding we are eliminating.
		vset := map[string]bool{vkey(v): true}
		for _, s := range x.Steps {
			for _, pr := range s.Preds {
				if mentionsVars(pr, vset) {
					return nil, false
				}
			}
			if s.Primary != nil && s.Primary != first.Primary {
				return nil, false
			}
		}
		for i := 1; i < len(steps); i++ {
			if steps[i].Primary != nil {
				return nil, false
			}
		}
		return ast.Path{Absolute: false, Steps: steps}, true
	case ast.FTContains:
		// `$v ftcontains S` becomes `. ftcontains S` over the candidate
		// node. Rewriting matters beyond generality: the planned
		// predicate is exactly the shape PlanStep upgrades to an
		// AccessFT posting-list probe when the sources are literals.
		cx, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		sel, ok := rewriteFTForPushdown(x.Sel, v)
		if !ok {
			return nil, false
		}
		return ast.FTContains{X: cx, Sel: sel}, true
	}
	return nil, false
}

// rewriteFTForPushdown rewrites the word sources of a full-text
// selection for predicate pushdown (see rewriteForPushdown).
func rewriteFTForPushdown(sel ast.FTSelection, v dom.QName) (ast.FTSelection, bool) {
	switch s := sel.(type) {
	case ast.FTWords:
		src, ok := rewriteForPushdown(s.Source, v)
		if !ok {
			return nil, false
		}
		return ast.FTWords{Source: src, AnyAll: s.AnyAll, Opts: s.Opts}, true
	case ast.FTAnd:
		l, ok1 := rewriteFTForPushdown(s.L, v)
		r, ok2 := rewriteFTForPushdown(s.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.FTAnd{L: l, R: r}, true
	case ast.FTOr:
		l, ok1 := rewriteFTForPushdown(s.L, v)
		r, ok2 := rewriteFTForPushdown(s.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.FTOr{L: l, R: r}, true
	case ast.FTNot:
		x, ok := rewriteFTForPushdown(s.X, v)
		if !ok {
			return nil, false
		}
		return ast.FTNot{X: x}, true
	default:
		return nil, false
	}
}

// hoistLets wraps loop-invariant let bindings (pure, independent of
// every iteration-variant variable bound earlier, with at least one
// for clause in front) in ast.Hoisted, numbering the memo slots from
// *slots upward.
func (o *optimizer) hoistLets(clauses []ast.Clause, slots *int) []ast.Clause {
	variant := map[string]bool{}
	sawFor := false
	var out []ast.Clause
	for i, cl := range clauses {
		if cl.For {
			sawFor = true
			variant[vkey(cl.Var)] = true
			if !cl.PosVar.IsZero() {
				variant[vkey(cl.PosVar)] = true
			}
			continue
		}
		invariant := sawFor && pureExpr(cl.In) && !mentionsVars(cl.In, variant)
		if invariant {
			if out == nil {
				out = make([]ast.Clause, len(clauses))
				copy(out, clauses)
			}
			out[i].In = ast.Hoisted{X: cl.In, Slot: *slots}
			*slots++
			o.st.Hoists++
			continue
		}
		if !pureExpr(cl.In) || mentionsVars(cl.In, variant) {
			variant[vkey(cl.Var)] = true
		}
	}
	if out == nil {
		return clauses
	}
	return out
}

// hoistConjuncts wraps loop-invariant where conjuncts in ast.Hoisted;
// the walker memoises their EBV at first use, so a zero-iteration loop
// still never evaluates them.
func (o *optimizer) hoistConjuncts(clauses []ast.Clause, conj []ast.Expr, slots *int) []ast.Expr {
	hasFor := false
	for _, cl := range clauses {
		if cl.For {
			hasFor = true
			break
		}
	}
	if !hasFor || len(conj) == 0 {
		return conj
	}
	bound := boundVarSet(clauses)
	var out []ast.Expr
	for i, c := range conj {
		if pureExpr(c) && !mentionsVars(c, bound) {
			if out == nil {
				out = make([]ast.Expr, len(conj))
				copy(out, conj)
			}
			out[i] = ast.Hoisted{X: c, Slot: *slots}
			*slots++
			o.st.Hoists++
		}
	}
	if out == nil {
		return conj
	}
	return out
}

func boundVarSet(clauses []ast.Clause) map[string]bool {
	s := map[string]bool{}
	for _, cl := range clauses {
		s[vkey(cl.Var)] = true
		if !cl.PosVar.IsZero() {
			s[vkey(cl.PosVar)] = true
		}
	}
	return s
}

func vkey(n dom.QName) string { return n.Space + "#" + n.Local }

// --- conservative predicates -------------------------------------------------

// contextFnMinArgs maps builtins whose funclib implementation defaults
// an omitted argument to the context item (argOrContext / ctx.Item) to
// the argument count that makes the context explicit. A shorter call
// reads the focus implicitly, so rewriteForPushdown must reject it:
// pushdown re-focuses the conjunct from the outer FLWOR tuple onto
// each candidate node, which would silently rebind the implicit
// context (`where local-name() = "book"` must keep seeing the outer
// focus, not each candidate). Standard context-defaulting builtins the
// library does not register yet are listed too, so registering one
// later cannot re-open the hole. Matched by local name regardless of
// namespace, like the position()/last() check above: a false positive
// only skips a rewrite.
var contextFnMinArgs = map[string]int{
	"string": 1, "string-length": 1, "length": 1, "normalize-space": 1,
	"number": 1, "data": 1, "name": 1, "local-name": 1,
	"namespace-uri": 1, "node-name": 1, "root": 1, "base-uri": 1,
	"document-uri": 1, "generate-id": 1, "path": 1, "has-children": 1,
	"lang": 2, "id": 2, "idref": 2, "element-with-id": 2,
}

// pureFn is the allowlist of fn:-namespace builtins the optimizer may
// move, memoise or join-build: side-effect free and stable under
// re-evaluation within one FLWOR entry. Context-defaulting builtins
// qualify — pureExpr rewrites never change the focus, and the focus is
// invariant across the iterations of the FLWOR they move within (only
// pushdown re-focuses, and it has its own guard above). Anything
// absent answers impure, the conservative default-false style used
// elsewhere in this file, so a future or host-registered builtin is
// never silently hoisted: notably fn:doc / fn:doc-available /
// fn:collection (resolver-backed, observe external state), fn:put
// (updates), fn:trace (side channel), fn:error (raising must stay
// where the author put it), fn:current-* (read the clock), and
// fn:position / fn:last (focus-dependent beyond the item).
var pureFn = map[string]bool{}

func init() {
	for _, n := range []string{
		// strings
		"string", "concat", "string-join", "substring", "string-length",
		"length", "normalize-space", "upper-case", "lower-case",
		"translate", "contains", "starts-with", "ends-with",
		"substring-before", "substring-after", "compare",
		"encode-for-uri", "codepoints-to-string", "string-to-codepoints",
		// regex
		"matches", "replace", "tokenize",
		// numeric
		"number", "abs", "floor", "ceiling", "round", "round-half-to-even",
		// boolean
		"true", "false", "not", "boolean",
		// sequences
		"empty", "exists", "head", "tail", "count", "reverse",
		"insert-before", "remove", "subsequence", "index-of",
		"distinct-values", "deep-equal", "data",
		"zero-or-one", "one-or-more", "exactly-one",
		// aggregates
		"sum", "avg", "min", "max",
		// nodes (reads, not constructors; fresh-identity makers are
		// handled by the expression cases, not this list)
		"name", "local-name", "namespace-uri", "node-name", "root",
		"base-uri", "id",
		// date/time component accessors (current-* excluded above)
		"year-from-dateTime", "month-from-dateTime", "day-from-dateTime",
		"hours-from-dateTime", "minutes-from-dateTime", "seconds-from-dateTime",
		"year-from-date", "month-from-date", "day-from-date",
		"hours-from-time", "minutes-from-time", "seconds-from-time",
		"years-from-duration", "months-from-duration", "days-from-duration",
		"hours-from-duration", "minutes-from-duration", "seconds-from-duration",
	} {
		pureFn[n] = true
	}
}

// pureExpr reports whether evaluating e is free of side effects and
// yields the same value however often it runs in one FLWOR entry.
// Node constructors are impure here: each evaluation creates a fresh
// node identity. Conservative: unknown shapes answer false.
func pureExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit,
		ast.VarRef, ast.ContextItem:
		return true
	case ast.SeqExpr:
		for _, it := range x.Items {
			if !pureExpr(it) {
				return false
			}
		}
		return true
	case ast.Ordered:
		return pureExpr(x.X)
	case ast.Hoisted:
		return pureExpr(x.X)
	case ast.FuncCall:
		if x.Name.Space != fnSpace || !pureFn[x.Name.Local] {
			return false
		}
		for _, a := range x.Args {
			if !pureExpr(a) {
				return false
			}
		}
		return true
	case ast.If:
		return pureExpr(x.Cond) && pureExpr(x.Then) && pureExpr(x.Else)
	case ast.FLWOR:
		if x.Join != nil {
			// Join annotations carry their own evaluation schedule;
			// treat as opaque.
			return false
		}
		for _, cl := range x.Clauses {
			if !pureExpr(cl.In) {
				return false
			}
		}
		for _, os := range x.OrderBy {
			if !pureExpr(os.Key) {
				return false
			}
		}
		return pureExpr(x.Where) && pureExpr(x.Return)
	case ast.Quantified:
		for _, cl := range x.Vars {
			if !pureExpr(cl.In) {
				return false
			}
		}
		return pureExpr(x.Satisfies)
	case ast.Binary:
		return pureExpr(x.L) && pureExpr(x.R)
	case ast.Compare:
		return pureExpr(x.L) && pureExpr(x.R)
	case ast.Unary:
		return pureExpr(x.X)
	case ast.Range:
		return pureExpr(x.L) && pureExpr(x.R)
	case ast.InstanceOf:
		return pureExpr(x.X)
	case ast.TreatAs:
		return pureExpr(x.X)
	case ast.CastAs:
		return pureExpr(x.X)
	case ast.Path:
		for _, s := range x.Steps {
			if s.Primary != nil && !pureExpr(s.Primary) {
				return false
			}
			for _, pr := range s.Preds {
				if !pureExpr(pr) {
					return false
				}
			}
		}
		return true
	default:
		return false
	}
}

// mentionsVars reports whether e references any variable in vars.
// Shadowing is ignored (a shadowed mention still answers true) and
// unknown shapes answer true: both errors are on the safe side — the
// optimizer merely skips a rewrite.
func mentionsVars(e ast.Expr, vars map[string]bool) bool {
	if len(vars) == 0 {
		return false
	}
	switch x := e.(type) {
	case nil:
		return false
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit, ast.ContextItem:
		return false
	case ast.VarRef:
		return vars[vkey(x.Name)]
	case ast.SeqExpr:
		for _, it := range x.Items {
			if mentionsVars(it, vars) {
				return true
			}
		}
		return false
	case ast.Ordered:
		return mentionsVars(x.X, vars)
	case ast.Hoisted:
		return mentionsVars(x.X, vars)
	case ast.FuncCall:
		for _, a := range x.Args {
			if mentionsVars(a, vars) {
				return true
			}
		}
		return false
	case ast.If:
		return mentionsVars(x.Cond, vars) || mentionsVars(x.Then, vars) || mentionsVars(x.Else, vars)
	case ast.FLWOR:
		for _, cl := range x.Clauses {
			if mentionsVars(cl.In, vars) {
				return true
			}
		}
		if x.Join != nil &&
			(mentionsVars(x.Join.OuterKey, vars) || mentionsVars(x.Join.InnerKey, vars)) {
			return true
		}
		for _, os := range x.OrderBy {
			if mentionsVars(os.Key, vars) {
				return true
			}
		}
		return mentionsVars(x.Where, vars) || mentionsVars(x.Return, vars)
	case ast.Quantified:
		for _, cl := range x.Vars {
			if mentionsVars(cl.In, vars) {
				return true
			}
		}
		return mentionsVars(x.Satisfies, vars)
	case ast.Typeswitch:
		if mentionsVars(x.Operand, vars) || mentionsVars(x.Default, vars) {
			return true
		}
		for _, c := range x.Cases {
			if mentionsVars(c.Body, vars) {
				return true
			}
		}
		return false
	case ast.Binary:
		return mentionsVars(x.L, vars) || mentionsVars(x.R, vars)
	case ast.Compare:
		return mentionsVars(x.L, vars) || mentionsVars(x.R, vars)
	case ast.Unary:
		return mentionsVars(x.X, vars)
	case ast.Range:
		return mentionsVars(x.L, vars) || mentionsVars(x.R, vars)
	case ast.InstanceOf:
		return mentionsVars(x.X, vars)
	case ast.TreatAs:
		return mentionsVars(x.X, vars)
	case ast.CastAs:
		return mentionsVars(x.X, vars)
	case ast.Path:
		for _, s := range x.Steps {
			if s.Primary != nil && mentionsVars(s.Primary, vars) {
				return true
			}
			for _, pr := range s.Preds {
				if mentionsVars(pr, vars) {
					return true
				}
			}
		}
		return false
	default:
		return true
	}
}

// --- copy-based child rewriting ---------------------------------------------

// children rebuilds e with optimized children. Node kinds the
// optimizer does not rewrite inside (constructors, updates, scripting,
// events, full text) are still descended into, because a FLWOR worth
// optimizing can hide anywhere; each case constructs a fresh node.
func (o *optimizer) children(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case ast.SeqExpr:
		items := make([]ast.Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = o.expr(it)
		}
		return ast.SeqExpr{Items: items}
	case ast.Ordered:
		return ast.Ordered{X: o.expr(x.X)}
	case ast.FuncCall:
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = o.expr(a)
		}
		return ast.FuncCall{Name: x.Name, Args: args, At: x.At}
	case ast.If:
		return ast.If{Cond: o.expr(x.Cond), Then: o.expr(x.Then), Else: o.expr(x.Else), At: x.At}
	case ast.FLWOR:
		clauses := make([]ast.Clause, len(x.Clauses))
		copy(clauses, x.Clauses)
		for i := range clauses {
			clauses[i].In = o.expr(clauses[i].In)
		}
		orderBy := make([]ast.OrderSpec, len(x.OrderBy))
		copy(orderBy, x.OrderBy)
		for i := range orderBy {
			orderBy[i].Key = o.expr(orderBy[i].Key)
		}
		out := ast.FLWOR{Clauses: clauses, OrderBy: orderBy, Return: o.expr(x.Return)}
		if x.Where != nil {
			out.Where = o.expr(x.Where)
		}
		if len(out.OrderBy) == 0 {
			out.OrderBy = nil
		}
		return out
	case ast.Quantified:
		vars := make([]ast.Clause, len(x.Vars))
		copy(vars, x.Vars)
		for i := range vars {
			vars[i].In = o.expr(vars[i].In)
		}
		return ast.Quantified{Every: x.Every, Vars: vars, Satisfies: o.expr(x.Satisfies)}
	case ast.Typeswitch:
		cases := make([]ast.TypeswitchCase, len(x.Cases))
		copy(cases, x.Cases)
		for i := range cases {
			cases[i].Body = o.expr(cases[i].Body)
		}
		return ast.Typeswitch{Operand: o.expr(x.Operand), Cases: cases,
			DefaultVar: x.DefaultVar, Default: o.expr(x.Default), At: x.At}
	case ast.Binary:
		return ast.Binary{Op: x.Op, L: o.expr(x.L), R: o.expr(x.R)}
	case ast.Compare:
		return ast.Compare{Op: x.Op, Kind: x.Kind, L: o.expr(x.L), R: o.expr(x.R)}
	case ast.Unary:
		return ast.Unary{Neg: x.Neg, X: o.expr(x.X)}
	case ast.Range:
		return ast.Range{L: o.expr(x.L), R: o.expr(x.R)}
	case ast.InstanceOf:
		return ast.InstanceOf{X: o.expr(x.X), Type: x.Type}
	case ast.TreatAs:
		return ast.TreatAs{X: o.expr(x.X), Type: x.Type}
	case ast.CastAs:
		return ast.CastAs{X: o.expr(x.X), Type: x.Type, Optional: x.Optional, Castable: x.Castable}
	case ast.Path:
		steps := make([]ast.Step, len(x.Steps))
		copy(steps, x.Steps)
		for i := range steps {
			if steps[i].Primary != nil {
				steps[i].Primary = o.expr(steps[i].Primary)
			}
			if len(steps[i].Preds) > 0 {
				preds := make([]ast.Expr, len(steps[i].Preds))
				for k, pr := range steps[i].Preds {
					preds[k] = o.expr(pr)
				}
				steps[i].Preds = preds
			}
		}
		return ast.Path{Absolute: x.Absolute, Steps: steps}
	case ast.DirElem:
		attrs := make([]ast.DirAttr, len(x.Attrs))
		copy(attrs, x.Attrs)
		for i := range attrs {
			pieces := make([]ast.Expr, len(attrs[i].Pieces))
			for k, p := range attrs[i].Pieces {
				pieces[k] = o.expr(p)
			}
			attrs[i].Pieces = pieces
		}
		content := make([]ast.Expr, len(x.Content))
		for i, c := range x.Content {
			content[i] = o.expr(c)
		}
		return ast.DirElem{Name: x.Name, Attrs: attrs, Content: content}
	case ast.CompConstructor:
		return ast.CompConstructor{Kind: x.Kind, Name: x.Name,
			NameExpr: o.expr(x.NameExpr), Content: o.expr(x.Content)}
	case ast.Insert:
		return ast.Insert{Source: o.expr(x.Source), Target: o.expr(x.Target), Pos: x.Pos, At: x.At}
	case ast.Delete:
		return ast.Delete{Target: o.expr(x.Target), At: x.At}
	case ast.Replace:
		return ast.Replace{ValueOf: x.ValueOf, Target: o.expr(x.Target), With: o.expr(x.With), At: x.At}
	case ast.Rename:
		return ast.Rename{Target: o.expr(x.Target), NewName: o.expr(x.NewName), At: x.At}
	case ast.Transform:
		bindings := make([]ast.Clause, len(x.Bindings))
		copy(bindings, x.Bindings)
		for i := range bindings {
			bindings[i].In = o.expr(bindings[i].In)
		}
		return ast.Transform{Bindings: bindings, Modify: o.expr(x.Modify), Return: o.expr(x.Return), At: x.At}
	case ast.Block:
		stmts := make([]ast.Expr, len(x.Stmts))
		for i, s := range x.Stmts {
			stmts[i] = o.expr(s)
		}
		return ast.Block{Stmts: stmts}
	case ast.BlockDecl:
		return ast.BlockDecl{Var: x.Var, Type: x.Type, Init: o.expr(x.Init), At: x.At}
	case ast.Assign:
		return ast.Assign{Var: x.Var, Val: o.expr(x.Val), At: x.At}
	case ast.While:
		return ast.While{Cond: o.expr(x.Cond), Body: o.expr(x.Body), At: x.At}
	case ast.Exit:
		return ast.Exit{With: o.expr(x.With), At: x.At}
	case ast.EventAttach:
		return ast.EventAttach{Event: o.expr(x.Event), Target: o.expr(x.Target),
			Behind: x.Behind, Listener: x.Listener, At: x.At}
	case ast.EventDetach:
		return ast.EventDetach{Event: o.expr(x.Event), Target: o.expr(x.Target),
			Listener: x.Listener, At: x.At}
	case ast.EventTrigger:
		return ast.EventTrigger{Event: o.expr(x.Event), Target: o.expr(x.Target), At: x.At}
	case ast.SetStyle:
		return ast.SetStyle{Prop: o.expr(x.Prop), Target: o.expr(x.Target), Value: o.expr(x.Value), At: x.At}
	case ast.GetStyle:
		return ast.GetStyle{Prop: o.expr(x.Prop), Target: o.expr(x.Target), At: x.At}
	case ast.FTContains:
		return ast.FTContains{X: o.expr(x.X), Sel: x.Sel}
	default:
		// Literals, VarRef, ContextItem, Break, Continue, Hoisted (not
		// produced by parsers) and anything future: leave untouched.
		return e
	}
}
