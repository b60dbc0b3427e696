package runtime

import (
	"sort"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// This file evaluates the two optimizer annotations that carry runtime
// state (see plan.Optimize): memoised ast.Hoisted subexpressions and
// ast.JoinPlan hash joins. The state lives in the walker, never in
// the shared AST: memo cells hang off the context of one FLWOR entry,
// join tables off one evalFLWOR call. Both are off in sequential mode,
// where an update applied between iterations can change what an
// "invariant" expression or a build-side key sees.

// hoistFrame holds the memo cells of one FLWOR entry, indexed by
// ast.Hoisted.Slot.
type hoistFrame struct{ cells []hoistCell }

// hoistCell memoises one ast.Hoisted subexpression for one FLWOR
// entry: its value when reached through Eval or EvalIter, its
// effective boolean value when reached as a where conjunct.
type hoistCell struct {
	seq        xdm.Sequence
	b          bool
	seqOK, bOK bool
}

// evalHoisted evaluates a hoisted subexpression at most once per entry
// of the FLWOR owning it. Outside a memo frame it is transparent.
func (ctx *Context) evalHoisted(h ast.Hoisted) (xdm.Sequence, error) {
	if ctx.hoist == nil {
		return ctx.Eval(h.X)
	}
	cell := &ctx.hoist.cells[h.Slot]
	if !cell.seqOK {
		s, err := ctx.Eval(h.X)
		if err != nil {
			return nil, err
		}
		cell.seq, cell.seqOK = s, true
	}
	return cell.seq, nil
}

// hoistedEBV is evalHoisted for a where conjunct: it memoises the
// streaming EBV, which pulls at most two items, so memoisation never
// surfaces an error the unoptimized EBV would not have reached.
func (ctx *Context) hoistedEBV(h ast.Hoisted) (bool, error) {
	if ctx.hoist == nil {
		return ctx.evalEBV(h.X)
	}
	cell := &ctx.hoist.cells[h.Slot]
	if !cell.bOK {
		b, err := ctx.evalEBV(h.X)
		if err != nil {
			return false, err
		}
		cell.b, cell.bOK = b, true
	}
	return cell.b, nil
}

// joinTable is the build side of a hash join for one FLWOR entry,
// built at the first arrival at the join clause. buckets maps a key's
// string value to the domain positions carrying it, in domain order;
// it is nil when some build key left the string comparison class, and
// every probe then walks the predicate instead.
type joinTable struct {
	built   bool
	domain  xdm.Sequence
	buckets map[string][]int
}

// joinClause binds the join clause's variable for the current outer
// tuple and calls next for every build item that satisfies the join
// predicate, in domain order — the tuples the nested loop would keep.
func (ctx *Context) joinClause(jp *ast.JoinPlan, cl ast.Clause, jt *joinTable, next func(*Context) error) error {
	if !jt.built {
		if err := ctx.buildJoin(jp, cl, jt); err != nil {
			return err
		}
	}
	if len(jt.domain) == 0 {
		return nil
	}
	if jt.buckets == nil {
		return ctx.joinPredLoop(jp, cl, jt.domain, next)
	}
	var keys xdm.Sequence
	if jp.ValueEq {
		k, err := ctx.evalAtomizedOne(jp.OuterKey)
		if err != nil || k == nil {
			return err // an empty key: eq never matches
		}
		keys = xdm.Singleton(k)
	} else {
		s, err := ctx.Eval(jp.OuterKey)
		if err != nil {
			return err
		}
		keys = xdm.AtomizeSequence(s)
	}
	for _, k := range keys {
		if !stringClass(k) {
			// The table cannot answer value rules outside the string
			// class; this tuple walks the predicate instead.
			return ctx.joinPredLoop(jp, cl, jt.domain, next)
		}
	}
	var idxs []int
	if len(keys) == 1 {
		idxs = jt.buckets[keys[0].String()]
	} else {
		for _, k := range keys {
			idxs = append(idxs, jt.buckets[k.String()]...)
		}
		sort.Ints(idxs) // domain order, not probe order
	}
	for n, idx := range idxs {
		if n > 0 && idx == idxs[n-1] {
			continue // matched through more than one probe atom
		}
		if err := ctx.Budget.Step(); err != nil {
			return err
		}
		if err := next(ctx.withBinding(cl.Var, xdm.Singleton(jt.domain[idx]))); err != nil {
			return err
		}
	}
	return nil
}

// joinPredLoop is the nested-loop path over a materialized build
// domain: bind every item and gate on the original predicate.
func (ctx *Context) joinPredLoop(jp *ast.JoinPlan, cl ast.Clause, domain xdm.Sequence, next func(*Context) error) error {
	for _, item := range domain {
		if err := ctx.Budget.Step(); err != nil {
			return err
		}
		c2 := ctx.withBinding(cl.Var, xdm.Singleton(item))
		keep, err := c2.evalEBV(jp.Pred)
		if err != nil {
			return err
		}
		if keep {
			if err := next(c2); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildJoin evaluates the build domain and its keys once. One outer
// key evaluation is interleaved with the first build key, so the first
// error surfaced matches the nested loop's first predicate evaluation:
// a value comparison evaluates its left operand first, a streaming
// general comparison its right operand.
func (ctx *Context) buildJoin(jp *ast.JoinPlan, cl ast.Clause, jt *joinTable) error {
	jt.built = true
	outerFirst := jp.OuterLeft
	if !jp.ValueEq && !ctx.NoStream {
		outerFirst = !jp.OuterLeft
	}
	domain, err := ctx.Eval(cl.In)
	if err != nil {
		return err
	}
	jt.domain = domain
	if len(domain) == 0 {
		// The predicate never runs on an empty build side, so the
		// nested loop never evaluates the outer key either.
		return nil
	}
	outerOnce := func() error {
		if jp.ValueEq {
			_, err := ctx.evalAtomizedOne(jp.OuterKey)
			return err
		}
		_, err := ctx.Eval(jp.OuterKey)
		return err
	}
	if outerFirst {
		if err := outerOnce(); err != nil {
			return err
		}
	}
	jt.buckets = map[string][]int{}
	for idx, item := range domain {
		if err := ctx.Budget.Step(); err != nil {
			return err
		}
		ic := ctx.withBinding(cl.Var, xdm.Singleton(item))
		var keys xdm.Sequence
		if jp.ValueEq {
			k, err := ic.evalAtomizedOne(jp.InnerKey)
			if err != nil {
				return err
			}
			if k != nil {
				keys = xdm.Singleton(k)
			}
		} else {
			s, err := ic.Eval(jp.InnerKey)
			if err != nil {
				return err
			}
			keys = xdm.AtomizeSequence(s)
		}
		fallback := false
		for _, k := range keys {
			if !stringClass(k) {
				fallback = true
				break
			}
			ks := k.String()
			b := jt.buckets[ks]
			if n := len(b); n == 0 || b[n-1] != idx {
				jt.buckets[ks] = append(b, idx)
			}
		}
		if idx == 0 && !outerFirst {
			if err := outerOnce(); err != nil {
				return err
			}
		}
		if fallback {
			jt.buckets = nil
			return nil
		}
	}
	return nil
}

// stringClass reports whether an atom belongs to the string comparison
// class (untypedAtomic, string, anyURI): within it, both `eq` and `=`
// reduce to codepoint string equality, which is what the join table
// buckets by.
func stringClass(it xdm.Item) bool {
	switch it.Type() {
	case xdm.TUntypedAtomic, xdm.TString, xdm.TAnyURI:
		return true
	}
	return false
}
