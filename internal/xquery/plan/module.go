package plan

import (
	"repro/internal/dom"
	"repro/internal/xquery/ast"
)

// OptimizeModule runs Optimize once over each evaluation unit of a
// module: the module body and every function body. It returns the
// bodies the walker evaluates — body for the module body (nil for a
// library module) and funcs parallel to m.Prolog.Functions (nil for
// external declarations) — plus the rewrite counts over all units.
//
// A sequential unit stays exactly as parsed, and so does a unit the
// optimizer finds nothing to rewrite in. The optimizer's rewrites
// assume that nothing a loop does becomes visible to the loop itself:
// a pushed-down where conjunct is evaluated with the domain, before
// the first iteration, instead of once per tuple after the earlier
// iterations ran. That holds for pure XQuery and for the Update
// Facility, whose pending updates apply after the query, but not for
// a unit that can make an effect visible while it runs (see
// sequentialExpr). Calls propagate the property: a function declared
// sequential, or whose body is sequential, makes every caller
// sequential. The part over the prolog's own function bodies is a
// fixpoint; for every other function (imported, external or built in)
// seqFn answers.
func OptimizeModule(m *ast.Module, seqFn func(name dom.QName, arity int) bool) (body ast.Expr, funcs []ast.Expr, st Stats) {
	type sig struct {
		space, local string
		arity        int
	}
	decls := m.Prolog.Functions
	local := make(map[sig]int, len(decls))
	for i, d := range decls {
		if !d.External {
			local[sig{d.Name.Space, d.Name.Local, len(d.Params)}] = i
		}
	}
	seq := make([]bool, len(decls))
	seqCall := func(x ast.FuncCall) bool {
		if i, ok := local[sig{x.Name.Space, x.Name.Local, len(x.Args)}]; ok {
			return seq[i]
		}
		return seqFn(x.Name, len(x.Args))
	}
	for changed := true; changed; {
		changed = false
		for i := range decls {
			d := &decls[i]
			if seq[i] || d.External {
				continue
			}
			if d.Sequential || sequentialExpr(d.Body, seqCall) {
				seq[i], changed = true, true
			}
		}
	}

	optimize := func(e ast.Expr) ast.Expr {
		if e == nil || sequentialExpr(e, seqCall) {
			return e
		}
		before := st
		if opt := Optimize(e, &st); st != before {
			return opt
		}
		// Nothing counted was rewritten (flattening alone does not
		// change evaluation): the program keeps no copy of the tree.
		return e
	}
	funcs = make([]ast.Expr, len(decls))
	for i := range decls {
		if seq[i] {
			funcs[i] = decls[i].Body
		} else {
			funcs[i] = optimize(decls[i].Body)
		}
	}
	return optimize(m.Body), funcs, st
}

// sequentialExpr reports whether evaluating e can make a side effect
// visible before e finishes: a scripting construct (blocks and while
// loops apply pending updates statement by statement; assignment
// rebinds variables mid-evaluation), a browser expression that
// mutates the page or runs listeners synchronously (set style,
// trigger event, and a behind call, whose readyState-1 listener runs
// at attach time), or a call seqCall answers true for. Unknown node
// kinds answer true, so a new construct is never optimized by
// accident.
func sequentialExpr(e ast.Expr, seqCall func(ast.FuncCall) bool) bool {
	some := func(es ...ast.Expr) bool {
		for _, x := range es {
			if sequentialExpr(x, seqCall) {
				return true
			}
		}
		return false
	}
	clauses := func(cs []ast.Clause) bool {
		for _, c := range cs {
			if sequentialExpr(c.In, seqCall) {
				return true
			}
		}
		return false
	}
	switch x := e.(type) {
	case nil, ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit,
		ast.VarRef, ast.ContextItem:
		return false
	case ast.Assign, ast.BlockDecl, ast.Block, ast.While, ast.Break, ast.Continue, ast.Exit,
		ast.SetStyle, ast.EventTrigger:
		return true
	case ast.EventAttach:
		return x.Behind || some(x.Event, x.Target)
	case ast.EventDetach:
		return some(x.Event, x.Target)
	case ast.GetStyle:
		return some(x.Prop, x.Target)
	case ast.SeqExpr:
		return some(x.Items...)
	case ast.Ordered:
		return some(x.X)
	case ast.Hoisted:
		return some(x.X)
	case ast.FuncCall:
		return some(x.Args...) || seqCall(x)
	case ast.If:
		return some(x.Cond, x.Then, x.Else)
	case ast.FLWOR:
		if clauses(x.Clauses) || some(x.Where, x.Return) {
			return true
		}
		if x.Join != nil && some(x.Join.OuterKey, x.Join.InnerKey, x.Join.Pred) {
			return true
		}
		for _, os := range x.OrderBy {
			if some(os.Key) {
				return true
			}
		}
		return false
	case ast.Quantified:
		return clauses(x.Vars) || some(x.Satisfies)
	case ast.Typeswitch:
		for _, cs := range x.Cases {
			if some(cs.Body) {
				return true
			}
		}
		return some(x.Operand, x.Default)
	case ast.Binary:
		return some(x.L, x.R)
	case ast.Compare:
		return some(x.L, x.R)
	case ast.Unary:
		return some(x.X)
	case ast.Range:
		return some(x.L, x.R)
	case ast.InstanceOf:
		return some(x.X)
	case ast.TreatAs:
		return some(x.X)
	case ast.CastAs:
		return some(x.X)
	case ast.Path:
		for _, s := range x.Steps {
			if some(s.Primary) || some(s.Preds...) {
				return true
			}
		}
		return false
	case ast.DirElem:
		for _, a := range x.Attrs {
			if some(a.Pieces...) {
				return true
			}
		}
		return some(x.Content...)
	case ast.CompConstructor:
		return some(x.NameExpr, x.Content)
	case ast.Insert:
		return some(x.Source, x.Target)
	case ast.Delete:
		return some(x.Target)
	case ast.Replace:
		return some(x.Target, x.With)
	case ast.Rename:
		return some(x.Target, x.NewName)
	case ast.Transform:
		return clauses(x.Bindings) || some(x.Modify, x.Return)
	case ast.FTContains:
		return some(x.X) || sequentialFT(x.Sel, seqCall)
	default:
		return true
	}
}

func sequentialFT(s ast.FTSelection, seqCall func(ast.FuncCall) bool) bool {
	switch x := s.(type) {
	case ast.FTWords:
		return sequentialExpr(x.Source, seqCall)
	case ast.FTAnd:
		return sequentialFT(x.L, seqCall) || sequentialFT(x.R, seqCall)
	case ast.FTOr:
		return sequentialFT(x.L, seqCall) || sequentialFT(x.R, seqCall)
	case ast.FTNot:
		return sequentialFT(x.X, seqCall)
	default:
		return true
	}
}
