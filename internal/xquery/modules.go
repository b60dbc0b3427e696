package xquery

import (
	"fmt"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/runtime"
)

// NewLocalResolver builds a module resolver over a set of in-memory
// library module sources, keyed by namespace URI (location hints are
// also consulted). It gives the engine proper multi-module programs —
// the way the paper's applications factor shared XQuery into modules
// (§6.1: "the XQuery modules defined in the Reference 2.0 application
// code are directly published").
//
// Each imported module compiles once; its functions are exposed to the
// importer through proxies that evaluate in the library's own context
// (so library-global variables work and cannot collide with the
// importer's).
func NewLocalResolver(sources map[string]string, opts ...Option) runtime.ModuleResolver {
	engine := New(opts...)
	compiled := map[string]*Program{}
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		src, ok := sources[imp.URI]
		if !ok {
			for _, hint := range imp.Hints {
				if s, ok2 := sources[hint]; ok2 {
					src, ok = s, true
					break
				}
			}
		}
		if !ok {
			return fmt.Errorf("xquery: no module source for %q", imp.URI)
		}
		prog, ok := compiled[imp.URI]
		if !ok {
			p, err := engine.Compile(src)
			if err != nil {
				return fmt.Errorf("xquery: compiling module %q: %w", imp.URI, err)
			}
			m := p.Module()
			if !m.IsLibrary {
				return fmt.Errorf("xquery: %q is not a library module", imp.URI)
			}
			if m.URI != imp.URI {
				return fmt.Errorf("xquery: module namespace %q does not match import %q", m.URI, imp.URI)
			}
			compiled[imp.URI] = p
			prog = p
		}
		for i := range prog.Module().Prolog.Functions {
			decl := &prog.Module().Prolog.Functions[i]
			if decl.Name.Space != imp.URI {
				continue
			}
			name := decl.Name
			arity := len(decl.Params)
			libProg := prog
			reg.Register(&runtime.Function{
				Name:       name,
				MinArgs:    arity,
				MaxArgs:    arity,
				Updating:   decl.Updating,
				Sequential: decl.Sequential,
				Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
					// Evaluate in the library's own context but share
					// the caller's external interfaces and pending
					// update list so library updates take effect in the
					// caller's snapshot.
					lctx := runtime.NewContext(libProg.Runtime())
					lctx.Docs = ctx.Docs
					lctx.Hooks = ctx.Hooks
					lctx.Now = ctx.Now
					lctx.PUL = ctx.PUL
					lctx.Ambient = ctx.Ambient
					lctx.NoOptimize = ctx.NoOptimize
					if err := lctx.InitGlobals(); err != nil {
						return nil, err
					}
					return lctx.CallFunction(name, args)
				},
			})
		}
		return nil
	}
}

// CombineResolvers tries each resolver in turn until one succeeds —
// hosts often mix local library modules with remote web services.
func CombineResolvers(resolvers ...runtime.ModuleResolver) runtime.ModuleResolver {
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		var lastErr error
		for _, r := range resolvers {
			if r == nil {
				continue
			}
			if err := r(imp, reg); err != nil {
				lastErr = err
				continue
			}
			return nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("xquery: no resolver for module %q", imp.URI)
		}
		return lastErr
	}
}
