// Package runtime evaluates compiled XQuery modules: the dynamic
// context, variable environments, the function registry, and a
// tree-walking evaluator for the full extended dialect (XQuery 1.0 +
// Update Facility + Scripting + full-text + the paper's browser
// extensions). The runtime is host-agnostic: browser behaviour enters
// through the Hooks interface and the DocResolver, which is how the
// same engine runs in the browser plug-in, on the server (internal/rest)
// and on the command line (cmd/xq) — the "XQuery on all tiers" property
// the paper argues for.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/update"
)

// Sentinel errors for the resolver machinery; applications match them
// with errors.Is (the facade re-exports them).
var (
	// ErrNoResolver reports a module import with no resolver installed.
	ErrNoResolver = errors.New("xquery: no module resolver installed")
	// ErrUnknownFunction reports a call to an undeclared function.
	ErrUnknownFunction = errors.New("xquery: unknown function")
)

// maxCallDepth bounds recursion so runaway user functions produce an
// error instead of a stack overflow.
const maxCallDepth = 4096

// DocResolver resolves fn:doc URIs to document nodes.
type DocResolver func(uri string) (*dom.Node, error)

// CollectionResolver resolves fn:collection URIs to document lists
// ("" is the default collection).
type CollectionResolver func(uri string) ([]*dom.Node, error)

// CollectionIterResolver is the streaming form of CollectionResolver:
// it resolves fn:collection URIs to lazy document iterators, so a
// store that scans shards incrementally can hand the merge to the
// engine one document at a time. When a Context carries both resolvers
// the streaming fn:collection prefers this one.
type CollectionIterResolver func(uri string) (xdm.Iter, error)

// Hooks are the browser extension points (paper §4). A nil Hooks makes
// the event/style expressions and browser: functions unavailable, which
// is the correct server-side behaviour.
type Hooks interface {
	// AttachListener registers listener for the event type on each
	// target node (paper §4.3.1).
	AttachListener(ctx *Context, event string, targets xdm.Sequence, listener dom.QName) error
	// AttachBehind binds the listener to the asynchronous evaluation of
	// call: the host starts the evaluation, fires readyState events, and
	// invokes the listener on each (paper §4.4).
	AttachBehind(ctx *Context, event string, call func() (xdm.Sequence, error), listener dom.QName) error
	// DetachListener removes a registration.
	DetachListener(ctx *Context, event string, targets xdm.Sequence, listener dom.QName) error
	// TriggerEvent synthesises an event at the targets.
	TriggerEvent(ctx *Context, event string, targets xdm.Sequence) error
	// SetStyle / GetStyle implement the CSS grammar (paper §4.5).
	SetStyle(ctx *Context, prop string, targets xdm.Sequence, value string) error
	GetStyle(ctx *Context, prop string, targets xdm.Sequence) (xdm.Sequence, error)
}

// Function is a callable: a built-in, an imported web-service proxy, or
// a compiled user function.
type Function struct {
	Name       dom.QName
	MinArgs    int
	MaxArgs    int // -1 for variadic
	Updating   bool
	Sequential bool
	Invoke     func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error)
	// Stream, when non-nil, is the lazy entry point: arguments arrive
	// as unevaluated iterators, so a function that only needs a prefix
	// (fn:exists, fn:head, fn:zero-or-one) decides without forcing the
	// rest. A function with a Stream must still provide Invoke, which
	// the evaluator uses when Context.NoStream is set.
	Stream func(ctx *Context, args []xdm.Iter) (xdm.Iter, error)
}

// Registry maps function names to implementations.
type Registry struct {
	funcs map[string][]*Function
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{funcs: map[string][]*Function{}} }

func fkey(n dom.QName) string { return n.Space + "#" + n.Local }

// Register adds a function. A function with an overlapping name and
// arity range replaces the earlier registration (imports may shadow).
func (r *Registry) Register(f *Function) {
	key := fkey(f.Name)
	list := r.funcs[key]
	for i, g := range list {
		if g.MinArgs == f.MinArgs && g.MaxArgs == f.MaxArgs {
			list[i] = f
			return
		}
	}
	r.funcs[key] = append(list, f)
}

// Lookup finds the function accepting the given arity, or nil.
func (r *Registry) Lookup(name dom.QName, arity int) *Function {
	for _, f := range r.funcs[fkey(name)] {
		if arity >= f.MinArgs && (f.MaxArgs < 0 || arity <= f.MaxArgs) {
			return f
		}
	}
	return nil
}

// Names returns the number of distinct registered function names.
func (r *Registry) Names() int { return len(r.funcs) }

// Overloads returns every function registered under name, regardless of
// arity (the static analyzer uses this to distinguish "unknown
// function" from "wrong number of arguments").
func (r *Registry) Overloads(name dom.QName) []*Function {
	return r.funcs[fkey(name)]
}

// All returns every registered function in unspecified order (the
// funclib signature table is derived from this).
func (r *Registry) All() []*Function {
	var out []*Function
	for _, list := range r.funcs {
		out = append(out, list...)
	}
	return out
}

// Clone copies the registry so a program's own declarations do not leak
// into the shared built-in table.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	for k, v := range r.funcs {
		c.funcs[k] = append([]*Function(nil), v...)
	}
	return c
}

// ModuleResolver materialises a module import by registering its
// functions (and possibly global variables) into the registry. The REST
// substrate registers web-service proxies here (paper §3.4).
type ModuleResolver func(imp ast.ModuleImport, reg *Registry) error

// CompileConfig parameterises compilation.
type CompileConfig struct {
	// Registry provides the built-in functions; it is cloned.
	Registry *Registry
	// Resolver handles module imports; nil rejects imports.
	Resolver ModuleResolver
	// BlockDoc disables fn:doc and fn:put — the browser profile's
	// security rule (paper §4.2.1).
	BlockDoc bool
	// ResolverRetries is the number of additional resolver attempts
	// after a failed module load (0: fail on the first error, the
	// pre-retry behaviour). Module resolvers reach over process
	// boundaries — the REST substrate fetches service descriptions —
	// so transient failures deserve bounded retry before the compile
	// gives up.
	ResolverRetries int
	// ResolverBackoff is the wait before the first retry; each further
	// retry doubles it. 0 retries immediately.
	ResolverBackoff time.Duration
}

// Program is a compiled module ready for evaluation. Module is the
// parsed AST; body and the user functions evaluate the optimizer's
// rewrite of it (see Compile), unless a context sets NoOptimize.
type Program struct {
	Module   *ast.Module
	Reg      *Registry
	BlockDoc bool

	body     ast.Expr
	rewrites plan.Stats
}

// Rewrites returns the optimizer's rewrite counts over the bodies the
// program evaluates.
func (p *Program) Rewrites() plan.Stats { return p.rewrites }

// resolverRetries counts module-resolver load attempts retried after a
// failure, process-wide (surfaced in serve.Metrics.Failures).
var resolverRetries atomic.Int64

// ResolverRetries returns the process-wide resolver-retry count.
func ResolverRetries() int64 { return resolverRetries.Load() }

// resolveWithRetry runs one module import through the resolver with
// the configured bounded retry-with-backoff. The resolver.load fault
// point fires inside each attempt, so injected faults are retried like
// real ones. Registry.Register replaces same-name/arity entries, so a
// half-registered failed attempt is safely overwritten by the retry.
func resolveWithRetry(cfg CompileConfig, imp ast.ModuleImport, reg *Registry) error {
	attempt := func() error {
		if err := faultpoint.Hit(faultpoint.PointResolverLoad); err != nil {
			return err
		}
		return cfg.Resolver(imp, reg)
	}
	err := attempt()
	backoff := cfg.ResolverBackoff
	for retry := 0; err != nil && retry < cfg.ResolverRetries; retry++ {
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		resolverRetries.Add(1)
		err = attempt()
	}
	return err
}

// Compile resolves imports and user function declarations of a parsed
// module against the given configuration. It also runs the path
// planner (once per module, however many engines compile it): step
// access-method annotations must be in place before any evaluation
// reads them. Then it runs the algebraic optimizer once over the
// module body and every function body (plan.OptimizeModule); the
// optimizer copies, so Module keeps the parsed tree.
func Compile(m *ast.Module, cfg CompileConfig) (*Program, error) {
	m.EnsurePlanned(func() { plan.Annotate(m) })
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	reg = reg.Clone()
	p := &Program{Module: m, Reg: reg, BlockDoc: cfg.BlockDoc}
	for _, imp := range m.Prolog.Imports {
		if cfg.Resolver == nil {
			return nil, fmt.Errorf("%w for import of %q", ErrNoResolver, imp.URI)
		}
		if err := resolveWithRetry(cfg, imp, reg); err != nil {
			return nil, fmt.Errorf("xquery: importing %q: %w", imp.URI, err)
		}
	}
	body, funcs, st := plan.OptimizeModule(m, func(name dom.QName, arity int) bool {
		f := reg.Lookup(name, arity)
		return f != nil && f.Sequential
	})
	p.body, p.rewrites = body, st
	for i := range m.Prolog.Functions {
		decl := &m.Prolog.Functions[i]
		if decl.External {
			if reg.Lookup(decl.Name, len(decl.Params)) == nil {
				return nil, fmt.Errorf("xquery: external function %s/%d has no implementation",
					decl.Name, len(decl.Params))
			}
			continue
		}
		reg.Register(userFunction(decl, funcs[i]))
	}
	return p, nil
}

// userFunction builds the callable for a declared function. optimized
// is the body the optimizer produced; NoOptimize contexts walk the
// parsed one.
func userFunction(d *ast.FuncDecl, optimized ast.Expr) *Function {
	return &Function{
		Name:       d.Name,
		MinArgs:    len(d.Params),
		MaxArgs:    len(d.Params),
		Updating:   d.Updating,
		Sequential: d.Sequential,
		Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if ctx.depth >= maxCallDepth {
				return nil, fmt.Errorf("xquery: call depth limit exceeded in %s", d.Name)
			}
			// A fresh frame rooted at the globals: user functions do not
			// see the caller's local variables or context item.
			callee := *ctx
			callee.depth = ctx.depth + 1
			callee.env = ctx.globals
			callee.Item = ctx.Ambient
			callee.Pos, callee.Size = 0, 0
			if callee.Item != nil {
				callee.Pos, callee.Size = 1, 1
			}
			callee.hoist = nil
			for i, prm := range d.Params {
				v := args[i]
				if prm.Type != nil {
					cv, err := ConvertValue(v, *prm.Type)
					if err != nil {
						return nil, fmt.Errorf("xquery: argument $%s of %s: %w", prm.Name.Local, d.Name, err)
					}
					v = cv
				}
				callee.env = callee.env.bind(prm.Name, v)
			}
			body := optimized
			if ctx.NoOptimize {
				body = d.Body
			}
			res, err := callee.Eval(body)
			if ex, ok := err.(*exitError); ok {
				res, err = ex.val, nil
			}
			if err == errBreak || err == errContinue {
				// Loop control must not cross a function boundary.
				return nil, fmt.Errorf("%w (in function %s)", err, d.Name)
			}
			if err != nil {
				return nil, err
			}
			if d.ReturnType != nil {
				res, err = ConvertValue(res, *d.ReturnType)
				if err != nil {
					return nil, fmt.Errorf("xquery: result of %s: %w", d.Name, err)
				}
			}
			return res, nil
		},
	}
}

// --- environments ------------------------------------------------------------

// Box is a mutable variable cell (needed by the scripting extension's
// assignment statement).
type Box struct{ Val xdm.Sequence }

type env struct {
	parent *env
	name   dom.QName
	box    *Box
}

func (e *env) bind(name dom.QName, val xdm.Sequence) *env {
	return &env{parent: e, name: name, box: &Box{Val: val}}
}

func (e *env) lookup(name dom.QName) *Box {
	for f := e; f != nil; f = f.parent {
		if f.name.Matches(name) {
			return f.box
		}
	}
	return nil
}

// --- dynamic context ------------------------------------------------------------

// Context is the dynamic evaluation context. Copies are cheap; pointer
// fields (environment chain, PUL, hooks) are shared intentionally.
type Context struct {
	Prog *Program

	// Focus.
	Item xdm.Item
	Pos  int
	Size int

	// Ambient, when set, is installed as the context item inside user
	// function bodies (which per XQuery 1.0 have an undefined focus).
	// The browser host sets it to the page document so listeners can
	// write //div[@id=...] directly — §4.2.3: "accessing any node in
	// the document is easy and straightforward".
	Ambient xdm.Item

	// External interfaces. CollectionsIter, when set, is the streaming
	// source fn:collection pulls from; Collections stays the eager
	// fallback (and the form the NoStream evaluator uses).
	Docs            DocResolver
	Collections     CollectionResolver
	CollectionsIter CollectionIterResolver
	Hooks           Hooks
	Now             time.Time

	// PUL accumulates update primitives; nil forbids updating
	// expressions. SnapshotApply, when non-nil, is called after every
	// sequential statement to make side effects visible (scripting
	// semantics); when nil the PUL just accumulates (pure XQuery +
	// Update semantics: apply at end of query).
	PUL           *update.PUL
	SnapshotApply func(*update.PUL) error

	// Profiler, when non-nil, collects per-expression statistics (§7
	// future-work tooling); nil costs nothing.
	Profiler *Profiler

	// Budget, when non-nil, bounds this query's evaluation (steps and
	// wall clock). It is shared by design across context copies and
	// behind-call goroutines: one budget per query invocation.
	Budget *Budget

	// IO, when non-nil, is the run's cancellation context for outbound
	// I/O performed by host functions (REST calls, federation
	// sub-requests): cancelling the run stops those calls from burning
	// sockets, not just the evaluation loop. Program.NewContext sets it
	// from RunConfig.Context; hosts read it through IOContext.
	IO context.Context

	// NoStream forces the materializing evaluator everywhere: EvalIter
	// degrades to a deferred Eval and streaming built-ins use their
	// eager Invoke. Used as the baseline in benchmarks and as an
	// escape hatch.
	NoStream bool

	// NoIndex disables every use of the per-document indexes: planned
	// steps scan, fn:id walks, and document-order sorts take the
	// stamp-and-sort path. It is the scan baseline in benchmarks and
	// the oracle side of the index differential tests.
	NoIndex bool

	// NoOptimize walks the parsed module and function bodies instead
	// of the optimizer's rewrites: no folds, pushdowns, hoisting or
	// hash joins. It is the baseline in benchmarks and the oracle side
	// of the optimizer differential tests.
	NoOptimize bool

	// depth counts user-function call frames. It is an int32 so that
	// it packs with the flags above: contexts are copied per variable
	// binding, and the struct stays in the 208-byte size class.
	depth int32

	// ft carries full-text scoring state (the scores ftcontains
	// recorded, the scan side's per-document statistics cache). A
	// pointer so every context copy shares one state per query
	// invocation, like PUL and Budget.
	ft *ftState

	// hoist holds the ast.Hoisted memo cells of the innermost FLWOR
	// entry that owns any (see evalFLWOR); nil outside one and in
	// sequential mode.
	hoist *hoistFrame

	env     *env
	globals *env
}

// NewContext builds a root context for the program.
func NewContext(p *Program) *Context {
	ctx := &Context{Prog: p, Now: time.Now(), PUL: &update.PUL{}, ft: newFTState()}
	ctx.env = nil
	ctx.globals = nil
	return ctx
}

// IOContext returns the run's context for outbound I/O (never nil):
// the RunConfig.Context the evaluation was started under, or
// context.Background() when the run is unbounded. Host functions that
// issue network calls (rest:get, remote proxies, federation scatters)
// build their requests with it so a cancelled query stops burning
// sockets.
func (ctx *Context) IOContext() context.Context {
	if ctx == nil || ctx.IO == nil {
		return context.Background()
	}
	return ctx.IO
}

// Bind adds a variable binding (used by the host to inject external
// variables) and returns the box.
func (ctx *Context) Bind(name dom.QName, val xdm.Sequence) *Box {
	ctx.env = ctx.env.bind(name, val)
	if ctx.globals == nil {
		ctx.globals = ctx.env
	}
	return ctx.env.box
}

// Var returns the current value of a variable, if bound.
func (ctx *Context) Var(name dom.QName) (xdm.Sequence, bool) {
	if b := ctx.env.lookup(name); b != nil {
		return b.Val, true
	}
	return nil, false
}

// InitGlobals evaluates the prolog's global variable declarations in
// order and installs them in the context.
func (ctx *Context) InitGlobals() error {
	for i := range ctx.Prog.Module.Prolog.Vars {
		v := &ctx.Prog.Module.Prolog.Vars[i]
		if ctx.env.lookup(v.Name) != nil {
			continue // externally bound (or duplicate) — keep existing
		}
		var val xdm.Sequence
		if v.Init != nil {
			var err error
			val, err = ctx.Eval(v.Init)
			if err != nil {
				return fmt.Errorf("xquery: initialising $%s: %w", v.Name.Local, err)
			}
		} else if v.External {
			return fmt.Errorf("xquery: external variable $%s was not bound", v.Name.Local)
		}
		if v.Type != nil {
			cv, err := ConvertValue(val, *v.Type)
			if err != nil {
				return fmt.Errorf("xquery: variable $%s: %w", v.Name.Local, err)
			}
			val = cv
		}
		ctx.Bind(v.Name, val)
	}
	ctx.globals = ctx.env
	return nil
}

// Body returns the module body this context evaluates: the
// optimizer's rewrite, or the parsed body under NoOptimize. It is nil
// for a library module.
func (ctx *Context) Body() ast.Expr {
	if ctx.NoOptimize {
		return ctx.Prog.Module.Body
	}
	return ctx.Prog.body
}

// Run initialises globals and evaluates the module body. Pending
// updates are left in ctx.PUL for the host to apply (unless
// SnapshotApply consumed them along the way).
func (ctx *Context) Run() (xdm.Sequence, error) {
	if err := ctx.InitGlobals(); err != nil {
		return nil, err
	}
	body := ctx.Body()
	if body == nil {
		return nil, nil
	}
	res, err := ctx.Eval(body)
	if ex, ok := err.(*exitError); ok {
		return ex.val, nil
	}
	return res, err
}

// CallFunction invokes a named function with the given arguments — the
// plug-in host uses this to run event listeners (paper Figure 1: "Zorba
// is called with the XQuery prolog followed by the listener call").
func (ctx *Context) CallFunction(name dom.QName, args []xdm.Sequence) (xdm.Sequence, error) {
	f := ctx.Prog.Reg.Lookup(name, len(args))
	if f == nil {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownFunction, name, len(args))
	}
	res, err := f.Invoke(ctx, args)
	if ex, ok := err.(*exitError); ok {
		return ex.val, nil
	}
	return res, err
}

// withFocus returns a copy of the context with a new focus.
func (ctx *Context) withFocus(item xdm.Item, pos, size int) *Context {
	c := *ctx
	c.Item = item
	c.Pos = pos
	c.Size = size
	return &c
}

// withEnv returns a copy of the context with a new variable frame.
func (ctx *Context) withBinding(name dom.QName, val xdm.Sequence) *Context {
	c := *ctx
	c.env = ctx.env.bind(name, val)
	return &c
}

// exitError implements the scripting "exit with" non-local return.
type exitError struct{ val xdm.Sequence }

func (e *exitError) Error() string { return "xquery: exit outside of a function" }

// ConvertValue applies the function conversion rules to a sequence for
// the given expected type: atomization for atomic expected types,
// untypedAtomic casting, numeric promotion, and a final instance check.
func ConvertValue(s xdm.Sequence, st xdm.SeqType) (xdm.Sequence, error) {
	if st.Empty {
		if len(s) != 0 {
			return nil, fmt.Errorf("expected empty-sequence(), got %d items", len(s))
		}
		return s, nil
	}
	if st.Item.Atomic != 0 {
		out := make(xdm.Sequence, 0, len(s))
		for _, it := range s {
			a := xdm.Atomize(it)
			a, err := promoteAtomic(a, st.Item.Atomic)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		s = out
	}
	if !st.Matches(s) {
		return nil, fmt.Errorf("value does not match required type %s", st)
	}
	return s, nil
}

func promoteAtomic(a xdm.Item, target xdm.Type) (xdm.Item, error) {
	t := a.Type()
	if t == target {
		return a, nil
	}
	switch {
	case t == xdm.TUntypedAtomic:
		return xdm.Cast(a, target)
	case t == xdm.TInteger && (target == xdm.TDecimal || target == xdm.TDouble):
		return xdm.Cast(a, target)
	case t == xdm.TDecimal && target == xdm.TDouble:
		return xdm.Cast(a, target)
	case t == xdm.TAnyURI && target == xdm.TString:
		return xdm.String(a.String()), nil
	}
	return a, nil // leave as-is; the instance check decides
}
