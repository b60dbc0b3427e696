// Package xquery is the engine façade: it wires the parser, the
// built-in function library and the runtime into a compile-and-run API,
// playing the role Zorba plays for the paper's plug-in (§5.2). The same
// engine object serves all tiers: the browser host (internal/core), the
// web-service server (internal/rest) and the command line (cmd/xq).
package xquery

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/runtime"
	"repro/internal/xquery/update"
)

// Engine compiles XQuery programs against a shared static environment.
//
// An Engine is immutable after New returns (options apply only during
// construction), so one engine may be shared by any number of
// goroutines calling Compile, EvalQuery and Program.Run concurrently:
// each compilation clones the registry and each run gets its own
// dynamic Context. The concurrent serving layer (internal/serve) relies
// on this to share one engine across all sessions.
type Engine struct {
	base            *runtime.Registry
	resolver        runtime.ModuleResolver
	blockDoc        bool
	fp              string
	resolverRetries int
	resolverBackoff time.Duration
	// Engine-level default doc/collection resolvers (a bound document
	// store). A RunConfig that sets its own resolvers overrides them
	// per run.
	docs            runtime.DocResolver
	collections     runtime.CollectionResolver
	collectionsIter runtime.CollectionIterResolver
	// initErr records a function-library wiring failure from New;
	// every Compile on this engine refuses with it instead of running
	// programs against a half-built registry.
	initErr error
}

// engineSeq numbers engines so each gets a distinct static-context
// fingerprint.
var engineSeq atomic.Int64

// Option configures an Engine.
type Option func(*Engine)

// ModuleResolver materialises module imports into a registry (alias of
// the runtime type, so the facade need not import the runtime).
type ModuleResolver = runtime.ModuleResolver

// Registry is the engine's function registry (alias for facade use).
type Registry = runtime.Registry

// WithModuleResolver installs the module-import resolver (the REST
// substrate registers web-service proxies through it).
func WithModuleResolver(r runtime.ModuleResolver) Option {
	return func(e *Engine) { e.resolver = r }
}

// WithResolverRetry retries failed module-resolver loads up to retries
// additional times per import, waiting backoff before the first retry
// and doubling it each further attempt. Module resolvers reach over
// process boundaries (the REST substrate fetches service
// descriptions), so transient load failures degrade to a bounded
// retry instead of failing the compile outright.
func WithResolverRetry(retries int, backoff time.Duration) Option {
	return func(e *Engine) {
		e.resolverRetries = retries
		e.resolverBackoff = backoff
	}
}

// WithBrowserProfile blocks fn:doc/fn:put, per the paper's §4.2.1
// security rule for in-browser execution.
func WithBrowserProfile() Option {
	return func(e *Engine) { e.blockDoc = true }
}

// WithDocResolver installs an engine-level default fn:doc resolver:
// every run without its own RunConfig.Docs reads documents through it.
// This is how a document store binds to an engine (see xqib.WithStore).
func WithDocResolver(r runtime.DocResolver) Option {
	return func(e *Engine) { e.docs = r }
}

// WithCollectionResolver installs an engine-level default fn:collection
// resolver, the eager counterpart of WithCollectionIterResolver.
func WithCollectionResolver(r runtime.CollectionResolver) Option {
	return func(e *Engine) { e.collections = r }
}

// WithCollectionIterResolver installs an engine-level default streaming
// fn:collection resolver (the sharded store's incremental shard-merge
// scan). Runs may still override it via RunConfig.CollectionsIter.
func WithCollectionIterResolver(r runtime.CollectionIterResolver) Option {
	return func(e *Engine) { e.collectionsIter = r }
}

// WithFunctions registers extra built-in functions (the browser: library
// uses this).
func WithFunctions(register func(*runtime.Registry)) Option {
	return func(e *Engine) { register(e.base) }
}

// New builds an engine with the full fn: library installed.
func New(opts ...Option) *Engine {
	e := &Engine{base: runtime.NewRegistry()}
	e.initErr = funclib.Register(e.base)
	for _, o := range opts {
		o(e)
	}
	blocked := 'o'
	if e.blockDoc {
		blocked = 'b'
	}
	e.fp = fmt.Sprintf("e%d/%c%d", engineSeq.Add(1), blocked, e.base.Names())
	return e
}

// Registry exposes the engine's base registry for host extensions.
func (e *Engine) Registry() *runtime.Registry { return e.base }

// Fingerprint identifies this engine's static context (built-in
// functions, resolver, browser profile) for program-cache keying. Two
// engines never share a fingerprint: registered built-ins are closures
// that may capture per-host state (the browser: library captures its
// page), so compiled programs are only reusable on the engine that
// compiled them. Cross-engine sharing happens one level down, at the
// parsed-module layer, which is static-context independent (see Cache).
func (e *Engine) Fingerprint() string { return e.fp }

// Program is a compiled, runnable XQuery program. Compilation is
// plan (path access methods) → optimize (algebraic FLWOR rewrites, once
// per program); evaluation walks the optimized tree. The parsed tree
// stays available per run via RunConfig.DisableOptimize, as baseline
// and as differential oracle.
type Program struct {
	engine *Engine
	prog   *runtime.Program
}

// Compile parses and compiles a main or library module.
func (e *Engine) Compile(src string) (*Program, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return e.CompileModule(m)
}

// CompileModule compiles an already-parsed module. The AST is read-only
// to both compilation and evaluation, so one parsed module may be
// compiled by many engines concurrently — the program cache uses this
// to share parse work across per-page host engines.
func (e *Engine) CompileModule(m *ast.Module) (*Program, error) {
	if e.initErr != nil {
		return nil, e.initErr
	}
	p, err := runtime.Compile(m, runtime.CompileConfig{
		Registry:        e.base,
		Resolver:        e.resolver,
		BlockDoc:        e.blockDoc,
		ResolverRetries: e.resolverRetries,
		ResolverBackoff: e.resolverBackoff,
	})
	if err != nil {
		return nil, err
	}
	return &Program{engine: e, prog: p}, nil
}

// RewriteStats returns the optimizer's rewrite counts for this
// program: how many constant folds, predicate pushdowns, loop
// hoistings and hash-join detections shaped the evaluated tree.
func (p *Program) RewriteStats() plan.Stats { return p.prog.Rewrites() }

// Diagnostic and Severity are the static analyzer's finding types,
// re-exported so facade users need not import the analysis package.
type (
	Diagnostic = analysis.Diagnostic
	Severity   = analysis.Severity
)

// The analyzer severities and the update-independence diagnostic codes,
// re-exported alongside Diagnostic so facade callers can filter
// Result.Diagnostics without importing the analysis package.
const (
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
	SevNote    = analysis.SevNote

	CodeDeadUpdate     = analysis.CodeDeadUpdate
	CodeDeadDelete     = analysis.CodeDeadDelete
	CodeUpdateConflict = analysis.CodeUpdateConflict
	CodeUpdateGroups   = analysis.CodeUpdateGroups
)

// ErrAnalysisFailed matches (via errors.Is) every *AnalysisError: a
// program rejected by the static analyzer under Strict mode.
var ErrAnalysisFailed = errors.New("xquery: static analysis failed")

// AnalysisError reports a program rejected by the static analyzer. It
// carries the full diagnostic list (warnings included) so callers can
// render everything, and wraps ErrAnalysisFailed for errors.Is.
type AnalysisError struct {
	Diagnostics []Diagnostic
}

func (e *AnalysisError) Error() string {
	nerr := 0
	first := ""
	for _, d := range e.Diagnostics {
		if d.Severity == analysis.SevError {
			if nerr == 0 {
				first = d.String()
			}
			nerr++
		}
	}
	if nerr == 1 {
		return fmt.Sprintf("xquery: static analysis failed: %s", first)
	}
	return fmt.Sprintf("xquery: static analysis failed: %d errors, first: %s", nerr, first)
}

// Unwrap makes errors.Is(err, ErrAnalysisFailed) true.
func (e *AnalysisError) Unwrap() error { return ErrAnalysisFailed }

// analysisConfig derives the analyzer configuration matching this
// engine's static context: its registry (so host extensions like
// browser: resolve) and its browser profile.
func (e *Engine) analysisConfig(maxSteps int64) analysis.Config {
	return analysis.Config{Registry: e.base, BrowserProfile: e.blockDoc, MaxSteps: maxSteps}
}

// Analyze parses src and runs the static analyzer without compiling or
// evaluating it. Parse failures return the parser error; an analyzed
// module always returns a result, whatever its diagnostics say.
func (e *Engine) Analyze(src string) (*analysis.Result, error) {
	if e.initErr != nil {
		return nil, e.initErr
	}
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return e.AnalyzeModule(m), nil
}

// AnalyzeModule runs the static analyzer over an already-parsed module
// against this engine's static context.
func (e *Engine) AnalyzeModule(m *ast.Module) *analysis.Result {
	return analysis.Analyze(m, e.analysisConfig(0))
}

// MustCompile compiles or panics; for tests and fixed queries.
func (e *Engine) MustCompile(src string) *Program {
	p, err := e.Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Module returns the compiled module's AST (the REST server inspects
// the prolog's options and function declarations).
func (p *Program) Module() *ast.Module { return p.prog.Module }

// Runtime returns the underlying runtime program (host integration).
func (p *Program) Runtime() *runtime.Program { return p.prog }

// RunConfig parameterises one evaluation.
type RunConfig struct {
	// Context, when non-nil, cancels the run cooperatively: evaluation
	// polls it alongside the step/time budget and aborts with an error
	// matching Context.Err() (errors.Is(err, context.Canceled) or
	// context.DeadlineExceeded). Cancellation discards pending updates
	// like any other failed run.
	Context context.Context
	// ContextItem is the initial focus (e.g. the page document in the
	// browser: paper §4.2.3 "the document in browser:self() is the
	// context item").
	ContextItem xdm.Item
	// AmbientFocus additionally makes ContextItem the focus inside user
	// function bodies (the browser host's processing model).
	AmbientFocus bool
	// Docs resolves fn:doc calls. Nil falls back to the engine's
	// WithDocResolver default (if any).
	Docs runtime.DocResolver
	// Collections resolves fn:collection calls. Nil falls back to the
	// engine's WithCollectionResolver default.
	Collections runtime.CollectionResolver
	// CollectionsIter is the streaming fn:collection source (preferred
	// by the streaming evaluator when set). Nil falls back to the
	// engine's WithCollectionIterResolver default.
	CollectionsIter runtime.CollectionIterResolver
	// Hooks provides the browser extension points.
	Hooks runtime.Hooks
	// Variables are external variable bindings.
	Variables map[dom.QName]xdm.Sequence
	// Sequential enables scripting snapshot semantics: pending updates
	// apply after every statement. When false, updates apply once at the
	// end of the run (pure XQuery Update semantics).
	Sequential bool
	// OnUpdate is called for each applied update primitive.
	OnUpdate func(update.Primitive)
	// Now fixes the evaluation's current dateTime (defaults to
	// time.Now).
	Now time.Time
	// Profiler, when non-nil, collects per-expression evaluation
	// statistics (the §7 "performance profiler" tooling).
	Profiler *runtime.Profiler
	// MaxSteps bounds the evaluation steps (expression evaluations plus
	// streamed items) of this run; <= 0 is unlimited. Exceeding it
	// fails the run with an error matching ErrBudgetExceeded.
	MaxSteps int64
	// Timeout bounds the run's wall-clock time; <= 0 is unlimited.
	Timeout time.Duration
	// DisableStreaming forces eager materializing evaluation
	// everywhere (the pre-iterator behaviour); used as a benchmark
	// baseline and as an escape hatch.
	DisableStreaming bool
	// DisableIndexes turns off the per-document indexes for this run:
	// planned path steps scan the axis, fn:id walks the tree and
	// document-order sorts use the comparison path. It is the scan
	// baseline in benchmarks and the oracle side of the index
	// differential tests.
	DisableIndexes bool
	// Strict runs the static analyzer before evaluation: error-severity
	// diagnostics abort the run with an *AnalysisError (matching
	// ErrAnalysisFailed) before any expression evaluates, and the
	// remaining warnings are attached to Result.Diagnostics. Under
	// Cache.EvalQuery, Strict additionally keeps rejected programs out
	// of the program cache.
	Strict bool
	// DisableOptimize walks the parsed module and function bodies
	// instead of the optimizer's rewrites (no folds, pushdowns,
	// hoisting or hash joins). It is the benchmark baseline and the
	// oracle side of the optimizer differential tests, like
	// DisableIndexes for the indexes.
	DisableOptimize bool
}

// applyPUL applies a pending update list atomically. eliminate switches
// the observability-gated dead-update elimination: only the final
// apply of a fresh, non-sequential Run whose result and external
// variables carry no node items may set it (see finishRun), because
// elimination changes the state of detached subtrees.
func (cfg *RunConfig) applyPUL(pul *update.PUL, onChange func(update.Primitive), eliminate bool) error {
	eliminated, err := pul.ApplyEliminate(onChange, eliminate)
	if cfg.Profiler != nil {
		cfg.Profiler.AddUpdates("eliminated", int64(eliminated))
	}
	return err
}

// ErrBudgetExceeded matches (via errors.Is) the error returned when a
// run exceeds its MaxSteps or Timeout budget.
var ErrBudgetExceeded = runtime.ErrBudgetExceeded

// ErrNoResolver matches a module import attempted with no resolver
// installed; ErrUnknownFunction matches a call to an undeclared
// function.
var (
	ErrNoResolver      = runtime.ErrNoResolver
	ErrUnknownFunction = runtime.ErrUnknownFunction
)

// Result is the outcome of an evaluation.
type Result struct {
	Value xdm.Sequence
	// Updates counts the update primitives applied during the run.
	Updates int
	// Diagnostics holds the analyzer's warnings when the run was
	// Strict (errors never reach a Result — they abort the run).
	Diagnostics []Diagnostic
}

// NewContext prepares a reusable evaluation context (the browser host
// keeps one per page so listener invocations share global state).
func (p *Program) NewContext(cfg RunConfig) *runtime.Context {
	ctx := runtime.NewContext(p.prog)
	ctx.Item = cfg.ContextItem
	if cfg.ContextItem != nil {
		ctx.Pos, ctx.Size = 1, 1
	}
	if cfg.AmbientFocus {
		ctx.Ambient = cfg.ContextItem
	}
	ctx.Profiler = cfg.Profiler
	ctx.Budget = runtime.NewBudgetContext(cfg.Context, cfg.MaxSteps, cfg.Timeout)
	ctx.IO = cfg.Context
	ctx.NoStream = cfg.DisableStreaming
	ctx.NoIndex = cfg.DisableIndexes
	ctx.NoOptimize = cfg.DisableOptimize
	ctx.Docs = cfg.Docs
	ctx.Collections = cfg.Collections
	ctx.CollectionsIter = cfg.CollectionsIter
	// Engine-level defaults (a bound store) fill whatever the run left
	// unset.
	if ctx.Docs == nil {
		ctx.Docs = p.engine.docs
	}
	if ctx.Collections == nil {
		ctx.Collections = p.engine.collections
	}
	if ctx.CollectionsIter == nil {
		ctx.CollectionsIter = p.engine.collectionsIter
	}
	ctx.Hooks = cfg.Hooks
	if !cfg.Now.IsZero() {
		ctx.Now = cfg.Now
	}
	for name, val := range cfg.Variables {
		ctx.Bind(name, val)
	}
	if cfg.Sequential {
		ctx.SnapshotApply = func(pul *update.PUL) error {
			return cfg.applyPUL(pul, cfg.OnUpdate, false)
		}
	}
	return ctx
}

// Run evaluates the module body (after initialising globals) and applies
// any pending updates.
func (p *Program) Run(cfg RunConfig) (*Result, error) {
	var diags []Diagnostic
	if cfg.Strict {
		ares := analysis.Analyze(p.prog.Module, p.engine.analysisConfig(cfg.MaxSteps))
		if ares.HasErrors() {
			return nil, &AnalysisError{Diagnostics: ares.Diagnostics}
		}
		diags = ares.Diagnostics
	}
	ctx := p.NewContext(cfg)
	if cfg.Profiler != nil && !cfg.DisableOptimize {
		st := p.RewriteStats()
		cfg.Profiler.AddRewrites("fold", int64(st.Folds))
		cfg.Profiler.AddRewrites("pushdown", int64(st.Pushdowns))
		cfg.Profiler.AddRewrites("hoist", int64(st.Hoists))
		cfg.Profiler.AddRewrites("join", int64(st.Joins))
	}
	res, err := finishRun(ctx, cfg, ctx.Run, true)
	if err != nil {
		return nil, err
	}
	res.Diagnostics = diags
	return res, nil
}

// RunWith evaluates using a prepared context (listener dispatch path).
// The context is reused across calls, so dead-update elimination stays
// off: earlier calls may have handed out node references the host
// still holds.
func RunWith(ctx *runtime.Context, cfg RunConfig, name dom.QName, args []xdm.Sequence) (*Result, error) {
	return finishRun(ctx, cfg, func() (xdm.Sequence, error) {
		return ctx.CallFunction(name, args)
	}, false)
}

// finishRun evaluates and applies pending updates behind the engine's
// panic-isolation boundary: a panic anywhere in evaluation or PUL
// application recovers into an error matching xqerr.ErrInternal
// instead of unwinding into the host.
func finishRun(ctx *runtime.Context, cfg RunConfig, eval func() (xdm.Sequence, error), fresh bool) (res *Result, err error) {
	defer xqerr.RecoverInto(&err, "xquery.Run")
	applied := 0
	count := func(pr update.Primitive) {
		applied++
		if cfg.OnUpdate != nil {
			cfg.OnUpdate(pr)
		}
	}
	if cfg.Sequential {
		ctx.SnapshotApply = func(pul *update.PUL) error { return cfg.applyPUL(pul, count, false) }
	}
	val, err := eval()
	if err != nil {
		return nil, err
	}
	if ctx.PUL != nil && !ctx.PUL.Empty() {
		// Dead-update elimination only changes the state of detached
		// subtrees, so it is gated on nothing observing them after the
		// run: a fresh (non-reused) context, snapshot semantics off,
		// and no node items escaping through the result value or in via
		// external variable bindings.
		eliminate := fresh && !cfg.Sequential &&
			!seqHasNodes(val) && !varsHaveNodes(cfg.Variables)
		if err := cfg.applyPUL(ctx.PUL, count, eliminate); err != nil {
			return nil, err
		}
	}
	return &Result{Value: val, Updates: applied}, nil
}

// seqHasNodes reports whether any item of s is a node.
func seqHasNodes(s xdm.Sequence) bool {
	for _, it := range s {
		if _, ok := xdm.IsNode(it); ok {
			return true
		}
	}
	return false
}

// varsHaveNodes reports whether any external variable binding carries a
// node item.
func varsHaveNodes(vars map[dom.QName]xdm.Sequence) bool {
	for _, s := range vars {
		if seqHasNodes(s) {
			return true
		}
	}
	return false
}

// EvalQuery is a convenience: compile and run a query against an
// optional context document.
func (e *Engine) EvalQuery(src string, contextDoc *dom.Node) (xdm.Sequence, error) {
	return e.EvalQueryContext(context.Background(), src, contextDoc)
}

// EvalQueryContext is EvalQuery with cooperative cancellation: the run
// aborts (with an error matching ctx.Err()) when ctx is cancelled or
// its deadline passes. It is a panic-isolation boundary: compile- or
// run-time panics come back as errors matching xqerr.ErrInternal.
func (e *Engine) EvalQueryContext(ctx context.Context, src string, contextDoc *dom.Node) (seq xdm.Sequence, err error) {
	defer xqerr.RecoverInto(&err, "xquery.EvalQuery")
	p, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Sequential: true, Context: ctx}
	if contextDoc != nil {
		cfg.ContextItem = xdm.NewNode(contextDoc)
	}
	res, err := p.Run(cfg)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// FormatSequence renders a sequence the way cmd/xq prints results:
// nodes serialized as XML, atomics by their lexical form, separated by
// spaces.
func FormatSequence(s xdm.Sequence, serialize func(*dom.Node) string) string {
	parts := make([]string, len(s))
	for i, it := range s {
		if n, ok := xdm.IsNode(it); ok {
			parts[i] = serialize(n)
		} else {
			parts[i] = it.String()
		}
	}
	return joinNonEmpty(parts)
}

func joinNonEmpty(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}

// Err formats an error chain for user display.
func Err(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprintf("%v", err)
}
