// Package core is the paper's contribution: the XQIB plug-in host that
// makes XQuery a browser programming language. It implements the
// pipeline of Figure 1:
//
//  1. the browser receives an (X)HTML document and parses it into a DOM;
//  2. the plug-in initialises and extracts the XQuery scripts from
//     <script type="text/xquery"> tags;
//  3. the engine is called with the prolog followed by the main query,
//     which typically registers event listeners (via the §4.3 grammar);
//  4. the plug-in listens for browser events and, for each, calls the
//     engine with the corresponding listener; pending updates are applied
//     to the live DOM, which the engine's data model wraps directly.
//
// JavaScript-style scripts (internal/jsruntime) co-exist: they register
// listeners on the same DOM before the XQuery main runs — "currently,
// JavaScript is executed first, then XQuery" (§4.1) — and a single
// dispatch serialises handlers from both languages (§6.2).
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
	"repro/internal/xquery/update"
)

// ScriptTypes are the MIME types the plug-in executes. "text/xqueryp"
// marks scripting-extension programs (paper §6.3 uses it).
var ScriptTypes = map[string]bool{"text/xquery": true, "text/xqueryp": true}

// StageTimes instruments the Figure-1 pipeline for experiment E1.
type StageTimes struct {
	ParsePage      time.Duration
	InitPlugin     time.Duration
	CompileScripts time.Duration
	RunMain        time.Duration
	Dispatches     int
	DispatchTotal  time.Duration
}

// Option configures a Host.
type Option func(*Host)

// WithJSSetup registers a JavaScript-style setup function that runs
// against the page DOM before the XQuery scripts (the browser executes
// JavaScript first, §4.1). Use it to install co-resident imperative
// handlers (internal/jsruntime).
func WithJSSetup(setup func(page *dom.Node)) Option {
	return func(h *Host) { h.jsSetups = append(h.jsSetups, setup) }
}

// WithModuleResolver forwards a module-import resolver to the engine
// (the REST substrate's web-service proxies, §3.4).
func WithModuleResolver(r runtime.ModuleResolver) Option {
	return func(h *Host) { h.resolver = r }
}

// WithPageLoader sets the navigation loader (location changes and
// history moves fetch pages through it).
func WithPageLoader(l browser.PageLoader) Option {
	return func(h *Host) { h.loader = l }
}

// WithPolicy overrides the same-origin security policy.
func WithPolicy(p browser.SecurityPolicy) Option {
	return func(h *Host) { h.policy = p }
}

// WithNavigator overrides the navigator identity (the paper's §4.2.4
// example branches on browser:navigator()/appName).
func WithNavigator(n browser.NavigatorInfo) Option {
	return func(h *Host) { h.navigator = &n }
}

// WithExtraFunctions registers additional built-ins (e.g. rest:get).
func WithExtraFunctions(register func(*runtime.Registry)) Option {
	return func(h *Host) { h.extraFns = append(h.extraFns, register) }
}

// WithBrowserSetup runs a configuration callback against the browser
// state after it is created but before any script executes (queueing
// prompt answers, adding frames, adjusting the screen).
func WithBrowserSetup(setup func(*browser.Browser)) Option {
	return func(h *Host) { h.browserSetups = append(h.browserSetups, setup) }
}

// WithProgramCache compiles the page's scripts through a shared
// program cache, so sessions loading the same page skip the parse (and,
// on the same engine, the compile). The serving layer installs the
// pool-wide cache here.
func WithProgramCache(c *xquery.Cache) Option {
	return func(h *Host) { h.cache = c }
}

// WithQueryBudget bounds every query evaluation on this page — the
// inline scripts at load time and each event-listener invocation gets
// a fresh budget of maxSteps evaluation steps (<= 0: unlimited) and
// timeout wall-clock time (<= 0: unlimited). A query that exceeds its
// budget fails with an error matching xquery.ErrBudgetExceeded and its
// pending updates are discarded, so a runaway listener cannot freeze
// the page or leave the DOM half-modified.
func WithQueryBudget(maxSteps int64, timeout time.Duration) Option {
	return func(h *Host) {
		h.maxQuerySteps = maxSteps
		h.queryTimeout = timeout
	}
}

// WithStoreResolvers binds a document store's resolvers to the page's
// engines: fn:doc and fn:collection read through them by default, and
// the §4.2.1 browser profile (which blocks those functions against
// arbitrary network fetch) is not applied — a host-provided store is
// trusted storage, not the open network. fn:put stays blocked
// unconditionally. The xqib facade's WithStore wires a *xmldb.Store
// through this.
func WithStoreResolvers(docs runtime.DocResolver, cols runtime.CollectionResolver,
	colsIter runtime.CollectionIterResolver) Option {
	return func(h *Host) {
		h.storeDocs, h.storeCols, h.storeColsIter = docs, cols, colsIter
	}
}

// Host is a loaded page with its executing plug-in.
type Host struct {
	Browser *browser.Browser
	Window  *browser.Window
	Engine  *xquery.Engine
	Page    *dom.Node
	Times   StageTimes

	programs      []*pageProgram
	jsSetups      []func(*dom.Node)
	resolver      runtime.ModuleResolver
	loader        browser.PageLoader
	policy        browser.SecurityPolicy
	navigator     *browser.NavigatorInfo
	extraFns      []func(*runtime.Registry)
	browserSetups []func(*browser.Browser)
	storeDocs     runtime.DocResolver
	storeCols     runtime.CollectionResolver
	storeColsIter runtime.CollectionIterResolver
	cache         *xquery.Cache
	ctx           context.Context
	maxQuerySteps int64
	queryTimeout  time.Duration

	mu          sync.Mutex
	queue       []func() error
	outstanding int
	asyncErrs   []error
	updateCount int
}

type pageProgram struct {
	prog *xquery.Program
	ctx  *runtime.Context
}

// LoadPage parses an XHTML page, boots the plug-in, runs JavaScript
// setups and then every XQuery script, and returns the live host.
func LoadPage(pageSrc, href string, opts ...Option) (*Host, error) {
	return LoadPageContext(context.Background(), pageSrc, href, opts...)
}

// LoadPageContext is LoadPage with cooperative cancellation: ctx covers
// the page-load scripts and every later listener invocation on this
// host, so cancelling it aborts in-flight queries (with an error
// matching ctx.Err()) instead of waiting out their wall-clock budgets.
// It is a panic-isolation boundary: a panic anywhere in parsing,
// compilation or the page-load scripts comes back as an error matching
// xqerr.ErrInternal with no partially built host.
func LoadPageContext(ctx context.Context, pageSrc, href string, opts ...Option) (h *Host, err error) {
	defer xqerr.RecoverInto(&err, "core.LoadPage")
	return loadPage(ctx, pageSrc, href, opts...)
}

func loadPage(ctx context.Context, pageSrc, href string, opts ...Option) (*Host, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h := &Host{ctx: ctx}
	for _, o := range opts {
		o(h)
	}

	// Stage 1: parse the page, build the DOM.
	t0 := time.Now()
	page, err := markup.ParseHTML(pageSrc)
	if err != nil {
		return nil, fmt.Errorf("core: parsing page: %w", err)
	}
	h.Page = page
	h.Times.ParsePage = time.Since(t0)

	// Stage 2: initialise the plug-in — browser state, engine, script
	// extraction.
	t0 = time.Now()
	b, err := browser.New(href, page)
	if err != nil {
		return nil, err
	}
	if h.policy != nil {
		b.Policy = h.policy
	}
	if h.navigator != nil {
		b.Nav = *h.navigator
	}
	b.Loader = h.loader
	h.Browser = b
	h.Window = b.Top()
	for _, setup := range h.browserSetups {
		setup(b)
	}

	h.Engine = xquery.New(h.engineOptions(h.Window)...)
	scripts := ExtractScripts(page)
	h.Times.InitPlugin = time.Since(t0)

	// JavaScript runs first (§4.1).
	for _, setup := range h.jsSetups {
		setup(page)
	}

	// Stage 3: compile each script's prolog + main.
	t0 = time.Now()
	for _, src := range scripts {
		prog, err := h.compile(h.Engine, src)
		if err != nil {
			return nil, fmt.Errorf("core: compiling page script: %w", err)
		}
		ctx := prog.NewContext(h.runConfig())
		h.programs = append(h.programs, &pageProgram{prog: prog, ctx: ctx})
	}
	h.Times.CompileScripts = time.Since(t0)

	// Stage 4: run the main query of each script (this registers the
	// listeners), then fall back to the local:main() convention of §5.1.
	t0 = time.Now()
	for _, pp := range h.programs {
		if err := h.runMain(pp); err != nil {
			return nil, err
		}
	}
	h.Times.RunMain = time.Since(t0)

	// The page has loaded: fire the load event at the document.
	h.Dispatch(&dom.Event{Type: "load", Bubbles: false}, page)
	return h, nil
}

// LoadFrame loads a page into a new child frame of the current window:
// the frame gets its own document, its own scripts run with the frame
// as browser:self(), and it becomes visible to the parent's scripts
// through browser:top()//window[@name=...] (paper §4.2.1/§4.2.3 —
// subject to the same-origin policy).
func (h *Host) LoadFrame(name, pageSrc, href string) (*browser.Window, error) {
	page, err := markup.ParseHTML(pageSrc)
	if err != nil {
		return nil, fmt.Errorf("core: parsing frame page: %w", err)
	}
	loc, err := browser.ParseLocation(href)
	if err != nil {
		return nil, err
	}
	frame := &browser.Window{Name: name, Location: loc, Document: page}
	page.BaseURI = href
	h.Window.AddFrame(frame)

	// The frame's scripts execute with the frame as self and the frame
	// document as (ambient) context item.
	frameEngine := xquery.New(h.engineOptions(frame)...)
	for _, src := range ExtractScripts(page) {
		prog, err := h.compile(frameEngine, src)
		if err != nil {
			return nil, fmt.Errorf("core: compiling frame script: %w", err)
		}
		cfg := h.runConfig()
		cfg.ContextItem = xdm.NewNode(page)
		ctx := prog.NewContext(cfg)
		pp := &pageProgram{prog: prog, ctx: ctx}
		h.programs = append(h.programs, pp)
		if err := h.runMain(pp); err != nil {
			return nil, err
		}
	}
	h.Dispatch(&dom.Event{Type: "load", Bubbles: false}, page)
	return frame, nil
}

// ExtractScripts returns the text of every XQuery script tag on a page,
// in document order.
func ExtractScripts(page *dom.Node) []string {
	var out []string
	page.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n.Name.Local == "script" &&
			ScriptTypes[strings.ToLower(n.AttrValue("type"))] {
			out = append(out, n.StringValue())
		}
		return true
	})
	return out
}

// engineOptions builds the engine configuration for a page or frame
// window. Without a bound store the §4.2.1 browser profile applies
// (fn:doc / fn:put blocked); with one, fn:doc and fn:collection route
// to the store's resolvers instead — trusted storage replaces the
// blocked open-network fetch, while fn:put stays blocked in funclib
// unconditionally.
func (h *Host) engineOptions(win *browser.Window) []xquery.Option {
	opts := []xquery.Option{
		xquery.WithFunctions(func(reg *runtime.Registry) {
			browser.RegisterFunctions(reg, h.Browser, win)
		}),
		// The §5.1 high-order-function registration route, alongside the
		// §4.3 grammar (ablation E8).
		xquery.WithFunctions(h.registerHOFEventAPI),
	}
	if h.storeDocs == nil && h.storeCols == nil && h.storeColsIter == nil {
		opts = append(opts, xquery.WithBrowserProfile())
	} else {
		if h.storeDocs != nil {
			opts = append(opts, xquery.WithDocResolver(h.storeDocs))
		}
		if h.storeCols != nil {
			opts = append(opts, xquery.WithCollectionResolver(h.storeCols))
		}
		if h.storeColsIter != nil {
			opts = append(opts, xquery.WithCollectionIterResolver(h.storeColsIter))
		}
	}
	for _, reg := range h.extraFns {
		opts = append(opts, xquery.WithFunctions(reg))
	}
	if h.resolver != nil {
		opts = append(opts, xquery.WithModuleResolver(h.resolver))
	}
	return opts
}

// compile routes a script through the shared program cache when one is
// installed.
func (h *Host) compile(e *xquery.Engine, src string) (*xquery.Program, error) {
	if h.cache != nil {
		return h.cache.Compile(e, src)
	}
	return e.Compile(src)
}

func (h *Host) runConfig() xquery.RunConfig {
	return xquery.RunConfig{
		Context:      h.ctx,
		ContextItem:  xdm.NewNode(h.Page),
		AmbientFocus: true,
		Hooks:        &hostHooks{h: h},
		Sequential:   true,
		OnUpdate:     h.onUpdate,
		MaxSteps:     h.maxQuerySteps,
		Timeout:      h.queryTimeout,
	}
}

func (h *Host) runMain(pp *pageProgram) error {
	if err := pp.ctx.InitGlobals(); err != nil {
		return err
	}
	if body := pp.ctx.Body(); body != nil {
		if _, err := h.finish(pp.ctx, func() (xdm.Sequence, error) {
			return pp.ctx.Eval(body)
		}); err != nil {
			return fmt.Errorf("core: running page script: %w", err)
		}
	}
	// §5.1: "the code executed when the page is loaded is put in a
	// function local:main()".
	mainName := dom.QName{Space: "http://www.w3.org/2005/xquery-local-functions", Local: "main"}
	if pp.prog.Runtime().Reg.Lookup(mainName, 0) != nil {
		if _, err := h.finish(pp.ctx, func() (xdm.Sequence, error) {
			return pp.ctx.CallFunction(mainName, nil)
		}); err != nil {
			return fmt.Errorf("core: running local:main(): %w", err)
		}
	}
	return nil
}

// finish evaluates with scripting snapshots and applies any remaining
// pending updates, routing window-tree write-backs to the browser. It
// is the host's evaluation boundary: a panicking query or listener
// recovers into an error matching xqerr.ErrInternal, and a mid-apply
// update failure rolls the page back (the apply is atomic), so the
// host survives both with a consistent DOM. Dead-update elimination
// stays off: the host keeps long-lived references into the page tree
// (listener targets, the window tree), so detached subtrees stay
// exactly as the serial order leaves them.
func (h *Host) finish(ctx *runtime.Context, eval func() (xdm.Sequence, error)) (val xdm.Sequence, err error) {
	defer xqerr.RecoverInto(&err, "core.Host.finish")
	applyBatch := func(pul *update.PUL) error { return pul.Apply(h.onUpdate) }
	ctx.SnapshotApply = applyBatch
	val, err = eval()
	if err != nil {
		return nil, err
	}
	if ctx.PUL != nil && !ctx.PUL.Empty() {
		if err := applyBatch(ctx.PUL); err != nil {
			return nil, err
		}
	}
	return val, nil
}

// onUpdate observes every applied update primitive: window-tree writes
// are routed back to browser state (status, location navigation), and
// the mutation count drives the re-render accounting.
func (h *Host) onUpdate(pr update.Primitive) {
	h.mu.Lock()
	h.updateCount++
	h.mu.Unlock()
	if handled, err := h.Browser.ApplyUpdate(pr); handled && err != nil {
		h.recordAsyncErr(fmt.Errorf("core: window update: %w", err))
	}
}

// UpdateCount returns the number of DOM/BOM update primitives applied
// since the page loaded.
func (h *Host) UpdateCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.updateCount
}

// --- event dispatch ------------------------------------------------------------

// Dispatch sends an event through the DOM (capture/target/bubble);
// listeners from every language run in registration order. It then
// drains the completion queue so asynchronous results that arrived
// during handling are delivered (the browser's event serialisation,
// §6.2).
func (h *Host) Dispatch(ev *dom.Event, target *dom.Node) bool {
	t0 := time.Now()
	h.Browser.ResetViews()
	ok := target.DispatchEvent(ev)
	h.Times.Dispatches++
	h.Times.DispatchTotal += time.Since(t0)
	h.drain()
	return ok
}

// Click dispatches a bubbling left-button click at the element with the
// given id.
func (h *Host) Click(id string) error {
	el := h.Page.ElementByID(id)
	if el == nil {
		return fmt.Errorf("core: no element with id %q", id)
	}
	h.Dispatch(&dom.Event{Type: "click", Bubbles: true, Cancelable: true, Button: 1}, el)
	return nil
}

// Keyup dispatches a keyup event carrying the key at the element with
// the given id.
func (h *Host) Keyup(id, key string) error {
	el := h.Page.ElementByID(id)
	if el == nil {
		return fmt.Errorf("core: no element with id %q", id)
	}
	h.Dispatch(&dom.Event{Type: "keyup", Bubbles: true, Key: key}, el)
	return nil
}

// --- asynchronous completion queue (behind-calls, §4.4) ------------------------

func (h *Host) post(fn func() error) {
	h.mu.Lock()
	h.queue = append(h.queue, fn)
	h.mu.Unlock()
}

func (h *Host) recordAsyncErr(err error) {
	h.mu.Lock()
	h.asyncErrs = append(h.asyncErrs, err)
	h.mu.Unlock()
}

// drain runs queued completions on the caller's goroutine (the
// browser's single event-loop thread).
func (h *Host) drain() {
	for {
		h.mu.Lock()
		if len(h.queue) == 0 {
			h.mu.Unlock()
			return
		}
		fn := h.queue[0]
		h.queue = h.queue[1:]
		h.mu.Unlock()
		if err := fn(); err != nil {
			h.recordAsyncErr(err)
		}
	}
}

// WaitIdle blocks until all asynchronous calls have completed and their
// completions have been delivered, or the timeout elapses. It returns
// any asynchronous errors collected.
func (h *Host) WaitIdle(timeout time.Duration) []error {
	deadline := time.Now().Add(timeout)
	for {
		h.drain()
		h.mu.Lock()
		idle := h.outstanding == 0 && len(h.queue) == 0
		h.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			h.recordAsyncErr(fmt.Errorf("core: WaitIdle timed out after %s", timeout))
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	errs := h.asyncErrs
	h.asyncErrs = nil
	return errs
}

// Alerts returns the alert messages raised so far.
func (h *Host) Alerts() []string { return append([]string(nil), h.Browser.Alerts...) }

// SerializePage renders the current page DOM as HTML.
func (h *Host) SerializePage() string { return markup.SerializeHTML(h.Page) }
