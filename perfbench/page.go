package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/markup"
	"repro/internal/serve"
	"repro/internal/xquery"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// page_session: the paper's browser user. Sessions arrive open-loop on
// a seeded Poisson schedule; each loads a page from the mix, clicks
// clicksPerSession times (each click waits for the previous one), is
// checked and closes.

// maxInFlight bounds concurrently running sessions; an arrival beyond
// it waits in the generator, which shows as generator lag.
const maxInFlight = 256

const pageHref = "http://bench.example.com/page.html"

// warmSessions is how many sessions set-up runs before measuring.
const warmSessions = 200

type pageFixture struct {
	seed  uint64
	p     *serve.Pool
	pages [numPageKinds]string
}

func setupPage(rc runConfig) (fixture, error) {
	products, err := apps.NewProductStore()
	if err != nil {
		return nil, err
	}
	cart, err := apps.RenderShoppingCartXQuery(products)
	if err != nil {
		return nil, fmt.Errorf("rendering the cart page: %w", err)
	}
	f := &pageFixture{seed: rc.seed, p: serve.NewPool(serve.Config{MaxSessions: 64})}
	f.pages = [numPageKinds]string{counterPage(10), counterPage(100), counterPage(1000), apps.MultiplicationPage(), cart}
	// Warm up: warmSessions checked sessions, one after another, on
	// inputs drawn from a seed the measured phase does not use.
	rec := newRecorder(nil)
	warm := genSessions(^rc.seed, 1)
	for i := range warm[:min(len(warm), warmSessions)] {
		f.session(context.Background(), rec, &warm[i], time.Now())
	}
	if rec.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up session failed: %s", rec.errs[0])
	}
	return f, nil
}

func (f *pageFixture) pool() *serve.Pool { return f.p }

func (f *pageFixture) close() { f.p.Shutdown(context.Background()) }

func (f *pageFixture) drive(ctx context.Context, rec *recorder, d time.Duration) {
	sessions := genSessions(f.seed, d.Seconds())
	dues := make([]time.Duration, len(sessions))
	for i, s := range sessions {
		dues[i] = s.due
	}
	openLoop(rec, dues, maxInFlight, func(i int, due time.Time) {
		f.session(ctx, rec, &sessions[i], due)
	})
}

// openLoop releases arrival i at start+dues[i], whatever the state of
// earlier arrivals, runs it on its own goroutine with at most limit
// running, and returns when all have finished. It records how late
// each arrival was released; run gets the due time, from which the
// op's latency is measured.
func openLoop(rec *recorder, dues []time.Duration, limit int, run func(i int, due time.Time)) {
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range dues {
		due := start.Add(dues[i])
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		rec.lag(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			run(i, due)
		}()
	}
	wg.Wait()
}

// session runs one user session. The load is timed from its due time;
// a mismatch found by the final check fails the session's last turn.
func (f *pageFixture) session(ctx context.Context, rec *recorder, s *session, due time.Time) {
	tr := rec.tr
	op := rec.newOp()
	var sess *serve.Session
	err := tr.run("op.load", op, 0, func(id int64) error {
		return tr.run("serve.load", op, id, func(int64) error {
			var err error
			sess, err = f.p.Load(ctx, f.pages[s.kind], pageHref)
			return err
		})
	})
	rec.done(mainOp, time.Since(due), err)
	if err != nil {
		return
	}
	defer sess.Close()
	t := sess.Host().Times
	tr.sample("core.init", us(t.InitPlugin))
	tr.sample("core.compile", us(t.CompileScripts))
	tr.sample("core.run_main", us(t.RunMain))
	rec.keep(op, mainOp, s.kind)
	want := expectSession(*s)
	for k, c := range s.clicks {
		op := rec.newOp()
		t0 := time.Now()
		err := tr.run("op.turn", op, 0, func(id int64) error {
			return tr.run("serve.click", op, id, func(int64) error {
				return sess.Do(ctx, func(h *core.Host) error { return turn(tr, h, c) })
			})
		})
		d := time.Since(t0)
		if err == nil && k == len(s.clicks)-1 {
			err = sess.Do(ctx, func(h *core.Host) error { return checkPage(h.Page, s.kind, want) })
		}
		rec.done(sideOp, d, err)
		if err != nil {
			return
		}
	}
}

// turn is one click: type the size first when the click carries one.
func turn(tr *tracer, h *core.Host, c click) error {
	if c.size > 0 {
		h.Page.ElementByID("size").SetAttr(dom.Name("value"), strconv.Itoa(c.size))
	}
	before := h.Times.DispatchTotal
	err := h.Click(c.target)
	tr.sample("core.dispatch", us(h.Times.DispatchTotal-before))
	return err
}

// checkPage compares the page with what the session's clicks must
// have produced.
func checkPage(page *dom.Node, kind int, want sessionWant) error {
	switch kind {
	case pageMult:
		var cells, lit []string
		for _, td := range page.Elements("td") {
			cells = append(cells, td.StringValue())
			if strings.Contains(td.AttrValue("style"), "background-color: yellow") {
				lit = append(lit, td.AttrValue("id"))
			}
		}
		sort.Strings(lit)
		if !slices.Equal(cells, want.cells) {
			return fmt.Errorf("mult: %d cells %v, want %d", len(cells), head(cells), len(want.cells))
		}
		if !slices.Equal(lit, want.highlighted) {
			return fmt.Errorf("mult: highlighted %v, want %v", lit, want.highlighted)
		}
	case pageCart:
		var cart []string
		for _, p := range page.ElementByID("shoppingcart").Children() {
			if p.Type == dom.ElementNode && p.Name.Local == "p" {
				cart = append(cart, p.StringValue())
			}
		}
		if !slices.Equal(cart, want.cart) {
			return fmt.Errorf("cart %v, want %v", cart, want.cart)
		}
	default:
		if got := page.ElementByID("count").StringValue(); got != strconv.Itoa(want.count) {
			return fmt.Errorf("counter %s, want %d", got, want.count)
		}
	}
	return nil
}

func head(xs []string) []string { return xs[:min(len(xs), 4)] }

// replay runs a loaded page through the markup parser, the XQuery
// parser and compiler (each page script) and the path-index build.
func (f *pageFixture) replay(tr *tracer, in replayInput) {
	src := f.pages[in.input.(int)]
	tr.run(spanReplay, in.op, 0, func(root int64) error {
		var doc *dom.Node
		if err := tr.run("markup.parse", in.op, root, func(int64) error {
			var err error
			doc, err = markup.ParseHTML(src)
			return err
		}); err != nil {
			return err
		}
		e := xquery.New()
		for _, script := range core.ExtractScripts(doc) {
			replayCompile(tr, in.op, root, e, script)
		}
		return tr.run("index.build", in.op, root, func(int64) error {
			index.For(doc)
			return nil
		})
	})
}

// replayCompile parses and compiles src as spans, recording the
// program's rewrite count; it returns the program (nil on error).
func replayCompile(tr *tracer, op, parent int64, e *xquery.Engine, src string) *xquery.Program {
	var m *ast.Module
	if err := tr.run("parser.parse", op, parent, func(int64) error {
		var err error
		m, err = parser.ParseModule(src)
		return err
	}); err != nil {
		return nil
	}
	var prog *xquery.Program
	if err := tr.run("xquery.compile", op, parent, func(int64) error {
		var err error
		prog, err = e.CompileModule(m)
		return err
	}); err != nil {
		return nil
	}
	rs := prog.RewriteStats()
	tr.sample("plan.rewrites", float64(rs.Folds+rs.Pushdowns+rs.Hoists+rs.Joins))
	return prog
}

func (f *pageFixture) finish(*recorder) {}

// layers: a load is generator lag, markup parse and the core stages;
// every turn applies one pending update list.
func (f *pageFixture) layers(l *layerSet) {
	l.applies = float64(len(l.ph.rec.lat[sideOp]))
	l.attributed = us(summarize(l.ph.rec.genLag).p50)
	for _, n := range []string{"markup.parse", "core.init", "core.compile", "core.run_main"} {
		l.attributed += l.time(n)
	}
}
