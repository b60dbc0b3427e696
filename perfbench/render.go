package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/dom/index"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/serve"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// render_query: the §6.1 server-side app server. Two closed-loop
// clients run Pool.Eval over an ephemeral store holding the scaled
// Reference 2.0 corpus: page views of Zipf-popular ids with the id
// inlined (main) and analytic scans, searches and joins (side).

// renderWarmOps is how many ops each client runs in set-up.
const renderWarmOps = 500

type renderFixture struct {
	in    *renderInputs
	store *xmldb.Store
	p     *serve.Pool
}

// loadCorpus stores the catalog and every article of c in st.
func loadCorpus(st *xmldb.Store, c *corpus) error {
	for _, vol := range c.volumes {
		if err := st.CreateCollection(volumeCollection(vol)); err != nil {
			return err
		}
	}
	if err := st.PutXML(catalogURI, c.catalogXML()); err != nil {
		return err
	}
	for i := range c.articles {
		a := &c.articles[i]
		if err := st.PutXML(a.uri(), a.xml()); err != nil {
			return err
		}
	}
	return nil
}

func setupRender(rc runConfig) (fixture, error) {
	in := genRender(rc.seed)
	st, err := xmldb.Open("")
	if err != nil {
		return nil, err
	}
	if err := loadCorpus(st, in.corpus); err != nil {
		return nil, err
	}
	f := &renderFixture{in: in, store: st, p: serve.NewPool(serve.Config{Store: st})}
	// Warm up: one checked query per document and per volume, so
	// every index the workload probes is built, then the clients'
	// query mix, so the cache holds the popular texts.
	for _, i := range in.warm {
		if err := evalChecked(context.Background(), f.p, &in.queries[i]); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := warmLoop(f.p, in.queries, in.streams[:], renderWarmOps); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *renderFixture) pool() *serve.Pool { return f.p }

func (f *renderFixture) close() {
	f.p.Shutdown(context.Background())
	f.store.Close()
}

func (f *renderFixture) drive(ctx context.Context, rec *recorder, d time.Duration) {
	closedLoop(ctx, rec, f.p, f.in.queries, f.in.streams[:], time.Now().Add(d), math.MaxInt)
}

// closedLoop runs one client per stream until the deadline or until
// each client has run n ops; a client's next Pool.Eval starts when its
// previous one returned, and a client at the end of its stream starts
// it over.
func closedLoop(ctx context.Context, rec *recorder, p *serve.Pool, queries []query, streams [][]int, deadline time.Time, n int) {
	var wg sync.WaitGroup
	for _, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n && time.Now().Before(deadline); k++ {
				qi := st[k%len(st)]
				evalOp(ctx, rec, p, &queries[qi], qi)
			}
		}()
	}
	wg.Wait()
}

// warmLoop runs the last n ops of every client's stream, concurrently
// as the measured phase does, so the program cache and any adaptive
// state reach their steady state before timing starts. The measured
// phase starts at the head of the streams.
func warmLoop(p *serve.Pool, queries []query, streams [][]int, n int) error {
	tails := make([][]int, len(streams))
	for i, st := range streams {
		tails[i] = st[len(st)-n:]
	}
	rec := newRecorder(nil)
	closedLoop(context.Background(), rec, p, queries, tails, time.Now().Add(time.Hour), n)
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %s", rec.errs[0])
	}
	return nil
}

// evalOp is one timed, checked Pool.Eval op.
func evalOp(ctx context.Context, rec *recorder, p *serve.Pool, q *query, qi int) {
	tr := rec.tr
	op := rec.newOp()
	var seq xdm.Sequence
	t0 := time.Now()
	err := tr.run("op.eval", op, 0, func(id int64) error {
		return tr.run("serve.eval", op, id, func(sid int64) error {
			var err error
			seq, err = p.Eval(withTrace(ctx, op, sid), q.text, nil)
			return err
		})
	})
	d := time.Since(t0)
	if err == nil {
		err = check(seq, q)
	}
	rec.done(q.class, d, err)
	rec.keep(op, q.class, qi)
}

// evalChecked runs q outside any phase and checks the result.
func evalChecked(ctx context.Context, p *serve.Pool, q *query) error {
	seq, err := p.Eval(ctx, q.text, nil)
	if err != nil {
		return err
	}
	return check(seq, q)
}

// check compares a query result, serialized, with the expected value.
func check(seq xdm.Sequence, q *query) error {
	if len(seq) != 1 {
		return fmt.Errorf("%s query returned %d items, want 1", q.kind, len(seq))
	}
	got := seq[0].String()
	if n, ok := xdm.IsNode(seq[0]); ok {
		got = markup.Serialize(n)
	}
	if got != q.want {
		return fmt.Errorf("%s query: got %.200q, want %.200q", q.kind, got, q.want)
	}
	return nil
}

// replay re-runs a traced eval's query through the parser, compiler
// and a warm Program.Run, and builds fresh indexes for a document the
// query reads.
func (f *renderFixture) replay(tr *tracer, in replayInput) {
	q := &f.in.queries[in.input.(int)]
	tr.run(spanReplay, in.op, 0, func(root int64) error {
		replayEval(tr, in.op, root, f.p.Engine(), q, storeRunConfig(f.store))
		replayIndexes(tr, in.op, root, f.in.corpus, q, in.op)
		if q.class == sideOp {
			replayScan(tr, in.op, root, f.store, f.in.corpus.volumes[int(in.op)%len(f.in.corpus.volumes)])
		}
		return nil
	})
}

// storeRunConfig is the RunConfig Pool.Eval uses on a store-bound pool.
func storeRunConfig(st *xmldb.Store) func(context.Context) xquery.RunConfig {
	return func(ctx context.Context) xquery.RunConfig {
		return xquery.RunConfig{Context: ctx, Sequential: true, Docs: st.Resolver(),
			Collections: st.CollectionResolver(), CollectionsIter: st.CollectionIterResolver()}
	}
}

// replayEval compiles q and times a run of the warm program, recording
// its allocations.
func replayEval(tr *tracer, op, parent int64, e *xquery.Engine, q *query, cfgFor func(context.Context) xquery.RunConfig) {
	prog := replayCompile(tr, op, parent, e, q.text)
	if prog == nil {
		return
	}
	if _, err := prog.Run(cfgFor(context.Background())); err != nil {
		return
	}
	m0 := readMem()
	tr.run("runtime.eval", op, parent, func(id int64) error {
		_, err := prog.Run(cfgFor(withTrace(context.Background(), op, id)))
		return err
	})
	tr.sample("runtime.allocs", float64(readMem().Mallocs-m0.Mallocs))
}

// replayIndexes builds the path index, and for searches the full-text
// index, on a fresh copy of a document the query reads.
func replayIndexes(tr *tracer, op, parent int64, c *corpus, q *query, pick int64) {
	src := c.articles[int(pick)%len(c.articles)].xml()
	if q.kind == "issue" || q.kind == "join" {
		src = c.catalogXML()
	}
	doc, err := markup.Parse(src)
	if err != nil {
		return
	}
	tr.run("index.build", op, parent, func(int64) error {
		index.For(doc)
		return nil
	})
	if q.kind == "search" {
		tr.run("fulltext.build", op, parent, func(int64) error {
			ftindex.For(doc)
			return nil
		})
	}
}

// replayScan times a bare scan of one volume's collection.
func replayScan(tr *tracer, op, parent int64, st *xmldb.Store, vol string) {
	tr.run("xmldb.scan", op, parent, func(int64) error {
		return st.ScanCollection(volumeCollection(vol), func(string, *dom.Node) error { return nil })
	})
}

func (f *renderFixture) finish(*recorder) {}

// layers: a view eval is parse and compile on cache misses, the warm
// run, and index builds on stale documents.
func (f *renderFixture) layers(l *layerSet) {
	c := l.ph.cache
	l.attributed = l.time("parser.parse")*l.perOp(c.Parses) +
		l.time("xquery.compile")*l.perOp(c.Compiles) +
		l.classTime("runtime.eval", mainOp) +
		l.time("index.build")*l.perOp(l.ph.ctr.index.Builds) +
		l.time("fulltext.build")*l.perOp(l.ph.ctr.fulltext.Builds)
}
