package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/markup"
	"repro/internal/serve"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// store_write: one writer and one reader, closed loop, on a durable
// store, xmldb.Open(dir). Every commit appends its redo record to the
// log before it is acknowledged, but without an fsync: on a shared
// machine the fsync tail makes commit p99 vary by half between runs of
// one seed, beyond any bound a regression check could use. The writer
// alternates Store.Update
// (insert a ref, replace a title) and Store.PutXML of a new article;
// the reader runs Pool.Eval path and ftcontains queries over the same
// documents. After the phase the store is closed, reopened and every
// acknowledged commit is looked for.

// maxAddedRefs bounds the refs the writer adds to one article, so a
// popular article's commits cost the same at the end of a run as at
// the start.
const maxAddedRefs = 4

// docState is what the benchmark expects a stored article to hold.
type docState struct {
	title string
	refs  int
}

type storeFixture struct {
	in  *storeInputs
	dir string
	st  *xmldb.Store
	p   *serve.Pool

	// Writer state; only the writer goroutine touches it during a
	// phase, and finish reads it after.
	wpos, rpos int
	putSeq     int
	model      map[string]docState
	unacked    map[string]string // uri -> a title whose commit failed
	phaseStats storePhase
	recoverMS  float64
}

// storePhase is the writer's account of one phase.
type storePhase struct {
	updates, puts, conflicts int64
	userBytes, dirBytes      int64
	checkpoints              int64
}

func setupStore(rc runConfig) (fixture, error) {
	in := genStore(rc.seed)
	dir := filepath.Join(rc.workdir, "store")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := xmldb.Open(dir, xmldb.WithSyncWrites(false))
	if err != nil {
		return nil, err
	}
	if err := loadCorpus(st, in.corpus); err != nil {
		st.Close()
		return nil, err
	}
	f := &storeFixture{in: in, dir: dir, st: st, p: serve.NewPool(serve.Config{Store: st}),
		model: map[string]docState{}, unacked: map[string]string{}}
	for i := range in.corpus.articles {
		a := &in.corpus.articles[i]
		f.model[a.uri()] = docState{a.title, len(a.refs)}
	}
	for i := range in.queries {
		if err := evalChecked(context.Background(), f.p, &in.queries[i]); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *storeFixture) pool() *serve.Pool { return f.p }

func (f *storeFixture) close() {
	f.p.Shutdown(context.Background())
	f.st.Close()
	os.RemoveAll(f.dir)
}

func (f *storeFixture) drive(ctx context.Context, rec *recorder, d time.Duration) {
	deadline := time.Now().Add(d)
	s0 := f.st.Stats.Snapshot()
	f.phaseStats = storePhase{dirBytes: -dirSize(f.dir)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			f.write(rec)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			qi := f.in.reads[f.rpos%len(f.in.reads)]
			f.rpos++
			evalOp(ctx, rec, f.p, &f.in.queries[qi], qi)
		}
	}()
	wg.Wait()
	s1 := f.st.Stats.Snapshot()
	f.phaseStats.dirBytes += dirSize(f.dir)
	f.phaseStats.conflicts = s1.Conflicts - s0.Conflicts
	f.phaseStats.checkpoints = s1.Checkpoints - s0.Checkpoints
}

// storeWrite is a commit's input, kept for the layer replay.
type storeWrite struct {
	update bool
	uri    string
	text   string // update query or document source
}

// write performs and records the writer's next commit, updating the
// model only when the store acknowledged it.
func (f *storeFixture) write(rec *recorder) {
	w := f.in.writes[f.wpos%len(f.in.writes)]
	f.wpos++
	var in storeWrite
	next := docState{}
	switch w.kind {
	case "insert", "title":
		a := &f.in.corpus.articles[w.article]
		in.uri, in.update = a.uri(), true
		next = f.model[in.uri]
		switch {
		case w.kind == "insert" && next.refs-len(a.refs) >= maxAddedRefs:
			// Keep documents from growing without bound: once an
			// article carries maxAddedRefs added refs, take one out.
			in.text = `delete node (/article/references/ref[@year >= 2100])[1]`
			next.refs--
		case w.kind == "insert":
			in.text = fmt.Sprintf(`insert node <ref year="%s" title="Added"/> into /article/references`, w.text)
			next.refs++
		default:
			in.text = fmt.Sprintf(`replace value of node /article/title with "%s"`, w.text)
			next.title = w.text
		}
	default:
		f.putSeq++
		in.uri, in.text = newArticleURI(f.in.corpus, w.slot), newArticleXML(w.slot, f.putSeq, w.text)
		next = docState{fmt.Sprintf("New %d", f.putSeq), 1}
	}
	tr := rec.tr
	op := rec.newOp()
	t0 := time.Now()
	err := tr.run("op.commit", op, 0, func(id int64) error {
		if in.update {
			return tr.run("xmldb.update", op, id, func(int64) error {
				_, err := f.st.Update(in.uri, in.text)
				return err
			})
		}
		return tr.run("xmldb.put", op, id, func(int64) error { return f.st.PutXML(in.uri, in.text) })
	})
	rec.done(mainOp, time.Since(t0), err)
	rec.keep(op, mainOp, in)
	f.phaseStats.userBytes += int64(len(in.text))
	if in.update {
		f.phaseStats.updates++
	} else {
		f.phaseStats.puts++
	}
	if err != nil {
		f.unacked[in.uri] = next.title
		return
	}
	f.model[in.uri] = next
}

// finish closes the store, reopens the directory (timed as recovery)
// and checks that every acknowledged commit is there and that no
// failed one is.
func (f *storeFixture) finish(rec *recorder) {
	f.p.Shutdown(context.Background())
	if err := f.st.Close(); err != nil {
		rec.fail(fmt.Errorf("closing the store: %w", err))
	}
	t0 := time.Now()
	st, err := xmldb.Open(f.dir)
	f.recoverMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		rec.fail(fmt.Errorf("reopening the store: %w", err))
		return
	}
	defer st.Close()
	want := []string{catalogURI}
	for uri, ds := range f.model {
		want = append(want, uri)
		got, err := readState(st, uri)
		if err != nil || got != ds {
			rec.fail(fmt.Errorf("acknowledged write lost: %s holds %+v (%v), want %+v", uri, got, err, ds))
		}
	}
	for uri, title := range f.unacked {
		if got, err := readState(st, uri); err == nil && got.title == title && f.model[uri].title != title {
			rec.fail(fmt.Errorf("unacknowledged write present: %s has title %q", uri, title))
		}
	}
	sort.Strings(want)
	if got := st.List(); !slices.Equal(got, want) {
		rec.fail(fmt.Errorf("reopened store lists %d documents, want %d", len(got), len(want)))
	}
}

// readState reads an article's title and ref count through the DOM.
func readState(st *xmldb.Store, uri string) (docState, error) {
	doc, err := st.Doc(uri)
	if err != nil {
		return docState{}, err
	}
	titles := doc.Elements("title")
	if len(titles) != 1 {
		return docState{}, fmt.Errorf("%d titles", len(titles))
	}
	return docState{titles[0].StringValue(), len(doc.Elements("ref"))}, nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// replay: a commit's update query is parsed and compiled (a put's
// document is parsed); a reader eval replays like render_query.
func (f *storeFixture) replay(tr *tracer, in replayInput) {
	tr.run(spanReplay, in.op, 0, func(root int64) error {
		switch x := in.input.(type) {
		case storeWrite:
			if x.update {
				replayCompile(tr, in.op, root, xquery.New(), x.text)
				return nil
			}
			return tr.run("markup.parse", in.op, root, func(int64) error {
				_, err := markup.Parse(x.text)
				return err
			})
		case int:
			q := &f.in.queries[x]
			replayEval(tr, in.op, root, f.p.Engine(), q, storeRunConfig(f.st))
			replayIndexes(tr, in.op, root, f.in.corpus, q, in.op)
			if q.kind == "search" {
				replayScan(tr, in.op, root, f.st, f.in.corpus.volumes[int(in.op)%len(f.in.corpus.volumes)])
			}
		}
		return nil
	})
}

// layers: a commit is an update's parse and compile or a put's markup
// parse, in the phase's mix; the rest (clone, apply, serialize, redo
// log and fsync) has no public seam and stays unattributed.
func (f *storeFixture) layers(l *layerSet) {
	ps := f.phaseStats
	commits := float64(ps.updates + ps.puts)
	l.applies = float64(ps.updates)
	l.v["xmldb.conflict_ratio"] = ratio(float64(ps.conflicts), commits)
	l.v["xmldb.wal_bytes_per_user_byte"] = ratio(float64(ps.dirBytes), float64(ps.userBytes))
	l.v["xmldb.checkpoints"] = float64(ps.checkpoints)
	l.v["xmldb.recover_ms"] = f.recoverMS
	upd := ratio(float64(ps.updates), commits)
	l.attributed = upd*(l.classTime("parser.parse", mainOp)+l.classTime("xquery.compile", mainOp)) +
		(1-upd)*l.classTime("markup.parse", mainOp)
}
