package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/fed"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/serve"
	"repro/internal/xquery"
)

// fed_scatter: two closed-loop clients run Pool.Eval on a pool bound
// to a fed.Executor over fedShards shards x {primary, replica}
// in-process rest.ModuleServer(fed.ShardModule) backends on loopback,
// with no stall. Main ops list a category (in merge order or ordered
// by score); side ops count over the merged stream.

// traceHeader carries "op/span" from the fed transport seam to the
// backend handler seam.
const traceHeader = "X-Perfbench-Span"

// fedWarmOps is how many ops each client runs in set-up.
const fedWarmOps = 150

// maxPayloads bounds the response bodies kept for the decode replay.
const maxPayloads = 256

type fedFixture struct {
	in        *fedInputs
	servers   []*httptest.Server
	transport *http.Transport
	x         *fed.Executor
	p         *serve.Pool

	tr       atomic.Pointer[tracer] // the running phase's tracer, if traced
	mu       sync.Mutex
	payloads []string
}

func setupFed(rc runConfig) (fixture, error) {
	f := &fedFixture{in: genFed(rc.seed)}
	var shards [][]string
	docs := make([][]*dom.Node, fedShards)
	for i, it := range f.in.items {
		d, err := markup.Parse(it.xml())
		if err != nil {
			return nil, err
		}
		d.BaseURI = it.uri()
		docs[shardOf(i)] = append(docs[shardOf(i)], d)
	}
	for s := 0; s < fedShards; s++ {
		var group []string
		for r := 0; r < 2; r++ {
			srv, err := rest.NewModuleServer(fed.ShardModule, nil)
			if err != nil {
				f.close()
				return nil, err
			}
			shard := docs[s]
			srv.Collections = func(string) ([]*dom.Node, error) { return shard, nil }
			ts := httptest.NewServer(f.serverSeam(srv.Handler()))
			f.servers = append(f.servers, ts)
			group = append(group, ts.URL)
		}
		shards = append(shards, group)
	}
	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	f.transport.Proxy = nil
	f.transport.MaxIdleConnsPerHost = 16
	x, err := fed.New(fed.Config{Shards: shards, HTTP: &http.Client{Transport: clientSeam{f}}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.x, f.p = x, serve.NewPool(serve.Config{Fed: x})
	// Warm up: every distinct query once, checked, then the clients'
	// mix, so the per-endpoint latency windows behind the adaptive
	// hedge delay hold latencies under the measured concurrency.
	for i := range f.in.queries {
		if err := evalChecked(context.Background(), f.p, &f.in.queries[i]); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := warmLoop(f.p, f.in.queries, f.in.streams[:], fedWarmOps); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fedFixture) pool() *serve.Pool { return f.p }

func (f *fedFixture) close() {
	if f.p != nil {
		f.p.Shutdown(context.Background())
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

func (f *fedFixture) drive(ctx context.Context, rec *recorder, d time.Duration) {
	f.tr.Store(rec.tr)
	defer f.tr.Store(nil)
	closedLoop(ctx, rec, f.p, f.in.queries, f.in.streams[:], time.Now().Add(d), math.MaxInt)
}

// clientSeam is the federation's HTTP transport: in a traced phase it
// records each sub-request as a fed.call span under the op's
// serve.eval span, ending when the response body has been read.
type clientSeam struct{ f *fedFixture }

func (c clientSeam) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := c.f.tr.Load()
	ref, ok := traceFrom(r.Context())
	if tr == nil || !ok {
		return c.f.transport.RoundTrip(r)
	}
	id, done := tr.open("fed.call", ref.op, ref.span)
	r = r.Clone(r.Context())
	r.Header.Set(traceHeader, fmt.Sprintf("%d/%d", ref.op, id))
	resp, err := c.f.transport.RoundTrip(r)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.done()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.done()
	return b.ReadCloser.Close()
}

// serverSeam wraps a backend handler: in a traced phase it records the
// handler's run as a rest.server span under the fed.call span, the
// payload size, and the first maxPayloads bodies for the decode replay.
func (f *fedFixture) serverSeam(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, v := f.tr.Load(), r.Header.Get(traceHeader)
		if tr == nil || v == "" {
			h.ServeHTTP(w, r)
			return
		}
		a, b, _ := strings.Cut(v, "/")
		op, _ := strconv.ParseInt(a, 10, 64)
		parent, _ := strconv.ParseInt(b, 10, 64)
		cw := &captureWriter{ResponseWriter: w}
		tr.run("rest.server", op, parent, func(int64) error {
			h.ServeHTTP(cw, r)
			return nil
		})
		tr.sample("rest.payload", float64(cw.buf.Len()))
		f.mu.Lock()
		if len(f.payloads) < maxPayloads {
			f.payloads = append(f.payloads, cw.buf.String())
		}
		f.mu.Unlock()
	})
}

type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// replay: parse and compile the query, decode one captured payload,
// and run the warm program over the federation; the runtime.eval
// span's fed.call children take the wire time out of its self time.
func (f *fedFixture) replay(tr *tracer, in replayInput) {
	q := &f.in.queries[in.input.(int)]
	f.tr.Store(tr)
	defer f.tr.Store(nil)
	tr.run(spanReplay, in.op, 0, func(root int64) error {
		f.mu.Lock()
		payload := ""
		if len(f.payloads) > 0 {
			payload = f.payloads[int(in.op)%len(f.payloads)]
		}
		f.mu.Unlock()
		tr.run("rest.decode", in.op, root, func(int64) error {
			_, _, err := rest.DecodeSequenceKeyed(payload)
			return err
		})
		replayEval(tr, in.op, root, f.p.Engine(), q, func(ctx context.Context) xquery.RunConfig {
			return xquery.RunConfig{Context: ctx, Sequential: true,
				Collections: f.x.CollectionResolver(ctx), CollectionsIter: f.x.CollectionIterResolver(ctx)}
		})
		return nil
	})
}

func (f *fedFixture) finish(*recorder) {}

// layers: a listing eval is parse and compile on cache misses, the
// warm run's own time, and the wire: the part of the op that its
// fed.call spans cover.
func (f *fedFixture) layers(l *layerSet) {
	c := l.ph.cache
	l.attributed = l.time("parser.parse")*l.perOp(c.Parses) +
		l.time("xquery.compile")*l.perOp(c.Compiles) +
		l.classTime("runtime.eval", mainOp) +
		median(l.opCoverage("op.eval", "fed.call", mainOp))
}
