package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced phase: an end-to-end op,
// one of the benchmark's calls into a layer's public function, a
// benchmark-owned seam (fed transport, backend handler) or a per-input
// layer replay. Spans of one op share Op; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that still runs the callee.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	samples samples
}

// sample records a value measured without a span.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples.add(name, v)
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// run executes fn inside a span named name.
func (t *tracer) run(name string, op, parent int64, fn func(id int64) error) error {
	if t == nil {
		return fn(0)
	}
	id := t.ids.Add(1)
	start := t.now()
	err := fn(id)
	t.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: t.now()})
	return err
}

// open starts a span whose end is recorded later by its close func
// (seams whose start and end happen in different callbacks).
func (t *tracer) open(name string, op, parent int64) (id int64, close func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.ids.Add(1)
	start := t.now()
	var once sync.Once
	return id, func() {
		once.Do(func() { t.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: t.now()}) })
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover (overlapping children,
// such as parallel shard calls, are counted once).
func selfTimes(spans []span) map[int64]time.Duration {
	byID := make(map[int64]span, len(spans))
	kids := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for id, s := range byID {
		out[id] = s.dur() - covered(s, kids[id])
	}
	return out
}

// covered is the length of the union of children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// selfByName collects the self times of every span with the given name.
func selfByName(spans []span, self map[int64]time.Duration) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], us(self[s.ID]))
	}
	return out
}

// traceRef carries the enclosing op and span through a context, so the
// fed transport and backend handler seams can parent their spans.
type traceRef struct{ op, span int64 }

type traceKey struct{}

func withTrace(ctx context.Context, op, span int64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceRef{op, span})
}

func traceFrom(ctx context.Context) (traceRef, bool) {
	r, ok := ctx.Value(traceKey{}).(traceRef)
	return r, ok
}
