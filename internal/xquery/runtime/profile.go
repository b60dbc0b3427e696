package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/xquery/ast"
)

// Profiler collects per-expression-kind evaluation counts and wall
// time — the "performance profiler" the paper's §7 lists as future
// tooling work. Attach one to a Context; collection is off (zero cost)
// when the pointer is nil.
type Profiler struct {
	mu       sync.Mutex
	entries  map[string]*ProfileEntry
	rewrites map[string]int64
	updates  map[string]int64
	ft       map[string]int64
}

// ProfileEntry accumulates one expression kind's statistics. Items
// counts items pulled through the kind's streaming iterators: when a
// query early-exits, Items stays far below the size of the sequences
// it ranged over, which is how a profile proves lazy evaluation paid
// off. IndexHits counts path steps answered from a per-document index
// instead of an axis walk (see internal/dom/index): a descendant-heavy
// query that planned well shows hits here and correspondingly few
// items pulled.
type ProfileEntry struct {
	Kind      string
	Count     int64
	Items     int64
	IndexHits int64
	Time      time.Duration
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{entries: map[string]*ProfileEntry{}}
}

func (p *Profiler) record(kind string, d time.Duration) {
	p.mu.Lock()
	e := p.entries[kind]
	if e == nil {
		e = &ProfileEntry{Kind: kind}
		p.entries[kind] = e
	}
	e.Count++
	e.Time += d
	p.mu.Unlock()
}

// AddRewrites adds to a named optimizer-rewrite counter. The engine
// credits the per-program rewrite statistics ("pushdown", "hoist",
// "join", "fold") here once per run, so a profile reports which
// algebraic rewrites shaped the plan it measured.
func (p *Profiler) AddRewrites(kind string, n int64) {
	if n == 0 {
		return
	}
	p.mu.Lock()
	if p.rewrites == nil {
		p.rewrites = map[string]int64{}
	}
	p.rewrites[kind] += n
	p.mu.Unlock()
}

// RewritesFor returns a named optimizer-rewrite counter (see
// AddRewrites).
func (p *Profiler) RewritesFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rewrites[kind]
}

// AddUpdates adds to a named update counter. The engine credits the
// primitives each apply dropped as dead ("eliminated") here, so a
// profile reports how the update analysis pruned the run's pending
// updates.
func (p *Profiler) AddUpdates(kind string, n int64) {
	if n == 0 {
		return
	}
	p.mu.Lock()
	if p.updates == nil {
		p.updates = map[string]int64{}
	}
	p.updates[kind] += n
	p.mu.Unlock()
}

// UpdatesFor returns a named update counter (see AddUpdates).
func (p *Profiler) UpdatesFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.updates[kind]
}

// AddFT adds to a named full-text counter. The evaluator credits
// "probes" for ftcontains selections answered from a full-text index
// and "builds" for index constructions its probes triggered, so a
// profile shows whether a full-text workload ran indexed or kept
// falling back to scans.
func (p *Profiler) AddFT(kind string, n int64) {
	if n == 0 {
		return
	}
	p.mu.Lock()
	if p.ft == nil {
		p.ft = map[string]int64{}
	}
	p.ft[kind] += n
	p.mu.Unlock()
}

// FTFor returns a named full-text counter (see AddFT).
func (p *Profiler) FTFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ft[kind]
}

// recordItems adds to the items-pulled counter of an expression kind.
func (p *Profiler) recordItems(kind string, n int64) {
	p.mu.Lock()
	e := p.entries[kind]
	if e == nil {
		e = &ProfileEntry{Kind: kind}
		p.entries[kind] = e
	}
	e.Items += n
	p.mu.Unlock()
}

// recordIndexHits adds to the index-hit counter of an expression kind.
func (p *Profiler) recordIndexHits(kind string, n int64) {
	p.mu.Lock()
	e := p.entries[kind]
	if e == nil {
		e = &ProfileEntry{Kind: kind}
		p.entries[kind] = e
	}
	e.IndexHits += n
	p.mu.Unlock()
}

// IndexHitsFor returns the index hits recorded for one expression
// kind.
func (p *Profiler) IndexHitsFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.entries[kind]; e != nil {
		return e.IndexHits
	}
	return 0
}

// Items returns the items pulled for one expression kind.
func (p *Profiler) ItemsFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.entries[kind]; e != nil {
		return e.Items
	}
	return 0
}

// Entries returns the collected statistics sorted by total time,
// descending.
func (p *Profiler) Entries() []ProfileEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfileEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	return out
}

// Total returns the aggregate evaluation count.
func (p *Profiler) Total() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, e := range p.entries {
		n += e.Count
	}
	return n
}

// Format renders a report (cmd/xq -profile). Column legend: count is
// evaluations, items is items pulled through streaming iterators,
// idxhits is path steps answered from a per-document index instead of
// an axis walk. Optimizer rewrite counters follow when any is nonzero.
func (p *Profiler) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %14s\n",
		"expression", "count", "items", "idxhits", "time")
	for _, e := range p.Entries() {
		fmt.Fprintf(&b, "%-20s %10d %10d %10d %14s\n",
			e.Kind, e.Count, e.Items, e.IndexHits, e.Time)
	}
	p.mu.Lock()
	kinds := make([]string, 0, len(p.rewrites))
	for k := range p.rewrites {
		kinds = append(kinds, k)
	}
	p.mu.Unlock()
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "rewrite:%-12s %10d\n", k, p.RewritesFor(k))
	}
	p.mu.Lock()
	ukinds := make([]string, 0, len(p.updates))
	for k := range p.updates {
		ukinds = append(ukinds, k)
	}
	p.mu.Unlock()
	sort.Strings(ukinds)
	for _, k := range ukinds {
		fmt.Fprintf(&b, "update:%-13s %10d\n", k, p.UpdatesFor(k))
	}
	p.mu.Lock()
	fkinds := make([]string, 0, len(p.ft))
	for k := range p.ft {
		fkinds = append(fkinds, k)
	}
	p.mu.Unlock()
	sort.Strings(fkinds)
	for _, k := range fkinds {
		fmt.Fprintf(&b, "ft:%-17s %10d\n", k, p.FTFor(k))
	}
	return b.String()
}

// exprKind names an AST node for profiling.
func exprKind(e ast.Expr) string {
	s := fmt.Sprintf("%T", e)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
