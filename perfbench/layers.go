package main

import (
	"sync"
	"time"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"markup.parse_us", "us"},
	{"core.init_us", "us"},
	{"core.compile_us", "us"},
	{"core.run_main_us", "us"},
	{"core.dispatch_us", "us"},
	{"serve.sessions_peak", "count"},
	{"serve.shed", "count"},
	{"xquery.cache_hit_ratio", "ratio"},
	{"xquery.compiles_per_op", "count"},
	{"parser.parse_us", "us"},
	{"xquery.compile_us", "us"},
	{"plan.rewrites_per_program", "count"},
	{"runtime.eval_us", "us"},
	{"runtime.allocs_per_eval", "count"},
	{"index.builds_per_op", "count"},
	{"index.hit_ratio", "ratio"},
	{"index.build_us", "us"},
	{"fulltext.builds_per_op", "count"},
	{"fulltext.hit_ratio", "ratio"},
	{"fulltext.build_us", "us"},
	{"update.groups_per_apply", "count"},
	{"update.eliminated_per_op", "count"},
	{"update.parallel_apply_ratio", "ratio"},
	{"update.rollbacks", "count"},
	{"xmldb.conflict_ratio", "ratio"},
	{"xmldb.wal_bytes_per_user_byte", "ratio"},
	{"xmldb.checkpoints", "count"},
	{"xmldb.scan_us", "us"},
	{"xmldb.recover_ms", "ms"},
	{"rest.server_us", "us"},
	{"rest.decode_us", "us"},
	{"rest.payload_bytes", "B"},
	{"fed.calls_per_scatter", "count"},
	{"fed.hedges_per_scatter", "count"},
	{"fed.hedge_win_ratio", "ratio"},
	{"fed.retries_per_scatter", "count"},
	{"fed.breaker_opens", "count"},
	{"fed.partials", "count"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
}

// Span names. Layer spans are named after the layer metric they feed
// ("markup.parse" feeds markup.parse_us); the rest structure the tree.
const (
	spanReplay = "replay" // root of one op's layer replay
)

// samples holds values measured outside spans: the program's own stage
// timers (core.StageTimes), allocation counts and payload sizes.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	if s.m == nil {
		s.m = map[string][]float64{}
	}
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// layerSet assembles the per-layer metrics of a traced run.
type layerSet struct {
	ph       phase
	untraced phase
	spans    []span
	self     map[int64]time.Duration
	byName   map[string][]float64
	v        map[string]float64

	// applies counts the phase's ops that apply a pending update list
	// (the base of update.groups_per_apply); attributed is the layer
	// time the workload's model attributes to one main op, in us.
	applies    float64
	attributed float64
}

func newLayerSet(fx fixture, tr *tracer, ph, untraced phase) *layerSet {
	spans := tr.snapshot()
	self := selfTimes(spans)
	l := &layerSet{ph: ph, untraced: untraced, spans: spans, self: self,
		byName: selfByName(spans, self), v: map[string]float64{}}
	ops := float64(ph.rec.attempted())
	m := fx.pool().Metrics()
	l.v["serve.sessions_peak"] = float64(m.SessionsPeak)
	l.v["serve.shed"] = float64(m.Failures.Shed)
	cs := ph.cache
	hits := float64(cs.ProgramHits + cs.Coalesced)
	l.v["xquery.cache_hit_ratio"] = ratio(hits, hits+float64(cs.Compiles))
	l.v["xquery.compiles_per_op"] = ratio(float64(cs.Compiles), ops)
	c := ph.ctr
	l.v["index.builds_per_op"] = ratio(float64(c.index.Builds), ops)
	l.v["index.hit_ratio"] = ratio(float64(c.index.Hits), float64(c.index.Hits+c.index.Builds))
	l.v["fulltext.builds_per_op"] = ratio(float64(c.fulltext.Builds), ops)
	l.v["fulltext.hit_ratio"] = ratio(float64(c.fulltext.Hits), float64(c.fulltext.Hits+c.fulltext.Builds))
	l.v["update.eliminated_per_op"] = ratio(float64(c.update.Eliminated), ops)
	l.v["update.rollbacks"] = float64(c.rollbacks)
	f := c.fed
	l.v["fed.calls_per_scatter"] = ratio(float64(f.Calls), float64(f.Scatters))
	l.v["fed.hedges_per_scatter"] = ratio(float64(f.Hedges), float64(f.Scatters))
	l.v["fed.hedge_win_ratio"] = ratio(float64(f.HedgeWins), float64(f.Hedges))
	l.v["fed.retries_per_scatter"] = ratio(float64(f.Retries), float64(f.Scatters))
	l.v["fed.breaker_opens"] = float64(f.BreakerOpens)
	l.v["fed.partials"] = float64(f.Partials)
	if lag := ph.rec.genLag; len(lag) > 0 {
		l.v["bench.gen_lag_p99_ms"] = us(summarize(lag).p99) / 1000
	}
	for _, name := range []string{"markup.parse", "core.init", "core.compile", "core.run_main", "core.dispatch",
		"parser.parse", "xquery.compile", "runtime.eval", "index.build", "fulltext.build",
		"xmldb.scan", "rest.server", "rest.decode"} {
		l.v[name+"_us"] = l.time(name)
	}
	l.v["runtime.allocs_per_eval"] = median(tr.samples.get("runtime.allocs"))
	l.v["plan.rewrites_per_program"] = mean(tr.samples.get("plan.rewrites"))
	l.v["rest.payload_bytes"] = median(tr.samples.get("rest.payload"))
	return l
}

// time is the median self time, in us, of the spans (or span-less
// samples) named name.
func (l *layerSet) time(name string) float64 {
	return median(append(append([]float64(nil), l.byName[name]...), l.samples(name)...))
}

// classOf maps each kept op of the traced phase to its class.
func (l *layerSet) classOf() map[int64]int {
	class := map[int64]int{}
	for _, in := range l.ph.rec.replays {
		class[in.op] = in.class
	}
	return class
}

// classTime is the median self time, in us, of the spans named name
// that belong to ops of class c.
func (l *layerSet) classTime(name string, c int) float64 {
	class := l.classOf()
	var xs []float64
	for _, s := range l.spans {
		if cl, ok := class[s.Op]; ok && cl == c && s.Name == name {
			xs = append(xs, us(l.self[s.ID]))
		}
	}
	return median(xs)
}

func (l *layerSet) samples(name string) []float64 {
	return l.ph.rec.tr.samples.get(name)
}

// perOp is a phase counter divided by the phase's attempted ops.
func (l *layerSet) perOp(n int64) float64 { return ratio(float64(n), float64(l.ph.rec.attempted())) }

// finish fills the derived metrics and returns every per-layer metric.
func (l *layerSet) finish() map[string]metric {
	c := l.ph.ctr.update
	l.v["update.groups_per_apply"] = ratio(float64(c.Groups), l.applies)
	l.v["update.parallel_apply_ratio"] = ratio(float64(c.ParallelApplies), l.applies)
	traced := us(summarize(l.ph.rec.lat[mainOp]).p50)
	plain := us(summarize(l.untraced.rec.lat[mainOp]).p50)
	l.v["bench.trace_overhead_pct"] = 100 * (ratio(traced, plain) - 1)
	l.v["bench.unattributed_pct"] = 100 * (1 - ratio(l.attributed, traced))
	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		out[p.name] = metric{l.v[p.name], p.unit}
	}
	return out
}

// opCoverage returns, for each op of class c whose root span is named
// root, how much of that root's interval the spans named name cover.
func (l *layerSet) opCoverage(root, name string, c int) []float64 {
	class := l.classOf()
	roots := map[int64]span{}
	for _, s := range l.spans {
		if cl, ok := class[s.Op]; ok && cl == c && s.Name == root && s.Parent == 0 {
			roots[s.Op] = s
		}
	}
	kids := map[int64][]span{}
	for _, s := range l.spans {
		if _, ok := roots[s.Op]; ok && s.Name == name {
			kids[s.Op] = append(kids[s.Op], s)
		}
	}
	out := make([]float64, 0, len(roots))
	for op, r := range roots {
		out = append(out, us(covered(r, kids[op])))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
