package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dom/index"
	"repro/internal/fed"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/xquery/update"
)

// Op classes. Every workload times two kinds of operation; which call
// each class stands for is stated per workload in README.md.
const (
	mainOp = iota
	sideOp
)

// failedLatency is the latency recorded for a failed or mismatched op:
// it sorts above every real sample, so a failure misses any latency
// limit a percentile could be held to.
const failedLatency = time.Duration(math.MaxInt64)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// recorder collects the measured phase's per-op outcomes. It is shared
// by every client goroutine of a workload.
type recorder struct {
	tr     *tracer // nil in an untraced phase
	nextOp atomic.Int64

	mu      sync.Mutex
	lat     [2][]time.Duration
	failed  int
	errs    []string
	genLag  []time.Duration
	replays []replayInput
}

// replayInput is one traced op's drawn input, kept for the per-layer
// replay after the phase.
type replayInput struct {
	op    int64
	class int
	input any
}

func newRecorder(tr *tracer) *recorder { return &recorder{tr: tr} }

// newOp allocates an op id (spans of one op share it).
func (r *recorder) newOp() int64 { return r.nextOp.Add(1) }

// done records one op of class c that took d; a non-nil err marks it
// failed, and it is then recorded as a latency miss.
func (r *recorder) done(c int, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		d = failedLatency
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
	r.lat[c] = append(r.lat[c], d)
}

// lag records how late the open-loop generator released one arrival.
func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	r.genLag = append(r.genLag, d)
	r.mu.Unlock()
}

// keep remembers a traced op's input for the layer replay.
func (r *recorder) keep(op int64, class int, input any) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	r.replays = append(r.replays, replayInput{op, class, input})
	r.mu.Unlock()
}

// fail records a failure found after the op itself returned, such as
// an acknowledged write missing on reopen.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) attempted() int { return len(r.lat[mainOp]) + len(r.lat[sideOp]) }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples and how many samples lie strictly beyond its rank.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n - rank - 1
}

// tailQuantiles are the candidates for "the highest percentile with at
// least minBeyond samples beyond it", highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestTail picks the highest percentile of tailQuantiles that has
// at least minBeyond samples beyond it, or 0 when none has.
func highestTail(n int) float64 {
	for _, q := range tailQuantiles {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q
		}
	}
	return 0
}

// latencySummary is a class's median and p99 with the sample count.
type latencySummary struct {
	n          int
	p50, p99   time.Duration
	beyond99   int
	tail       float64 // highest percentile with minBeyond samples beyond
	tailValue  time.Duration
	failedMiss int // failed ops among the samples
}

func summarize(samples []time.Duration) latencySummary {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := latencySummary{n: len(s)}
	out.p50, _ = percentile(s, 0.5)
	out.p99, out.beyond99 = percentile(s, 0.99)
	if out.tail = highestTail(len(s)); out.tail > 0 {
		out.tailValue, _ = percentile(s, out.tail)
	}
	for _, d := range s {
		if d == failedLatency {
			out.failedMiss++
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// counters is a snapshot of the process-global layer counters; the
// per-layer metrics use the difference of two snapshots taken around
// the measured phase only.
type counters struct {
	index     index.Stats
	fulltext  ftindex.Stats
	update    update.Stats
	rollbacks int64
	fed       fed.Stats
}

func snapCounters() counters {
	return counters{
		index:     index.Snapshot(),
		fulltext:  ftindex.Snapshot(),
		update:    update.Snapshot(),
		rollbacks: update.Rollbacks(),
		fed:       fed.Snapshot(),
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		index:    index.Stats{Builds: a.index.Builds - b.index.Builds, Hits: a.index.Hits - b.index.Hits},
		fulltext: ftindex.Stats{Builds: a.fulltext.Builds - b.fulltext.Builds, Hits: a.fulltext.Hits - b.fulltext.Hits, Loads: a.fulltext.Loads - b.fulltext.Loads},
		update: update.Stats{
			Eliminated:      a.update.Eliminated - b.update.Eliminated,
			Groups:          a.update.Groups - b.update.Groups,
			ParallelApplies: a.update.ParallelApplies - b.update.ParallelApplies,
		},
		rollbacks: a.rollbacks - b.rollbacks,
		fed: fed.Stats{
			Scatters:     a.fed.Scatters - b.fed.Scatters,
			Calls:        a.fed.Calls - b.fed.Calls,
			Retries:      a.fed.Retries - b.fed.Retries,
			Hedges:       a.fed.Hedges - b.fed.Hedges,
			HedgeWins:    a.fed.HedgeWins - b.fed.HedgeWins,
			BreakerOpens: a.fed.BreakerOpens - b.fed.BreakerOpens,
			BreakerSkips: a.fed.BreakerSkips - b.fed.BreakerSkips,
			Partials:     a.fed.Partials - b.fed.Partials,
		},
	}
}

// memDelta is the allocation work between two MemStats reads.
type memDelta struct{ mallocs, bytes uint64 }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	m := readMem()
	return float64(m.HeapAlloc) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
