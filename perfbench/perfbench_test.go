package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dom/index"
	"repro/internal/faultpoint"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/serve"
)

func TestInputDigestDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := inputDigest(w.name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := inputDigest(w.name, 7, 2)
		other, _ := inputDigest(w.name, 8, 2)
		if a != again {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a)
		}
	}
}

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	s := summarize(durations(1000))
	if s.p50 != 500*time.Millisecond || s.p99 != 990*time.Millisecond || s.beyond99 != 10 {
		t.Errorf("1000 samples: p50=%v p99=%v beyond=%d, want 500ms 990ms 10", s.p50, s.p99, s.beyond99)
	}
	if s.tail != 0.99 {
		t.Errorf("1000 samples: highest percentile with 10 beyond = %v, want 0.99", s.tail)
	}
	if s := summarize(durations(999)); s.beyond99 != 9 || s.tail != 0.95 {
		t.Errorf("999 samples: beyond p99 = %d, tail = %v; want 9 and 0.95", s.beyond99, s.tail)
	}
	if s := summarize(durations(20000)); s.tail != 0.999 {
		t.Errorf("20000 samples: tail = %v, want 0.999", s.tail)
	}
	if highestTail(15) != 0 {
		t.Errorf("15 samples should leave no percentile with 10 beyond")
	}

	// A phase whose p99 has fewer than ten samples beyond is refused.
	rec := newRecorder(nil)
	for _, d := range durations(999) {
		rec.done(mainOp, d, nil)
		rec.done(sideOp, d, nil)
	}
	if _, _, err := endToEnd(workloads[0], phase{rec: rec, wall: time.Second}, 1); err == nil {
		t.Error("endToEnd accepted a p99 with 9 samples beyond it")
	}
	rec.done(mainOp, time.Millisecond, nil)
	rec.done(sideOp, time.Millisecond, nil)
	if _, _, err := endToEnd(workloads[0], phase{rec: rec, wall: time.Second}, 1); err != nil {
		t.Errorf("endToEnd refused 1000 samples: %v", err)
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	rec := newRecorder(nil)
	for i := 0; i < 98; i++ {
		rec.done(mainOp, time.Millisecond, nil)
	}
	rec.done(mainOp, 0, context.DeadlineExceeded)
	rec.fail(context.Canceled) // found after the op, e.g. a lost write
	rec.done(mainOp, time.Microsecond, context.Canceled)
	s := summarize(rec.lat[mainOp])
	if s.failedMiss != 2 || s.p99 != failedLatency {
		t.Errorf("failedMiss=%d p99=%v; failures must sort above every sample", s.failedMiss, s.p99)
	}
	if rec.failed != 3 || rec.attempted() != 100 {
		t.Errorf("failed=%d attempted=%d, want 3 and 100", rec.failed, rec.attempted())
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Three arrivals 1ms apart, one at a time, each taking 20ms: the
	// second and third are released late and their latency, taken from
	// the due time, includes the wait.
	const work = 20 * time.Millisecond
	rec := newRecorder(nil)
	var mu sync.Mutex
	lat := map[int]time.Duration{}
	openLoop(rec, []time.Duration{0, time.Millisecond, 2 * time.Millisecond}, 1, func(i int, due time.Time) {
		time.Sleep(work)
		mu.Lock()
		lat[i] = time.Since(due)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		if min := time.Duration(i+1)*work - time.Duration(i)*time.Millisecond; lat[i] < min {
			t.Errorf("arrival %d: latency %v from its due time, want at least %v", i, lat[i], min)
		}
	}
	if len(rec.genLag) != 3 || rec.genLag[2] < 2*work-2*time.Millisecond {
		t.Errorf("generator lag %v: the third arrival should be released about %v late", rec.genLag, 2*work-2*time.Millisecond)
	}
}

// counterFixture builds path and full-text indexes in set-up and a
// known number of them in each measured phase.
type counterFixture struct {
	p            *serve.Pool
	paths, texts int
}

func newCounterFixture(paths, texts int) *counterFixture {
	f := &counterFixture{p: serve.NewPool(serve.Config{}), paths: paths, texts: texts}
	f.build(5, 5) // warm-up work that must not leak into the phase
	return f
}

func (f *counterFixture) build(paths, texts int) {
	for i := 0; i < paths+texts; i++ {
		doc, err := markup.Parse(`<a><b>words here</b></a>`)
		if err != nil {
			panic(err) // a constant document
		}
		if i < paths {
			index.For(doc)
		} else {
			ftindex.For(doc)
		}
	}
}

func (f *counterFixture) pool() *serve.Pool { return f.p }
func (f *counterFixture) drive(_ context.Context, rec *recorder, _ time.Duration) {
	f.build(f.paths, f.texts)
	rec.done(mainOp, time.Millisecond, nil)
}
func (f *counterFixture) replay(*tracer, replayInput) {}
func (f *counterFixture) finish(*recorder)            {}
func (f *counterFixture) layers(*layerSet)            {}
func (f *counterFixture) close()                      {}

func TestCounterDeltasCoverTheMeasuredPhaseOnly(t *testing.T) {
	f := newCounterFixture(3, 2)
	ph := measure(f, nil, time.Millisecond)
	if ph.ctr.index.Builds != 3 || ph.ctr.fulltext.Builds != 2 {
		t.Errorf("phase deltas: %d path and %d full-text builds, want 3 and 2", ph.ctr.index.Builds, ph.ctr.fulltext.Builds)
	}
	f.build(4, 4) // between phases: must not leak either
	if ph := measure(f, nil, time.Millisecond); ph.ctr.index.Builds != 3 || ph.ctr.fulltext.Builds != 2 {
		t.Errorf("second phase deltas: %d and %d, want 3 and 2", ph.ctr.index.Builds, ph.ctr.fulltext.Builds)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 60, 2: 20, 3: 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
}

func TestRefusesArmedFaultPoints(t *testing.T) {
	if err := guardFaultpoints(); err != nil {
		t.Fatalf("no point armed: %v", err)
	}
	faultpoint.Enable(faultpoint.PointStoreFsync, faultpoint.Delay(0))
	defer faultpoint.Reset()
	if err := guardFaultpoints(); err == nil {
		t.Error("a Delay-armed fault point was not refused")
	}
}

func TestMergePartsTakesMedians(t *testing.T) {
	part := func(correct bool, failed int, v float64) result {
		return result{Correct: correct, Attempted: 10, Failed: failed,
			Metrics: map[string]metric{"main_p50_us": {v, "us"}, "setup_s": {v / 100, "s"}}}
	}
	got, err := mergeParts([]result{part(true, 0, 300), part(false, 2, 100), part(true, 0, 200)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 30 || got.Failed != 2 {
		t.Errorf("merged correct=%v attempted=%d failed=%d, want false 30 2", got.Correct, got.Attempted, got.Failed)
	}
	if m := got.Metrics["main_p50_us"]; m.Value != 200 || m.Unit != "us" {
		t.Errorf("merged main_p50_us = %+v, want the median 200 us", m)
	}
	if got.Metrics["setup_s"].Value != 2 {
		t.Errorf("merged setup_s = %v, want 2", got.Metrics["setup_s"].Value)
	}
	short := part(true, 0, 1)
	delete(short.Metrics, "setup_s")
	if _, err := mergeParts([]result{part(true, 0, 1), short}); err == nil {
		t.Error("a part missing a metric was merged")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names this program prints in
// step with the definitions in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}

	rec := newRecorder(nil)
	for _, d := range durations(1000) {
		rec.done(mainOp, d, nil)
		rec.done(sideOp, d, nil)
	}
	res, _, err := endToEnd(workloads[0], phase{rec: rec, wall: time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, "end_to_end", def.EndToEnd, res.Metrics)

	l := &layerSet{ph: phase{rec: rec}, untraced: phase{rec: rec}, v: map[string]float64{}}
	checkNames(t, "per_layer", def.PerLayer, l.finish())
}

func checkNames(t *testing.T, list string, def []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	var want, have []string
	for _, m := range def {
		want = append(want, m.Name+" "+m.Unit)
	}
	for name, m := range got {
		have = append(have, name+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(have)
	if len(want) != len(have) {
		t.Fatalf("%s: BENCHMARK.json has %v, the program prints %v", list, want, have)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("%s: BENCHMARK.json has %q, the program prints %q", list, want[i], have[i])
		}
	}
}

// TestWorkloadsRunChecked runs every workload briefly in traced mode:
// all ops must pass their output checks and every per-layer metric
// must be reported.
func TestWorkloadsRunChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, errs, err := run(w, runConfig{seed: 3, seconds: 1, workdir: t.TempDir()}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, errs)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
		})
	}
}
