// Command perfbench is the repository benchmark: one seeded workload
// per run against the public APIs of serve, core, xmldb and fed, with
// every op's output checked against values computed from the
// generator. See README.md for the workloads and metrics.
//
//	perfbench --workload render_query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of a traced run. The exit code is non-zero when an
// op failed or any output did not match.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/serve"
	"repro/internal/xquery"
)

// parts is how many processes a run is split into, one after another.
// Each builds its own fixture and measures seconds/parts; a reported
// metric is the median of the parts' values, setup_s included. On a
// shared machine, run-to-run differences come mostly per process (the
// windows of one process agree with each other far better than two
// processes do), so the median of separate processes is steadier than
// one long process.
const parts = 3

// The traced run's per-input layer replay covers at most replayMaxOps
// ops, spread evenly over the phase, and stops after replayMaxTime.
const (
	replayMaxOps  = 2000
	replayMaxTime = 3 * time.Second
)

// fixture is one workload's built system: corpus, store, pool and
// backends, warmed up.
type fixture interface {
	pool() *serve.Pool
	// drive runs the workload's clients for d, recording every op.
	drive(ctx context.Context, rec *recorder, d time.Duration)
	// replay re-runs one traced op's input through layer functions,
	// as spans under a "replay" root carrying the op's id.
	replay(tr *tracer, in replayInput)
	// finish runs the checks that need the measured phase to be over;
	// what they find is recorded on rec as failed ops.
	finish(rec *recorder)
	// layers adds the workload's own per-layer metrics, including the
	// attributed share of the main op's median.
	layers(l *layerSet)
	close()
}

type runConfig struct {
	seed    uint64
	seconds float64
	workdir string
}

type workload struct {
	name       string
	main, side string // what the two op classes time
	setup      func(rc runConfig) (fixture, error)
}

var workloads = []workload{
	{"page_session", "page load from its due time", "one click turn", setupPage},
	{"render_query", "view eval", "analytic eval", setupRender},
	{"store_write", "durable commit", "reader eval", setupStore},
	{"fed_scatter", "listing scatter eval", "count scatter eval", setupFed},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// guardFaultpoints refuses a run with an armed fault point: every
// named point is hit once, and an armed one counts the hit.
func guardFaultpoints() error {
	for _, p := range []string{
		faultpoint.PointResolverLoad, faultpoint.PointIndexBuild, faultpoint.PointUpdateApply,
		faultpoint.PointServeDispatch, faultpoint.PointStoreFsync, faultpoint.PointStoreReplay,
		faultpoint.PointFTIndexBuild, faultpoint.PointFedCall, faultpoint.PointFedMerge, faultpoint.PointFedHedge,
	} {
		err := faultpoint.Hit(p)
		if hits, _ := faultpoint.Stats(p); hits > 0 || err != nil {
			return fmt.Errorf("fault point %s is armed; the benchmark measures real costs only", p)
		}
	}
	return nil
}

// phase is the outcome of one measured phase.
type phase struct {
	rec    *recorder
	wall   time.Duration
	cpu    time.Duration // process CPU time (user+system) during the phase
	mem    memDelta
	ctr    counters
	cache  xquery.CacheStats
	heapMB float64
}

// measure runs one phase: counters, cache stats and allocation totals
// are read immediately around drive, so set-up and warm-up never leak
// into the deltas.
func measure(fx fixture, tr *tracer, d time.Duration) phase {
	rec := newRecorder(tr)
	runtime.GC()
	c0, cs0, m0, cpu0 := snapCounters(), fx.pool().Cache().Stats(), readMem(), cpuTime()
	t0 := time.Now()
	fx.drive(context.Background(), rec, d)
	ph := phase{rec: rec, wall: time.Since(t0), cpu: cpuTime() - cpu0}
	ph.mem = memSince(m0)
	ph.ctr = snapCounters().sub(c0)
	cs1 := fx.pool().Cache().Stats()
	ph.cache = xquery.CacheStats{
		Compiles:    cs1.Compiles - cs0.Compiles,
		Parses:      cs1.Parses - cs0.Parses,
		ProgramHits: cs1.ProgramHits - cs0.ProgramHits,
		ModuleHits:  cs1.ModuleHits - cs0.ModuleHits,
		Coalesced:   cs1.Coalesced - cs0.Coalesced,
	}
	ph.heapMB = liveHeapMB()
	return ph
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run builds the fixture and measures it in this process.
func run(w workload, rc runConfig, traced bool) (result, []string, error) {
	runtime.GC()
	t0 := time.Now()
	fx, err := w.setup(rc)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0).Seconds()
	defer fx.close()
	d := time.Duration(rc.seconds * float64(time.Second))
	if !traced {
		ph := measure(fx, nil, d)
		fx.finish(ph.rec)
		return endToEnd(w, ph, setup)
	}
	untraced := measure(fx, nil, d/2)
	tr := newTracer()
	ph := measure(fx, tr, d/2)
	fx.finish(ph.rec)
	replayAll(fx, tr, ph.rec)
	l := newLayerSet(fx, tr, ph, untraced)
	fx.layers(l)
	if err := tr.write(filepath.Join(rc.workdir, "trace-"+w.name+".json")); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	res := result{Correct: ph.rec.failed+untraced.rec.failed == 0,
		Attempted: ph.rec.attempted() + untraced.rec.attempted(),
		Failed:    ph.rec.failed + untraced.rec.failed,
		Metrics:   l.finish()}
	return res, append(untraced.rec.errs, ph.rec.errs...), nil
}

// replayAll replays a bounded, evenly spread sample of the traced ops.
func replayAll(fx fixture, tr *tracer, rec *recorder) {
	ins := rec.replays
	step := max(1, len(ins)/replayMaxOps)
	deadline := time.Now().Add(replayMaxTime)
	for i := 0; i < len(ins) && time.Now().Before(deadline); i += step {
		fx.replay(tr, ins[i])
	}
}

// endToEnd assembles the end-to-end metrics of an untraced phase.
func endToEnd(w workload, ph phase, setupS float64) (result, []string, error) {
	rec := ph.rec
	ops := rec.attempted()
	for c, name := range []string{"main", "side"} {
		if s := summarize(rec.lat[c]); s.beyond99 < minBeyond {
			return result{}, nil, fmt.Errorf("%s ops: %d samples leave %d beyond p99, need %d", name, s.n, s.beyond99, minBeyond)
		}
	}
	mainS, sideS := summarize(rec.lat[mainOp]), summarize(rec.lat[sideOp])
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"main_p50_us":        {us(mainS.p50), "us"},
		"main_p99_us":        {us(mainS.p99), "us"},
		"side_p50_us":        {us(sideS.p50), "us"},
		"side_p99_us":        {us(sideS.p99), "us"},
		"ops_per_s":          {float64(ops-rec.failed) / ph.wall.Seconds(), "1/s"},
		"allocs_per_op":      {float64(ph.mem.mallocs) / float64(ops), "count"},
		"alloc_bytes_per_op": {float64(ph.mem.bytes) / float64(ops), "B"},
		"heap_live_mb":       {ph.heapMB, "MiB"},
	}
	lines := []string{
		fmt.Sprintf("workload %s: main = %s, side = %s", w.name, w.main, w.side),
		fmt.Sprintf("fail_ratio = %.6f (%d failed of %d attempted)", ratio(float64(rec.failed), float64(ops)), rec.failed, ops),
		fmt.Sprintf("busy cores = %.2f of %d (process CPU time / wall time)", ph.cpu.Seconds()/ph.wall.Seconds(), runtime.NumCPU()),
	}
	for _, x := range []struct {
		name string
		s    latencySummary
	}{{"main", mainS}, {"side", sideS}} {
		lines = append(lines, fmt.Sprintf("%s: n=%d p50=%.1fus p99=%.1fus (%d beyond); highest percentile with %d beyond: p%g=%.1fus",
			x.name, x.s.n, us(x.s.p50), us(x.s.p99), x.s.beyond99, minBeyond, x.s.tail*100, us(x.s.tailValue)))
	}
	for _, e := range rec.errs {
		lines = append(lines, "failure: "+e)
	}
	return result{Correct: rec.failed == 0, Attempted: ops, Failed: rec.failed, Metrics: m}, lines, nil
}

// runParts runs the parts as child processes of this binary, one after
// another, and merges their results.
func runParts(name string, rc runConfig, trace int) (result, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	var results []result
	var lines []string
	for i := 1; i <= parts; i++ {
		cmd := exec.Command(exe, "--part", "--workload", name, "--seed", strconv.FormatUint(rc.seed, 10),
			"--seconds", strconv.FormatFloat(rc.seconds/parts, 'f', -1, 64), "--trace", strconv.Itoa(trace),
			"--workdir", rc.workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return result{}, nil, fmt.Errorf("part %d: %w", i, err)
		}
		out = bytes.TrimSpace(out)
		last := out[bytes.LastIndexByte(out, '\n')+1:]
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return result{}, nil, fmt.Errorf("part %d: reading its result: %w", i, err)
		}
		results = append(results, res)
		for _, l := range strings.Split(string(out[:len(out)-len(last)]), "\n") {
			if l != "" && !strings.HasPrefix(l, " ") {
				lines = append(lines, fmt.Sprintf("part %d: %s", i, l))
			}
		}
	}
	res, err := mergeParts(results)
	lines = append(lines, fmt.Sprintf("fail_ratio = %.6f (%d failed of %d attempted, all parts)",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted))
	return res, lines, err
}

// mergeParts adds up the parts' counts and takes the median of each
// metric over the parts.
func mergeParts(results []result) (result, error) {
	merged := result{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for _, res := range results {
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			merged.Metrics[k] = m
		}
	}
	for k, m := range merged.Metrics {
		if len(values[k]) != len(results) {
			return result{}, fmt.Errorf("metric %s is missing from a part", k)
		}
		merged.Metrics[k] = metric{median(values[k]), m.Unit}
	}
	return merged, nil
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase, over all parts")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for stores and span dumps")
	part := flag.Bool("part", false, "measure one part of a run in this process")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	if err := guardFaultpoints(); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, workdir: *workdir}
	var res result
	var lines []string
	if *part {
		res, lines, err = run(w, rc, *trace == 1)
	} else {
		res, lines, err = runParts(w.name, rc, *trace)
	}
	if err != nil {
		fatal(err)
	}
	if err := guardFaultpoints(); err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, l := range lines {
		fmt.Println(l)
	}
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
