// Command benchcompile measures the algebraic optimizer (plan →
// optimize → walk) against the walker on the parsed tree
// (RunConfig.DisableOptimize) and writes a machine-readable snapshot
// (BENCH_compile.json by default):
//
//	benchcompile -out BENCH_compile.json      # full timed run
//	benchcompile -check                       # also assert the FLWOR-heavy win is >=2x
//	benchcompile -smoke                       # short fixed-iteration run (CI gate)
//
// Scenarios (each timed optimized and unoptimized over the same
// synthetic shop document):
//
//	flwor_join       a two-variable FLWOR whose equality predicate the
//	                 optimizer lowers to a hash join — O(n+m) optimized
//	                 versus the nested loop's O(n*m)
//	flwor_hoist      a loop-invariant let recomputed per tuple on the
//	                 parsed tree, memoized per FLWOR entry when optimized
//	flwor_pushdown   a where conjunct pushed into the domain path,
//	                 upgrading the step to an id-index probe
//
// -check and -smoke assert the acceptance bar: identical results with
// and without the optimizer for every scenario (gated before any
// timing), and every scenario at least 2x faster optimized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// smokeIters is the fixed per-scenario iteration count for -smoke:
// enough that the optimized/unoptimized ratio is stable (the nested
// loop join is the slowest op at a few ms), small enough to keep CI
// fast.
const smokeIters = 40

// shopDoc builds the synthetic page: entries items with string ids,
// entries orders referencing them (every third order dangling), plus
// div padding so the pushdown scenario has an id index worth probing.
func shopDoc(entries int) (xdm.Item, error) {
	var sb strings.Builder
	sb.WriteString("<shop>")
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&sb, `<item id="sku%d" n="i%d"/>`, i, i)
	}
	for i := 0; i < entries; i++ {
		ref := i
		if i%3 == 0 {
			ref = entries + i // dangling reference: empty probe group
		}
		fmt.Fprintf(&sb, `<order ref="sku%d" n="o%d"/>`, ref, i)
	}
	for i := 0; i < entries*10; i++ {
		fmt.Fprintf(&sb, `<div id="d%d">c%d</div>`, i, i)
	}
	sb.WriteString("</shop>")
	d, err := markup.Parse(sb.String())
	if err != nil {
		return nil, err
	}
	return xdm.NewNode(d), nil
}

type result struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op,omitempty"`
}

type snapshot struct {
	Timestamp string             `json:"timestamp"`
	GoVersion string             `json:"go_version"`
	Smoke     bool               `json:"smoke"`
	Scenarios []result           `json:"scenarios"`
	Speedups  map[string]float64 `json:"speedups"`
	Rewrites  map[string]int     `json:"rewrites"`
}

type scenario struct {
	name  string
	query string
}

func main() {
	out := flag.String("out", "BENCH_compile.json", "snapshot output file")
	smoke := flag.Bool("smoke", false, "short fixed-iteration run (CI regression gate)")
	check := flag.Bool("check", false, "assert the optimized runs are >=2x faster")
	flag.Parse()

	item, err := shopDoc(150)
	if err != nil {
		fatal(err)
	}
	e := xquery.New()

	scenarios := []scenario{
		{"flwor_join", `for $o in //order for $i in //item where $o/@ref eq $i/@id
			return concat($o/@n, ":", $i/@n)`},
		{"flwor_hoist", `for $i in //item
			let $total := sum(for $o in //order return string-length(string($o/@ref)))
			where $total > 0 return concat($i/@n, "/", $total)`},
		{"flwor_pushdown", `for $d in //div where $d/@id = "d71" return string($d)`},
	}

	progs := map[string]*xquery.Program{}
	rewrites := map[string]int{}
	for _, sc := range scenarios {
		p, err := e.Compile(sc.query)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sc.name, err))
		}
		progs[sc.name] = p
		st := p.RewriteStats()
		rewrites["fold"] += st.Folds
		rewrites["pushdown"] += st.Pushdowns
		rewrites["hoist"] += st.Hoists
		rewrites["join"] += st.Joins
	}
	if rewrites["join"] == 0 || rewrites["hoist"] == 0 || rewrites["pushdown"] == 0 {
		fatal(fmt.Errorf("optimizer rewrites missing: %v", rewrites))
	}

	run := func(name string, unopt bool) (*xquery.Result, error) {
		return progs[name].Run(xquery.RunConfig{ContextItem: item, DisableOptimize: unopt})
	}

	// Correctness gate before any timing: the optimized and parsed
	// trees must agree on every scenario.
	for _, sc := range scenarios {
		opt, err := run(sc.name, false)
		if err != nil {
			fatal(fmt.Errorf("%s optimized: %w", sc.name, err))
		}
		unopt, err := run(sc.name, true)
		if err != nil {
			fatal(fmt.Errorf("%s unoptimized: %w", sc.name, err))
		}
		got := xquery.FormatSequence(opt.Value, markup.Serialize)
		want := xquery.FormatSequence(unopt.Value, markup.Serialize)
		if got != want {
			fatal(fmt.Errorf("%s: optimized result %q differs from unoptimized %q", sc.name, clip(got), clip(want)))
		}
		if len(opt.Value) == 0 {
			fatal(fmt.Errorf("%s: empty result, scenario measures nothing", sc.name))
		}
	}

	snap := snapshot{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Smoke:     *smoke,
		Speedups:  map[string]float64{},
		Rewrites:  rewrites,
	}
	perOp := map[string]int64{}
	for _, sc := range scenarios {
		for _, unopt := range []bool{false, true} {
			name := sc.name
			if unopt {
				name += "_unoptimized"
			}
			var r result
			if *smoke {
				start := time.Now()
				for i := 0; i < smokeIters; i++ {
					if _, err := run(sc.name, unopt); err != nil {
						fatal(fmt.Errorf("%s: %w", name, err))
					}
				}
				r = result{Name: name, Iterations: smokeIters,
					NsPerOp: time.Since(start).Nanoseconds() / smokeIters}
			} else {
				br := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := run(sc.name, unopt); err != nil {
							b.Fatal(err)
						}
					}
				})
				r = result{Name: name, Iterations: br.N, NsPerOp: br.NsPerOp(),
					AllocsPerOp: br.AllocsPerOp()}
			}
			perOp[name] = r.NsPerOp
			snap.Scenarios = append(snap.Scenarios, r)
		}
		if perOp[sc.name] > 0 {
			snap.Speedups[sc.name] = float64(perOp[sc.name+"_unoptimized"]) / float64(perOp[sc.name])
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchcompile: wrote %s (join %.1fx, hoist %.1fx, pushdown %.1fx)\n",
		*out, snap.Speedups["flwor_join"], snap.Speedups["flwor_hoist"],
		snap.Speedups["flwor_pushdown"])

	if *check || *smoke {
		for _, sc := range scenarios {
			if snap.Speedups[sc.name] < 2 {
				fatal(fmt.Errorf("%s optimizer speedup %.2fx, want >= 2x", sc.name, snap.Speedups[sc.name]))
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompile:", err)
	os.Exit(1)
}
