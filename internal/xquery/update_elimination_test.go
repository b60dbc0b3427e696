package xquery

import (
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
	"repro/internal/xquery/update"
)

// eliminatingQueries are updating queries whose pending lists the
// gated dead-update rule prunes: inserts into books that the same
// snapshot deletes (enough primitives to build the span index).
var eliminatingQueries = []string{
	`(for $b in //book return insert node <note/> into $b, delete nodes //book)`,
	`(for $b in //book return (insert node <note/> into $b, replace value of node $b/title with "t"), delete nodes //book[@year > 2000])`,
}

// TestUpdateDifferentialEliminating is the oracle check for the
// engine's dead-update elimination: every corpus query runs once
// through Program.Run — whose final apply eliminates when no node
// escapes — and once evaluated on a fresh context with the pending
// list applied by plain PUL.Apply. The rendered results, error
// presence and the post-run documents must be byte-identical, and the
// applied-update counts must differ by exactly what the profiler
// reports as eliminated.
func TestUpdateDifferentialEliminating(t *testing.T) {
	e := New()
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var eliminated int64
	for _, src := range append(append([]string(nil), compileDifferentialCorpus...), eliminatingQueries...) {
		p, err := e.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		cfg := func() RunConfig {
			doc, err := markup.Parse(libraryXML)
			if err != nil {
				t.Fatal(err)
			}
			return RunConfig{ContextItem: xdm.NewNode(doc), MaxSteps: 500_000, Timeout: 5 * time.Second, Now: now}
		}
		after := func(c RunConfig) string {
			n, _ := xdm.IsNode(c.ContextItem)
			return markup.Serialize(n)
		}

		// Oracle: evaluate on a fresh context (optimized, like Run) and
		// apply the pending list plainly.
		oCfg := cfg()
		ctx := p.NewContext(oCfg)
		oVal, oErr := ctx.Run()
		oUpd := 0
		if oErr == nil && ctx.PUL != nil {
			oErr = ctx.PUL.Apply(func(update.Primitive) { oUpd++ })
		}

		eCfg := cfg()
		eCfg.Profiler = runtime.NewProfiler()
		res, eErr := p.Run(eCfg)
		if (oErr == nil) != (eErr == nil) {
			t.Errorf("%q: plain err=%v, eliminating err=%v", src, oErr, eErr)
			continue
		}
		if o, e := after(oCfg), after(eCfg); o != e {
			t.Errorf("%q: post-run documents diverge:\nplain:       %s\neliminating: %s", src, o, e)
		}
		if oErr != nil {
			continue
		}
		if o, e := FormatSequence(oVal, markup.Serialize), FormatSequence(res.Value, markup.Serialize); o != e {
			t.Errorf("%q: plain result %q != eliminating %q", src, o, e)
		}
		n := eCfg.Profiler.UpdatesFor("eliminated")
		if oUpd != res.Updates+int(n) {
			t.Errorf("%q: plain applied %d updates, eliminating %d + %d eliminated", src, oUpd, res.Updates, n)
		}
		eliminated += n
	}
	if eliminated == 0 {
		t.Error("no corpus query exercised dead-update elimination")
	}
}
