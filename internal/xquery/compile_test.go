package xquery

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// TestOptimizerRewriteStats pins which algebraic rewrites fire on
// representative shapes: the stats the profiler and EXPERIMENTS.md
// report come straight from here.
func TestOptimizerRewriteStats(t *testing.T) {
	e := New()
	tests := []struct {
		src                             string
		folds, pushdowns, hoists, joins int
	}{
		// 1+2*3 folds; the where conjunct referencing only $b pushes
		// into the path predicate; count(//book) hoists; id-eq join.
		{`1 + 2 * 3`, 1, 0, 0, 0},
		{`for $b in //book where $b/price > 50 return $b/title`, 0, 1, 0, 0},
		{`for $b in //book let $n := count(//author) return $n`, 0, 0, 1, 0},
		{`for $b in //book where count(//author) > 2 return $b/@id`, 0, 0, 1, 0},
		{`for $a in //book for $b in //book where $a/@id eq $b/@id return $a`, 0, 0, 0, 1},
		{`for $a in //book for $b in //book where $a/@year = $b/@year return $a`, 0, 0, 0, 1},
		// Join wins over pushdown for the leading conjunct; the residual
		// conjunct stays in the where clause (no pushdown after a join —
		// domain iteration order must keep matching the walker).
		{`for $a in //book for $b in //book where $a/@id eq $b/@id and $b/price > 5 return $b`, 0, 0, 0, 1},
		// A conjunct over the outer variable still pushes into the last
		// clause's path (it evaluates once per candidate node either
		// way); the correlated domain rules out a join.
		{`for $a in //book for $b in $a/author where $a/price > 5 return $b`, 0, 1, 0, 0},
		// A zero-arg context-defaulting builtin reads the outer focus:
		// pushing it into the path would rebind its implicit context
		// item to each candidate node, so no pushdown may fire.
		{`for $x in //* where local-name() = "book" return 1`, 0, 0, 0, 0},
		{`for $b in //book where string-length() > 1 return $b/@id`, 0, 0, 0, 0},
		// The same builtin with the context made explicit moves freely.
		{`for $b in //book where string($b/@id) = "b2" return 1`, 0, 1, 0, 0},
		// A unit that reaches a sequential function, directly or through
		// a plain function calling it, stays as parsed: its where clause
		// must see the updates applied by earlier iterations.
		{`declare sequential function local:s($b) { string($b/@id); };
		  declare function local:g($b) { local:s($b) };
		  for $b in //book where $b/price > 50 return local:g($b)`, 0, 0, 0, 0},
		{`declare function local:g($b) { string($b/@id) };
		  for $b in //book where $b/price > 50 return local:g($b)`, 0, 1, 0, 0},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		st := p.RewriteStats()
		if st.Folds < tt.folds || st.Pushdowns != tt.pushdowns || st.Hoists < tt.hoists || st.Joins != tt.joins {
			t.Errorf("%q: stats %+v, want folds>=%d pushdowns=%d hoists>=%d joins=%d",
				tt.src, st, tt.folds, tt.pushdowns, tt.hoists, tt.joins)
		}
	}
}

// joinDoc gives the hash join empty key groups (book b4 has no ref),
// duplicate build keys (two items with cat "a") and probe misses.
var joinXML = `<shop>
  <item cat="a" n="i1"/>
  <item cat="b" n="i2"/>
  <item cat="a" n="i3"/>
  <order ref="a" n="o1"/>
  <order ref="c" n="o2"/>
  <order ref="b" n="o3"/>
  <order n="o4"/>
</shop>`

// TestHashJoinCorrectness pins the join's observable semantics:
// output tuple order (outer order major, document order of the build
// side minor), empty and duplicate key groups, and the fallback when
// keys leave the string comparison class.
func TestHashJoinCorrectness(t *testing.T) {
	doc, err := markup.Parse(joinXML)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	tests := []struct {
		src, want string
		joins     int
	}{
		// o1 matches i1,i3 (duplicate group, document order); o2 matches
		// nothing (empty probe group); o3 matches i2; o4 has an empty
		// key, which eq never matches.
		{`for $o in //order for $i in //item where $o/@ref eq $i/@cat
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2", 1},
		// General = over the same data agrees here (singleton keys).
		{`for $o in //order for $i in //item where $o/@ref = $i/@cat
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2", 1},
		// Non-string keys: detected as a join, served by the predicate
		// fallback, same answer as the walker.
		{`for $x in (1,2,3) for $y in (2,3,4) where $x eq $y return 10*$x + $y`,
			"22 33", 1},
		{`for $x in (1,2,3) for $y in (2,3,4) where $x = $y return 10*$x + $y`,
			"22 33", 1},
		// The equality must be the leading conjunct of the last clause
		// to hash; a predicate over both variables that is not an
		// equality never detects.
		{`for $o in //order for $i in //item where $o/@ref != $i/@cat return 1`, strings.TrimSpace(strings.Repeat("1 ", 6)), 0},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		if got := p.RewriteStats().Joins; got != tt.joins {
			t.Errorf("%q: %d joins detected, want %d", tt.src, got, tt.joins)
		}
		for _, disable := range []bool{false, true} {
			res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), DisableOptimize: disable})
			if err != nil {
				t.Fatalf("%q (disable=%v): %v", tt.src, disable, err)
			}
			if got := FormatSequence(res.Value, markup.Serialize); got != tt.want {
				t.Errorf("%q (disable=%v): got %q, want %q", tt.src, disable, got, tt.want)
			}
		}
	}
}

// TestProfilerRewriteCounters checks that the optimizer's rewrite
// counters surface per run, and read zero when the run walks the
// parsed tree.
func TestProfilerRewriteCounters(t *testing.T) {
	e := New()
	doc := libraryDoc(t)
	src := `for $a in //book for $b in //book where $a/@id eq $b/@id and count(//author) > 1 return 1 + 2`
	p, err := e.Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	prof := newRunProfiler()
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if n := prof.RewritesFor("join"); n != 1 {
		t.Errorf("optimized run: join rewrites = %d, want 1", n)
	}
	if n := prof.RewritesFor("hoist"); n == 0 {
		t.Error("optimized run: no hoist rewrites recorded")
	}
	if out := prof.Format(); !strings.Contains(out, "rewrite:join") || !strings.Contains(out, "rewrite:hoist") {
		t.Errorf("profile report missing rewrite lines:\n%s", out)
	}

	walk := newRunProfiler()
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: walk, DisableOptimize: true}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fold", "pushdown", "hoist", "join"} {
		if n := walk.RewritesFor(k); n != 0 {
			t.Errorf("unoptimized run recorded %d %s rewrites", n, k)
		}
	}
	if out := walk.Format(); strings.Contains(out, "rewrite:") {
		t.Errorf("unoptimized profile reports rewrites:\n%s", out)
	}
}

// TestCacheReusesCompiledProgram: a program-cache hit returns the same
// Program, so the optimizer work behind it is memoized alongside it.
func TestCacheReusesCompiledProgram(t *testing.T) {
	e := New()
	c := NewCache(8)
	src := `for $a in //book for $b in //book where $a/@id eq $b/@id return $a/@id/string()`
	p1, err := c.Compile(e, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(e, src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache miss on identical source: program re-optimized")
	}
	if p1.RewriteStats().Joins != 1 {
		t.Errorf("cached program lost its rewrite stats: %+v", p1.RewriteStats())
	}
}

// TestCompiledFunctionSemantics pins the user-function calling
// convention over optimized bodies: recursion depth limit,
// argument/result conversion errors, and one answer with and without
// the optimizer.
func TestCompiledFunctionSemantics(t *testing.T) {
	e := New()

	if _, err := e.EvalQuery(`declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)`, nil); err == nil || !strings.Contains(err.Error(), "call depth limit") {
		t.Errorf("runaway recursion: got %v, want call depth limit error", err)
	}
	if _, err := e.EvalQuery(`declare function local:f($x as xs:integer) { $x }; local:f("nope")`, nil); err == nil || !strings.Contains(err.Error(), "argument $x of") {
		t.Errorf("argument conversion: got %v", err)
	}
	if _, err := e.EvalQuery(`declare function local:f() as xs:integer { "nope" }; local:f()`, nil); err == nil || !strings.Contains(err.Error(), "result of") {
		t.Errorf("result conversion: got %v", err)
	}

	p := e.MustCompile(`declare function local:fib($n) { if ($n lt 2) then $n else local:fib($n - 1) + local:fib($n - 2) }; local:fib(15)`)
	for _, disable := range []bool{false, true} {
		res, err := p.Run(RunConfig{DisableOptimize: disable})
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatSequence(res.Value, markup.Serialize); got != "610" {
			t.Errorf("fib(15) disable=%v: got %s", disable, got)
		}
	}
}

// joinBudgetDoc has 100 items and 100 orders, each order referencing
// one item: a nested loop over them takes 10,000 predicate
// evaluations, a hash join a few hundred steps.
func joinBudgetDoc(t *testing.T) xdm.Item {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<shop>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `<item id="i%d"/>`, i)
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `<order ref="i%d"/>`, 99-i)
	}
	sb.WriteString("</shop>")
	doc, err := markup.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return xdm.NewNode(doc)
}

// TestJoinWithinBudget: the hash join runs wherever the optimized tree
// is evaluated — under a streaming builtin through Program.Run, and in
// a function body called through RunWith (the listener dispatch path)
// — so a 100x100 join fits a 5,000-step budget the nested loop blows.
func TestJoinWithinBudget(t *testing.T) {
	const join = `for $o in //order for $i in //item where $o/@ref eq $i/@id return 1`
	e := New()
	item := joinBudgetDoc(t)

	p := e.MustCompile(`count(` + join + `)`)
	if got := p.RewriteStats().Joins; got != 1 {
		t.Fatalf("count(join): %d joins detected, want 1", got)
	}
	res, err := p.Run(RunConfig{ContextItem: item, MaxSteps: 5000})
	if err != nil {
		t.Fatalf("count(join) through Run: %v", err)
	}
	if got := FormatSequence(res.Value, markup.Serialize); got != "100" {
		t.Errorf("count(join) through Run = %s, want 100", got)
	}

	fp := e.MustCompile(`declare function local:j() { ` + join + ` }; ()`)
	cfg := RunConfig{ContextItem: item, AmbientFocus: true, MaxSteps: 5000}
	ctx := fp.NewContext(cfg)
	if err := ctx.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	res, err = RunWith(ctx, cfg, dom.QName{Space: parser.LocalNamespace, Local: "j"}, nil)
	if err != nil {
		t.Fatalf("local:j() through RunWith: %v", err)
	}
	if len(res.Value) != 100 {
		t.Errorf("local:j() through RunWith returned %d items, want 100", len(res.Value))
	}

	// The parsed tree still nests the loops and trips the same budget:
	// the test measures the join, not a generous budget.
	if _, err := p.Run(RunConfig{ContextItem: item, MaxSteps: 5000, DisableOptimize: true}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("unoptimized count(join): err = %v, want budget exceeded", err)
	}
}

// TestSequentialPushdownKeepsIterationOrder: a where clause over nodes
// that an earlier iteration updates through a sequential function must
// see the update. Pushing the conjunct into the domain path would
// filter before the first iteration and return both values.
func TestSequentialPushdownKeepsIterationOrder(t *testing.T) {
	const src = `declare sequential function local:f($b) {
		replace value of node (root($b)/r/b)[2]/@keep with "n";
		string($b/@n);
	};
	for $b in /r/b where $b/@keep = "y" return local:f($b)`
	p := New().MustCompile(src)
	for _, disable := range []bool{false, true} {
		doc, err := markup.Parse(`<r><b keep="y" n="1"/><b keep="y" n="2"/></r>`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Sequential: true, DisableOptimize: disable})
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		if got := FormatSequence(res.Value, markup.Serialize); got != "1" {
			t.Errorf("disable=%v: got %q, want %q", disable, got, "1")
		}
	}
}

// newRunProfiler is a tiny indirection so the test reads clearly.
func newRunProfiler() *runtime.Profiler { return runtime.NewProfiler() }
