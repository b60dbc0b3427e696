package xquery

import (
	"errors"
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
)

// compileDifferentialCorpus is the optimizer corpus: every query runs
// over the optimized tree and over the parsed tree (DisableOptimize),
// and the results, update counts and error presence must agree. It
// covers the paper's listings shapes (updates, scripting, events are
// exercised by their own tests too), every optimizer rewrite (folding,
// pushdown, hoisting, join detection and the walker's hash join and
// hoist memo behind them) and the expression shapes around them.
var compileDifferentialCorpus = []string{
	// Literals, arithmetic, folding fodder.
	`1`, `1 + 2 * 3`, `(1 + 2) * 3`, `10 div 4`, `10 idiv 4`, `-5 + 2`,
	`2.5 + 2.5`, `"hello"`, `()`, `(1,2,3)`, `1 to 5`, `5 to 1`,
	`if (1 + 1 eq 2) then "y" else "n"`,
	`if (fn:false()) then 1 div 0 else "safe"`,
	// Comparisons, value and general, ordered.
	`1 < 2`, `1 eq 1`, `"a" lt "b"`, `(1,2,3) = 3`, `(1,2,3) = 4`,
	`() = 1`, `1 = 1.0`, `(1,2) != (1,2)`,
	// Paths and predicates.
	`//book/title/string()`,
	`(//book)[1]/@id/string()`,
	`//book[price > 50]/title/string()`,
	`//book[position() < 3]/title/string()`,
	`count(//book[last()])`,
	`string-join(//book/ancestor-or-self::*/name(), "/")`,
	// Plain FLWOR shapes.
	`for $b in //book return $b/title/string()`,
	`for $b in //book where $b/price > 50 return $b/@id/string()`,
	`for $b in //book let $t := $b/title return $t/string()`,
	`for $i in 1 to 5 return $i * $i`,
	`for $i at $p in ("a","b","c") return concat($p, $i)`,
	`for $b as element() in //book return name($b)`,
	`let $x as xs:integer := 3 return $x + 1`,
	// Order by (native sorting path).
	`for $b in //book order by $b/@id descending return $b/@year/string()`,
	`for $b in //book order by number($b/price) return $b/title/string()`,
	`for $i in (3,1,2) order by $i return $i`,
	`for $b in //book order by $b/author[1], $b/@id return $b/@id/string()`,
	// Predicate pushdown candidates.
	`for $b in //book where $b/@id = "b2" return $b/title/string()`,
	`for $b in //book where $b/price > 50 and $b/@year = "2005" return name($b)`,
	`for $b in //book where $b/author = "Knuth" return $b/@id/string()`,
	// Context-defaulting builtins in where conjuncts must keep reading
	// the outer focus: pushdown would rebind their implicit context
	// item to each candidate node (walker yields () here, because the
	// document node's local-name is empty).
	`for $x in //* where local-name() = "book" return 1`,
	`for $b in //book where name() = "book" return $b/@id/string()`,
	`for $b in //book where string-length() > 1 return $b/@id/string()`,
	`for $b in //book where string($b/@id) = "b2" return $b/title/string()`,
	// Hoisting candidates (loop-invariant let and where conjuncts).
	`for $b in //book let $all := count(//book) where $all > 2 return $b/@id/string()`,
	`for $i in 1 to 10 let $base := string-length("invariant") return $i + $base`,
	`for $b in //book where count(//author) > 3 and $b/price > 50 return name($b)`,
	// Join candidates: eq and = over string-class keys.
	`for $a in //book for $b in //book where $a/@id eq $b/@id return $a/@id/string()`,
	`for $a in //book for $b in //book where $a/@year = $b/@year return concat($a/@id, "-", $b/@id)`,
	`for $a in //book for $b in //book where $a/author = $b/author return concat($a/@id, $b/@id)`,
	`for $a in //book for $b in //book where $a/@id eq $b/@id and $a/price > 50 return name($b)`,
	// Join fallback: numeric (non-string-class) keys.
	`for $x in (1,2,3) for $y in (2,3,4) where $x eq $y return $x`,
	`for $x in (1,2,3) for $y in (2,3,4) where $x = $y return 10 * $x + $y`,
	// Joins with empty and duplicate key groups.
	`for $a in //book for $b in //book/author where $a/author eq $b return $a/@id/string()`,
	`for $t in //book/title for $b in //book where $b/title eq $t return $b/@id/string()`,
	// Nested FLWOR without a join (correlated inner domain).
	`for $b in //book for $a in $b/author return concat($b/@id, ":", $a)`,
	// Quantified, typeswitch, casts.
	`some $b in //book satisfies $b/author = "Knuth"`,
	`every $b in //book satisfies fn:exists($b/title)`,
	`typeswitch (//book[1]/@id) case $a as attribute() return "attr" default return "other"`,
	`xs:integer("42") + 1`,
	`"3" cast as xs:double`,
	// Function calls: streaming built-ins, eager built-ins,
	// user functions, mutual recursion across optimized bodies.
	`fn:exists(//book[price > 50])`,
	`fn:head(fn:tail(//author))`,
	`fn:subsequence(1 to 20, 5, 3)`,
	`sum(for $i in 1 to 50 return $i)`,
	`declare function local:twice($x as xs:integer) as xs:integer { 2 * $x }; local:twice(21)`,
	`declare function local:fact($n) { if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(6)`,
	`declare function local:odd($n) { if ($n eq 0) then fn:false() else local:even($n - 1) };
	 declare function local:even($n) { if ($n eq 0) then fn:true() else local:odd($n - 1) };
	 local:odd(9)`,
	`declare function local:pick($b) { $b/title/string() };
	 for $b in //book where $b/price > 50 return local:pick($b)`,
	// Globals and prolog variables.
	`declare variable $threshold := 50; for $b in //book where $b/price > $threshold return name($b)`,
	// Constructors inside an optimized FLWOR.
	`for $b in //book return <t id="{$b/@id}">{$b/title/string()}</t>`,
	// Updates: PUL parity between the backends.
	`for $b in //book where $b/price > 100 return rename node $b as "expensive"`,
	`insert node <new/> into (//library)[1]`,
	`delete nodes //book[@id = "b2"]`,
	`copy $c := (//book)[1] modify delete nodes $c/author return count($c/*)`,
	// Scripting (the unit stays as parsed).
	`declare variable $acc := 0; (for $i in 1 to 3 return $i, $acc)`,
	// EBV laziness: errors hidden beyond the early-exit point must stay
	// hidden in both backends.
	`if ((<x/>, fn:error())) then "t" else "f"`,
	`(1,2,3)[2]`,
	// Errors that must surface in both backends.
	`1 + "a"`,
	`//book["x"]`,
	`fn:error()`,
	`1 div 0`,
	`for $x in (1, 2) where $x eq "s" return $x`,
	// Nested levels flatten before hoisting: a let or conjunct that is
	// invariant in the inner level alone varies with the outer one.
	`for $a in (1,2) return for $b in (1,2) let $n := $a * 10 return $n`,
	`for $a in (1,2) return for $b in (1,2) where $a eq 1 return $b`,
	// A where clause over nodes an earlier iteration updated through a
	// sequential function: under Sequential it must see the update, so
	// the conjunct may not be pushed into the domain.
	`declare sequential function local:f($b) { replace value of node ($b/../b)[2]/@keep with "n"; string($b/@n); };
	 let $r := <r><b keep="y" n="1"/><b keep="y" n="2"/></r> for $b in $r/b where $b/@keep = "y" return local:f($b)`,
}

// runBothBackends evaluates src with and without DisableOptimize
// against fresh copies of the library document (updates mutate it) and
// returns the rendered results, update counts and errors.
func runBothBackends(t *testing.T, e *Engine, src string, sequential bool) (optimized, parsed string, oUpd, pUpd int, oErr, pErr error) {
	t.Helper()
	p, err := e.Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	run := func(disable bool) (string, int, error) {
		doc, err := markup.Parse(libraryXML)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(RunConfig{
			ContextItem:     xdm.NewNode(doc),
			DisableOptimize: disable,
			Sequential:      sequential,
			MaxSteps:        500_000,
			Timeout:         5 * time.Second,
			Now:             now,
		})
		if err != nil {
			return "", 0, err
		}
		return FormatSequence(res.Value, markup.Serialize), res.Updates, nil
	}
	optimized, oUpd, oErr = run(false)
	parsed, pUpd, pErr = run(true)
	return
}

// TestCompileDifferential is the optimizer oracle, in both update
// modes: byte-identical results, identical applied-update counts,
// identical error presence.
func TestCompileDifferential(t *testing.T) {
	e := New()
	for _, sequential := range []bool{false, true} {
		for _, src := range compileDifferentialCorpus {
			opt, parsed, oUpd, pUpd, oErr, pErr := runBothBackends(t, e, src, sequential)
			if (oErr == nil) != (pErr == nil) {
				t.Errorf("%q (sequential=%v): optimized err=%v, unoptimized err=%v", src, sequential, oErr, pErr)
				continue
			}
			if oErr != nil {
				continue
			}
			if opt != parsed {
				t.Errorf("%q (sequential=%v): optimized %q != unoptimized %q", src, sequential, opt, parsed)
			}
			if oUpd != pUpd {
				t.Errorf("%q (sequential=%v): optimized applied %d updates, unoptimized %d", src, sequential, oUpd, pUpd)
			}
		}
	}
}

// TestCompileDifferentialStreamingMatrix crosses the optimizer switch
// with the streaming switch: four configurations, one answer.
func TestCompileDifferentialStreamingMatrix(t *testing.T) {
	e := New()
	queries := []string{
		`for $a in //book for $b in //book where $a/@year = $b/@year return concat($a/@id, $b/@id)`,
		`for $b in //book where $b/@id = "b2" return $b/title/string()`,
		`for $b in //book let $n := count(//book) order by $b/@id descending return concat($b/@id, $n)`,
		`sum(for $i in 1 to 100 return $i)`,
	}
	for _, src := range queries {
		p, err := e.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		var want string
		for i, cfg := range []RunConfig{
			{},
			{DisableOptimize: true},
			{DisableStreaming: true},
			{DisableOptimize: true, DisableStreaming: true},
		} {
			cfg.ContextItem = xdm.NewNode(libraryDoc(t))
			cfg.MaxSteps = 500_000
			res, err := p.Run(cfg)
			if err != nil {
				t.Fatalf("%q cfg %d: %v", src, i, err)
			}
			got := FormatSequence(res.Value, markup.Serialize)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%q cfg %d: %q != %q", src, i, got, want)
			}
		}
	}
}

// FuzzCompileDifferential cross-checks the optimized tree against the
// parsed one, the same way FuzzStreamingDifferential checks streaming
// against eager evaluation. Both runs see the same step budget;
// budget-exceeded runs are skipped because the two trees legitimately
// spend different step counts on the same query.
func FuzzCompileDifferential(f *testing.F) {
	for _, s := range compileDifferentialCorpus {
		f.Add(s)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		p, err := e.Compile(src)
		if err != nil {
			return
		}
		run := func(disable bool) (string, int, error) {
			doc, err := markup.Parse(libraryXML)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(RunConfig{
				ContextItem:     xdm.NewNode(doc),
				DisableOptimize: disable,
				MaxSteps:        200_000,
				Timeout:         time.Second,
				Now:             now,
			})
			if err != nil {
				return "", 0, err
			}
			return FormatSequence(res.Value, markup.Serialize), res.Updates, nil
		}
		opt, oUpd, oErr := run(false)
		parsed, pUpd, pErr := run(true)
		if errors.Is(oErr, ErrBudgetExceeded) || errors.Is(pErr, ErrBudgetExceeded) {
			return
		}
		if (oErr == nil) != (pErr == nil) {
			t.Fatalf("%q: optimized err=%v, unoptimized err=%v", src, oErr, pErr)
		}
		if oErr == nil && opt != parsed {
			t.Fatalf("%q: optimized %q != unoptimized %q", src, opt, parsed)
		}
		if oErr == nil && oUpd != pUpd {
			t.Fatalf("%q: optimized applied %d updates, unoptimized %d", src, oUpd, pUpd)
		}
	})
}
