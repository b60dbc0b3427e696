package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/markup"
	"repro/internal/xquery"
)

// Second batch of host tests: the HOF registration route, script
// extraction, event materialisation, library-module imports in the
// browser, and pipeline instrumentation.

func TestHOFEventRegistration(t *testing.T) {
	// §5.1: the Zorba implementation registers listeners with
	// high-order functions instead of the grammar extension.
	page := `<html><head><script type="text/xquery">
		declare updating function local:l($evt, $obj) {
			insert node <hit/> into //div[@id="log"]
		};
		browser:addEventListener(//input[@id="b"], "click", "local:l")
	</script></head><body><input id="b"/><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Click("b")
	_ = h.Click("b")
	if got := len(h.Page.ElementByID("log").Children()); got != 2 {
		t.Errorf("HOF-registered listener fired %d times", got)
	}
	// And removal.
	page2 := `<html><head><script type="text/xqueryp">
		declare updating function local:l($evt, $obj) {
			insert node <hit/> into //div[@id="log"]
		};
		{
			browser:addEventListener(//input[@id="b"], "click", "local:l");
			browser:removeEventListener(//input[@id="b"], "click", "local:l");
		}
	</script></head><body><input id="b"/><div id="log"/></body></html>`
	h2, err := LoadPage(page2, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	_ = h2.Click("b")
	if got := len(h2.Page.ElementByID("log").Children()); got != 0 {
		t.Errorf("removed HOF listener still fired %d times", got)
	}
}

func TestGrammarAndHOFAreIdempotentTogether(t *testing.T) {
	// Registering the same listener through both routes results in ONE
	// registration (same identity key), matching addEventListener's
	// duplicate suppression.
	page := `<html><head><script type="text/xqueryp">
		declare updating function local:l($evt, $obj) {
			insert node <hit/> into //div[@id="log"]
		};
		{
			on event "click" at //input[@id="b"] attach listener local:l;
			browser:addEventListener(//input[@id="b"], "click", "local:l");
		}
	</script></head><body><input id="b"/><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Click("b")
	if got := len(h.Page.ElementByID("log").Children()); got != 1 {
		t.Errorf("duplicate registration fired %d times, want 1", got)
	}
}

func TestExtractScripts(t *testing.T) {
	page, err := markup.ParseHTML(`<html><head>
		<script type="text/xquery">one()</script>
		<script type="text/javascript">ignored()</script>
		<script type="TEXT/XQUERYP">two()</script>
		<script>also ignored</script>
	</head><body><script type="text/xquery">three()</script></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	scripts := ExtractScripts(page)
	if len(scripts) != 3 {
		t.Fatalf("scripts = %d: %q", len(scripts), scripts)
	}
	for i, want := range []string{"one()", "two()", "three()"} {
		if strings.TrimSpace(scripts[i]) != want {
			t.Errorf("script %d = %q", i, scripts[i])
		}
	}
}

func TestEventToXML(t *testing.T) {
	target := dom.NewElement(dom.Name("input"))
	target.SetAttr(dom.Name("id"), "btn")
	ev := &dom.Event{Type: "click", AltKey: true, Button: 2, Key: "x",
		ClientX: 10, ClientY: 20, Target: target,
		Detail: map[string]string{"custom": "v"}}
	el := EventToXML(ev)
	get := func(name string) string {
		for _, c := range el.Children() {
			if c.Name.Local == name {
				return c.StringValue()
			}
		}
		return "<missing>"
	}
	checks := map[string]string{
		"type": "click", "altKey": "true", "ctrlKey": "false",
		"button": "2", "key": "x", "clientX": "10", "clientY": "20",
		"targetName": "input", "targetId": "btn", "custom": "v",
	}
	for name, want := range checks {
		if got := get(name); got != want {
			t.Errorf("event/%s = %q, want %q", name, got, want)
		}
	}
}

func TestLibraryModuleImportInBrowser(t *testing.T) {
	resolver := xquery.NewLocalResolver(map[string]string{
		"urn:fmt": `module namespace f = "urn:fmt";
			declare function f:shout($s) { concat(upper-case($s), "!") };`,
	})
	page := `<html><head><script type="text/xquery">
		import module namespace f = "urn:fmt";
		browser:alert(f:shout("hello"))
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/", WithModuleResolver(resolver))
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "HELLO!" {
		t.Errorf("alerts = %v", a)
	}
}

func TestStageTimesPopulated(t *testing.T) {
	h, err := LoadPage(`<html><head><script type="text/xquery">1</script></head><body/></html>`,
		"http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if h.Times.ParsePage <= 0 || h.Times.InitPlugin <= 0 ||
		h.Times.CompileScripts <= 0 || h.Times.RunMain <= 0 {
		t.Errorf("stage times not instrumented: %+v", h.Times)
	}
	// The load event counts as the first dispatch.
	if h.Times.Dispatches < 1 {
		t.Errorf("dispatches = %d", h.Times.Dispatches)
	}
}

func TestCompileErrorSurfacesPageContext(t *testing.T) {
	_, err := LoadPage(`<html><head><script type="text/xquery">1 +</script></head><body/></html>`,
		"http://example.com/")
	if err == nil || !strings.Contains(err.Error(), "compiling page script") {
		t.Errorf("error = %v", err)
	}
}

func TestListenerErrorsReportedAsync(t *testing.T) {
	// A listener that fails at runtime must not crash the dispatch; the
	// error is surfaced through WaitIdle.
	page := `<html><head><script type="text/xquery">
		declare sequential function local:bad($evt, $obj) {
			browser:alert(1 div 0);
		};
		on event "click" at //input[@id="b"] attach listener local:bad
	</script></head><body><input id="b"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Click("b") // must not panic
	errs := h.WaitIdle(0)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "division by zero") {
		t.Errorf("listener error lost: %v", errs)
	}
}

func TestUpdateCountAcrossListeners(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		declare updating function local:two($evt, $obj) {
			(insert node <x/> into //body, insert node <y/> into //body)
		};
		on event "click" at //input[@id="b"] attach listener local:two
	</script></head><body><input id="b"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	before := h.UpdateCount()
	_ = h.Click("b")
	if got := h.UpdateCount() - before; got != 2 {
		t.Errorf("update delta = %d, want 2", got)
	}
}

// TestClickApplyBuildsNoIndex pins that a click turn's pending list —
// well over a handful of primitives — applies without building a
// document-order index: the host applies with elimination off, and
// only the gated elimination rule needs spans.
func TestClickApplyBuildsNoIndex(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		declare updating function local:f($evt, $obj) {
			for $d in /html/body/div
			return (replace value of node $d with "x", insert node <i/> into $d)
		};
		on event "click" at //input[@id="b"] attach listener local:f
	</script></head><body><input id="b"/><div/><div/><div/><div/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	// Loading may have cached an index; the first turn's mutations
	// leave it stale, so the second turn starts with no fresh index to
	// reuse.
	for turn := 1; turn <= 2; turn++ {
		before, builds0 := h.UpdateCount(), index.Snapshot().Builds
		if err := h.Click("b"); err != nil {
			t.Fatal(err)
		}
		if got := h.UpdateCount() - before; got != 8 {
			t.Errorf("turn %d: update delta = %d, want 8", turn, got)
		}
		if got := index.Snapshot().Builds - builds0; got != 0 {
			t.Errorf("turn %d built %d indexes", turn, got)
		}
	}
}

func TestKeyupDeliversKey(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		declare sequential function local:k($evt, $obj) {
			browser:alert(string($evt/key));
		};
		on event "keyup" at //input[@id="t"] attach listener local:k
	</script></head><body><input id="t"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Keyup("t", "Q"); err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "Q" {
		t.Errorf("alerts = %v", a)
	}
}

func TestWindowFrameNavigationExamples(t *testing.T) {
	// §4.2.1: declare variable $win := browser:self()/frames/window[2];
	// browser:alert($win/lastModified); and changing $win's location.
	loaded := []string{}
	loader := func(url string) (*dom.Node, error) {
		loaded = append(loaded, url)
		return dom.NewDocument(), nil
	}
	page := `<html><head><script type="text/xqueryp">
	{
		declare variable $win := browser:self()/frames/window[2];
		browser:alert(concat("second frame: ", string($win/@name)));
		browser:alert(string(exists($win/lastModified)));
		replace value of node $win/location/href
		with "http://www.dbis.ethz.ch/";
	}
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/", WithPageLoader(loader),
		WithBrowserSetup(func(b *browser.Browser) {
			for i, name := range []string{"first", "second"} {
				w := &browser.Window{Name: name}
				loc, _ := browser.ParseLocation(fmt.Sprintf("http://example.com/f%d", i))
				w.Location = loc
				b.Top().AddFrame(w)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	a := h.Alerts()
	if len(a) != 2 || a[0] != "second frame: second" || a[1] != "true" {
		t.Errorf("alerts = %v", a)
	}
	if len(loaded) != 1 || loaded[0] != "http://www.dbis.ethz.ch/" {
		t.Errorf("navigation = %v", loaded)
	}
	second := h.Browser.FindWindow("second")
	if second.Location.Hostname != "www.dbis.ethz.ch" {
		t.Errorf("frame location = %+v", second.Location)
	}
	// The top window did NOT navigate.
	if h.Window.Location.Hostname != "example.com" {
		t.Errorf("top window navigated: %+v", h.Window.Location)
	}
}

func TestSerializePageReflectsUpdates(t *testing.T) {
	h, err := LoadPage(`<html><head><script type="text/xquery">
		insert node <p class="new">added</p> into //body
	</script></head><body/></html>`, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.SerializePage(), `<p class="new">added</p>`) {
		t.Errorf("page = %s", h.SerializePage())
	}
}

func TestLoadFrameCrossFrameManipulation(t *testing.T) {
	// §4.2.3: access a child window's document and insert into it.
	h, err := LoadPage(`<html><head><script type="text/xquery">
		declare updating function local:stamp($evt, $obj) {
			let $w := browser:top()//window[@name="child"]
			let $d := browser:document($w)
			return insert node <stamp from="parent"/> into $d//body
		};
		on event "click" at //input[@id="go"] attach listener local:stamp
	</script></head><body><input id="go"/></body></html>`,
		"http://example.com/parent.html")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := h.LoadFrame("child", `<html><head><script type="text/xquery">
		browser:alert(concat("frame loaded as ", string(browser:self()/@name)))
	</script></head><body><p>frame content</p></body></html>`,
		"http://example.com/frame.html")
	if err != nil {
		t.Fatal(err)
	}
	// The frame's own script ran with the frame as self.
	a := h.Alerts()
	if len(a) != 1 || a[0] != "frame loaded as child" {
		t.Fatalf("frame alerts = %v", a)
	}
	// The parent manipulates the frame's document.
	if err := h.Click("go"); err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(0); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	out := markup.SerializeHTML(frame.Document)
	if !strings.Contains(out, `<stamp from="parent"/>`) {
		t.Errorf("frame document = %s", out)
	}
	// The parent's own body is untouched (its script text mentions
	// "stamp", so check the body element, not the whole page).
	parentBody := h.Page.Elements("body")[0]
	if strings.Contains(markup.SerializeHTML(parentBody), "stamp") {
		t.Error("stamp leaked into the parent document")
	}
}

func TestLoadFrameCrossOriginDocumentDenied(t *testing.T) {
	// §4.2.3: browser:document on a cross-origin window yields the
	// empty sequence, so the insert has nothing to target.
	h, err := LoadPage(`<html><head><script type="text/xquery">
		declare sequential function local:probe($evt, $obj) {
			browser:alert(string(count(
				browser:document(browser:top()//window[@name="foreign"]))));
		};
		on event "click" at //input[@id="go"] attach listener local:probe
	</script></head><body><input id="go"/></body></html>`,
		"http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.LoadFrame("foreign", `<html><body><p>secret</p></body></html>`,
		"https://other.example.org/"); err != nil {
		t.Fatal(err)
	}
	_ = h.Click("go")
	a := h.Alerts()
	if len(a) != 1 || a[0] != "0" {
		t.Errorf("cross-origin document count = %v, want [0]", a)
	}
}
