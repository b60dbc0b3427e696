package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Every workload input is generated here from the seed alone; the
// expected output of every op is computed here too, in Go, from the
// generator's own data and never from the engine.

// streamLen is the length of each closed-loop client's query stream;
// a client that exhausts it starts over.
const streamLen = 1 << 16

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// vocabulary returns n synthetic lower-case words with the given prefix;
// distinct prefixes give disjoint vocabularies.
func vocabulary(prefix string, n int) []string {
	syl := []string{"ka", "lo", "mi", "nu", "pe", "ri", "so", "tu", "va", "xe"}
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + syl[i/len(syl)%len(syl)] + syl[i%len(syl)] + syl[(i/7)%len(syl)]
	}
	return out
}

// readerWords are the abstract words of the Reference 2.0 corpus (and
// of the ftcontains searches); writerWords are the abstract words of
// articles the store_write writer adds, disjoint from readerWords so
// the reader's hit lists do not depend on how far the writer got.
var (
	readerWords = vocabulary("w", 60)
	writerWords = vocabulary("z", 20)
)

// --- Reference 2.0 corpus -------------------------------------------

type reference struct {
	year  int
	title string
}

type article struct {
	id, vol, issue, title string
	abstract              []string
	refs                  []reference
}

// corpus is a scaled Reference 2.0 corpus (apps.NewReference20 shape:
// journal/volume/issue/article catalog plus one document per article).
type corpus struct {
	volumes  []string
	issues   []string
	byIssue  map[string][]int
	byVolume map[string][]int
	articles []article
}

func genCorpus(rng *rand.Rand, journals, volumes, issues, perIssue, refs int) *corpus {
	c := &corpus{byIssue: map[string][]int{}, byVolume: map[string][]int{}}
	for j := 1; j <= journals; j++ {
		for v := 1; v <= volumes; v++ {
			vol := fmt.Sprintf("j%dv%d", j, v)
			c.volumes = append(c.volumes, vol)
			for i := 1; i <= issues; i++ {
				issue := fmt.Sprintf("j%dv%di%d", j, v, i)
				c.issues = append(c.issues, issue)
				for a := 1; a <= perIssue; a++ {
					art := article{
						id:    fmt.Sprintf("%sa%d", issue, a),
						vol:   vol,
						issue: issue,
						title: fmt.Sprintf("On %s and %s", readerWords[rng.IntN(len(readerWords))], readerWords[rng.IntN(len(readerWords))]),
					}
					for k := 0; k < 12; k++ {
						art.abstract = append(art.abstract, readerWords[rng.IntN(len(readerWords))])
					}
					for k := 0; k < refs; k++ {
						art.refs = append(art.refs, reference{1985 + rng.IntN(24), fmt.Sprintf("Ref %d", k)})
					}
					c.byIssue[issue] = append(c.byIssue[issue], len(c.articles))
					c.byVolume[vol] = append(c.byVolume[vol], len(c.articles))
					c.articles = append(c.articles, art)
				}
			}
		}
	}
	return c
}

// Articles live in one collection per volume under articleCollection,
// so analytic queries scan one volume.
const (
	articleCollection = "/db/articles"
	catalogURI        = "/db/catalog.xml"
)

func volumeCollection(vol string) string { return articleCollection + "/" + vol }

func (a *article) uri() string { return volumeCollection(a.vol) + "/" + a.id + ".xml" }

func (a *article) xml() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<article id="%s"><title>%s</title><abstract>%s</abstract><references>`,
		a.id, a.title, strings.Join(a.abstract, " "))
	for _, r := range a.refs {
		fmt.Fprintf(&b, `<ref year="%d" title="%s"/>`, r.year, r.title)
	}
	b.WriteString(`</references></article>`)
	return b.String()
}

func (c *corpus) catalogXML() string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for _, issue := range c.issues {
		fmt.Fprintf(&b, `<issue id="%s">`, issue)
		for _, i := range c.byIssue[issue] {
			a := &c.articles[i]
			fmt.Fprintf(&b, `<article id="%s" title="%s"/>`, a.id, a.title)
		}
		b.WriteString(`</issue>`)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// inVolume returns a volume's article indexes in collection (URI)
// order.
func (c *corpus) inVolume(vol string) []int {
	idx := append([]int(nil), c.byVolume[vol]...)
	sort.Slice(idx, func(x, y int) bool { return c.articles[idx[x]].uri() < c.articles[idx[y]].uri() })
	return idx
}

func hasWord(words []string, w string) bool {
	for _, x := range words {
		if x == w {
			return true
		}
	}
	return false
}

// --- render_query ---------------------------------------------------

// query is one distinct query text with the result the benchmark
// expects, as the serialized item or the string value.
type query struct {
	class int
	kind  string
	text  string
	want  string
}

// renderCorpusShape sizes render_query's corpus: 4 journals x 5
// volumes x 4 issues x 8 articles = 640 articles in 80 issues.
var renderCorpusShape = [5]int{4, 5, 4, 8, 12}

type renderInputs struct {
	corpus  *corpus
	queries []query
	streams [2][]int // per client: indexes into queries
	warm    []int    // queries touching every document, for set-up
}

func issueView(c *corpus, issue string) query {
	var want strings.Builder
	fmt.Fprintf(&want, `<div class="issue"><h1>Issue %s</h1><ul>`, issue)
	for _, i := range c.byIssue[issue] {
		a := &c.articles[i]
		fmt.Fprintf(&want, `<li class="entry" id="%s">%s</li>`, a.id, a.title)
	}
	want.WriteString(`</ul></div>`)
	return query{class: mainOp, kind: "issue", want: want.String(), text: fmt.Sprintf(
		`let $issue := %q return <div class="issue"><h1>{concat("Issue ", $issue)}</h1><ul>{for $a in doc(%q)//issue[@id = $issue]/article return <li class="entry" id="{$a/@id}">{string($a/@title)}</li>}</ul></div>`,
		issue, catalogURI)}
}

func articleView(a *article) query {
	return query{class: mainOp, kind: "article",
		want: fmt.Sprintf(`<div class="article"><h1>%s</h1><p>%s</p><p class="refcount">%d references</p></div>`,
			a.title, strings.Join(a.abstract, " "), len(a.refs)),
		text: fmt.Sprintf(
			`let $d := doc(%q) return <div class="article"><h1>{string($d/article/title)}</h1><p>{string($d/article/abstract)}</p><p class="refcount">{count($d/article/references/ref)} references</p></div>`,
			a.uri())}
}

func refsView(a *article) query {
	counts := map[int]int{}
	for _, r := range a.refs {
		counts[r.year]++
	}
	years := make([]int, 0, len(counts))
	for y := range counts {
		years = append(years, y)
	}
	sort.Ints(years)
	var want strings.Builder
	fmt.Fprintf(&want, `<div class="refs"><h1>References of %s</h1><ul>`, a.id)
	for _, y := range years {
		fmt.Fprintf(&want, `<li class="year">%d: %d</li>`, y, counts[y])
	}
	want.WriteString(`</ul></div>`)
	return query{class: mainOp, kind: "refs", want: want.String(), text: fmt.Sprintf(
		`let $d := doc(%q) return <div class="refs"><h1>{concat("References of ", string($d/article/@id))}</h1><ul>{for $y in distinct-values($d/article/references/ref/@year) order by $y return <li class="year">{concat($y, ": ", count($d/article/references/ref[@year = $y]))}</li>}</ul></div>`,
		a.uri())}
}

func yearScan(c *corpus, vol string, year int) query {
	var ids []string
	for _, i := range c.inVolume(vol) {
		for _, r := range c.articles[i].refs {
			if r.year == year {
				ids = append(ids, c.articles[i].id)
				break
			}
		}
	}
	return query{class: sideOp, kind: "scan", want: strings.Join(ids, ","), text: fmt.Sprintf(
		`string-join(for $d in collection(%q) where $d/article/references/ref/@year = "%d" return string($d/article/@id), ",")`,
		volumeCollection(vol), year)}
}

func wordSearch(c *corpus, vol, word string) query {
	var ids []string
	for _, i := range c.inVolume(vol) {
		if hasWord(c.articles[i].abstract, word) {
			ids = append(ids, c.articles[i].id)
		}
	}
	return query{class: sideOp, kind: "search", want: strings.Join(ids, ","), text: fmt.Sprintf(
		`string-join(for $d in collection(%q) where $d//abstract[. ftcontains %q] return string($d/article/@id), ",")`,
		volumeCollection(vol), word)}
}

func issueJoin(c *corpus, issue string) query {
	var out []string
	for _, i := range c.byIssue[issue] {
		a := &c.articles[i]
		out = append(out, fmt.Sprintf("%s:%d", a.id, len(a.refs)))
	}
	vol := c.articles[c.byIssue[issue][0]].vol
	return query{class: sideOp, kind: "join", want: strings.Join(out, ","), text: fmt.Sprintf(
		`string-join(for $e in doc(%q)//issue[@id = %q]/article, $d in collection(%q) where $d/article/@id = $e/@id return concat(string($e/@id), ":", count($d/article/references/ref)), ",")`,
		catalogURI, issue, volumeCollection(vol))}
}

// Query mix of render_query: viewShare of evals render a page view of
// a Zipf-popular id; the rest are analytic (scan, search, join) over
// one volume.
const (
	viewShare = 0.75
	zipfS     = 1.1
)

func genRender(seed uint64) *renderInputs {
	rng := newRand(seed, 0)
	s := renderCorpusShape
	c := genCorpus(rng, s[0], s[1], s[2], s[3], s[4])
	in := &renderInputs{corpus: c}
	add := func(q query) int { in.queries = append(in.queries, q); return len(in.queries) - 1 }
	var issueQ, articleQ, refsQ, scanQ, searchQ, joinQ []int
	for _, issue := range c.issues {
		issueQ = append(issueQ, add(issueView(c, issue)))
	}
	for i := range c.articles {
		articleQ = append(articleQ, add(articleView(&c.articles[i])))
		refsQ = append(refsQ, add(refsView(&c.articles[i])))
	}
	for _, vol := range c.volumes {
		for y := 1985; y < 2009; y++ {
			scanQ = append(scanQ, add(yearScan(c, vol, y)))
		}
		for _, w := range readerWords {
			searchQ = append(searchQ, add(wordSearch(c, vol, w)))
		}
	}
	for _, issue := range c.issues {
		joinQ = append(joinQ, add(issueJoin(c, issue)))
	}
	analytic := [][]int{scanQ, searchQ, joinQ}
	in.warm = append(append(in.warm, issueQ...), articleQ...)
	for v := range c.volumes {
		in.warm = append(in.warm, scanQ[v*24], searchQ[v*len(readerWords)])
	}
	in.warm = append(in.warm, joinQ...)
	// Popularity: a seeded permutation maps Zipf ranks to ids.
	issueRank, articleRank := rng.Perm(len(issueQ)), rng.Perm(len(articleQ))
	for cl := range in.streams {
		r := newRand(seed, uint64(cl)+1)
		zi := rand.NewZipf(r, zipfS, 1, uint64(len(issueQ)-1))
		za := rand.NewZipf(r, zipfS, 1, uint64(len(articleQ)-1))
		st := make([]int, streamLen)
		for k := range st {
			switch u := r.Float64(); {
			case u >= viewShare:
				kind := analytic[r.IntN(len(analytic))]
				st[k] = kind[r.IntN(len(kind))]
			case u < viewShare*0.2:
				st[k] = issueQ[issueRank[zi.Uint64()]]
			case u < viewShare*0.6:
				st[k] = articleQ[articleRank[za.Uint64()]]
			default:
				st[k] = refsQ[articleRank[za.Uint64()]]
			}
		}
		in.streams[cl] = st
	}
	return in
}

// --- page_session ---------------------------------------------------

// Page kinds of the page_session mix.
const (
	pageCounter10 = iota
	pageCounter100
	pageCounter1000
	pageMult
	pageCart
	numPageKinds
)

// pageMix is how many sessions of each page kind every block of
// mixBlock consecutive arrivals holds, in a seeded order.
var pageMix = [numPageKinds]int{5, 5, 2, 4, 4}

const mixBlock = 20

// cartProducts are the product buttons of the shopping-cart page
// (apps.ProductsXML).
var cartProducts = []string{"Keyboard", "Mouse", "Screen", "Computer"}

const clicksPerSession = 6

// sessionRate is page_session's open-loop arrival rate, sessions per
// second: it keeps about one of the two cores busy at the seed commit.
// Arrivals are spaced 1/sessionRate apart on average, each gap drawn
// uniformly from half to one and a half times that.
const sessionRate = 330.0

// click is one user action: a click on the element with id target,
// after typing size into the size box when size > 0.
type click struct {
	target string
	size   int
}

type session struct {
	due    time.Duration // arrival, from the start of the phase
	kind   int
	clicks []click
}

func genSessions(seed uint64, seconds float64) []session {
	rng := newRand(seed, 100)
	var block []int
	for kind, n := range pageMix {
		for i := 0; i < n; i++ {
			block = append(block, kind)
		}
	}
	var out []session
	var at float64
	for {
		at += (0.5 + rng.Float64()) / sessionRate
		if at >= seconds {
			return out
		}
		if len(out)%mixBlock == 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		s := session{due: time.Duration(at * float64(time.Second)), kind: block[len(out)%mixBlock]}
		size := 0
		for k := 0; k < clicksPerSession; k++ {
			var c click
			switch s.kind {
			case pageMult:
				if size == 0 || rng.IntN(2) == 0 {
					size = 4 + rng.IntN(9)
					c = click{target: "generate", size: size}
				} else {
					c = click{target: fmt.Sprintf("c%dx%d", 1+rng.IntN(size), 1+rng.IntN(size))}
				}
			case pageCart:
				c = click{target: cartProducts[rng.IntN(len(cartProducts))]}
			default:
				c = click{target: [2]string{"inc", "dec"}[rng.IntN(2)]}
			}
			s.clicks = append(s.clicks, c)
		}
		out = append(out, s)
	}
}

// counterPage is an E1-style page: a counter stepped by two buttons
// plus filler divs.
func counterPage(fillers int) string {
	var b strings.Builder
	b.WriteString(`<html><head><script type="text/xquery">
declare updating function local:step($evt, $obj) {
  replace value of node //span[@id="count"]
  with xs:integer(string(//span[@id="count"])) + xs:integer(string($obj/@step))
};
on event "click" at //input[@type="button"]
attach listener local:step
</script></head><body>
<input id="inc" type="button" step="1"/><input id="dec" type="button" step="-1"/><span id="count">0</span>`)
	for i := 0; i < fillers; i++ {
		fmt.Fprintf(&b, `<div class="filler" id="d%d">content %d</div>`, i, i)
	}
	b.WriteString(`</body></html>`)
	return b.String()
}

// sessionWant is what a page must show after the session's clicks:
// the counter value, the table cells and highlight, or the cart.
type sessionWant struct {
	count       int
	cells       []string
	highlighted []string // ids of the current table's highlighted cells
	cart        []string
}

func expectSession(s session) sessionWant {
	var w sessionWant
	size := 0
	for _, c := range s.clicks {
		switch {
		case c.target == "inc":
			w.count++
		case c.target == "dec":
			w.count--
		case c.size > 0:
			size, w.highlighted = c.size, nil
		case s.kind == pageMult:
			if !slices.Contains(w.highlighted, c.target) {
				w.highlighted = append(w.highlighted, c.target)
			}
		default:
			w.cart = append([]string{c.target}, w.cart...)
		}
	}
	for i := 1; i <= size; i++ {
		for j := 1; j <= size; j++ {
			w.cells = append(w.cells, strconv.Itoa(i*j))
		}
	}
	sort.Strings(w.highlighted)
	return w
}

// --- store_write ----------------------------------------------------

// storeCorpusShape sizes store_write's corpus: 2x4x4x5 = 160 articles.
var storeCorpusShape = [5]int{2, 4, 4, 5, 12}

// newSlots is how many URIs the writer's PutXML cycles through: new
// articles replace the slot's previous one, so the collection stays
// bounded however long the run.
const newSlots = 64

// writeOp is one writer commit.
type writeOp struct {
	kind    string // "insert" (a ref), "title" (replace) or "put" (new article)
	article int    // corpus index for insert/title
	slot    int    // new-article slot for put
	text    string // inserted ref year / new title / new abstract word
}

type storeInputs struct {
	corpus  *corpus
	writes  []writeOp
	queries []query
	reads   []int
}

func genStore(seed uint64) *storeInputs {
	rng := newRand(seed, 200)
	s := storeCorpusShape
	c := genCorpus(rng, s[0], s[1], s[2], s[3], s[4])
	in := &storeInputs{corpus: c}
	wr := newRand(seed, 201)
	za := rand.NewZipf(wr, zipfS, 1, uint64(len(c.articles)-1))
	rank := wr.Perm(len(c.articles))
	for k := 0; k < streamLen; k++ {
		switch {
		case k%2 == 1:
			in.writes = append(in.writes, writeOp{kind: "put", slot: wr.IntN(newSlots), text: writerWords[wr.IntN(len(writerWords))]})
		case wr.IntN(2) == 0:
			in.writes = append(in.writes, writeOp{kind: "insert", article: rank[za.Uint64()], text: strconv.Itoa(2100 + wr.IntN(50))})
		default:
			in.writes = append(in.writes, writeOp{kind: "title", article: rank[za.Uint64()], text: fmt.Sprintf("Revised %d", wr.IntN(1000000))})
		}
	}
	// Reader: path counts over refs older than a seeded year (the
	// writer only inserts refs from 2100 on, so the answer is fixed)
	// and ftcontains searches over abstracts.
	for i := range c.articles {
		a := &c.articles[i]
		year := 1986 + rng.IntN(24)
		n := 0
		for _, r := range a.refs {
			if r.year < year {
				n++
			}
		}
		in.queries = append(in.queries, query{class: sideOp, kind: "path", want: strconv.Itoa(n), text: fmt.Sprintf(
			`count(doc(%q)/article/references/ref[@year < %d])`, a.uri(), year)})
	}
	for _, vol := range c.volumes {
		for _, w := range readerWords {
			in.queries = append(in.queries, wordSearch(c, vol, w))
		}
	}
	rd := newRand(seed, 202)
	for k := 0; k < streamLen; k++ {
		if rd.IntN(4) == 0 {
			in.reads = append(in.reads, len(c.articles)+rd.IntN(len(readerWords)))
		} else {
			in.reads = append(in.reads, rank[za.Uint64()])
		}
	}
	return in
}

// newArticleURI is the URI of a new-article slot; slots spread over
// the volumes, so the reader's scans see the writer's documents.
func newArticleURI(c *corpus, slot int) string {
	return fmt.Sprintf("%s/new%02d.xml", volumeCollection(c.volumes[slot%len(c.volumes)]), slot)
}

// newArticleXML is the document a "put" write stores in its slot; seq
// makes every version distinct.
func newArticleXML(slot, seq int, word string) string {
	return fmt.Sprintf(`<article id="new%02d"><title>New %d</title><abstract>%s</abstract><references><ref year="2100" title="Ref 0"/></references></article>`,
		slot, seq, word)
}

// --- fed_scatter ----------------------------------------------------

const (
	fedShards   = 4
	fedItems    = 32
	fedCats     = 8
	fedMaxScore = 1000
)

type item struct {
	id    string
	cat   int
	score int
}

func (it item) uri() string { return "fed/" + it.id + ".xml" }

func (it item) xml() string {
	return fmt.Sprintf(`<item id="%s" cat="c%d" score="%d"><name>Item %s</name></item>`, it.id, it.cat, it.score, it.id)
}

type fedInputs struct {
	items   []item
	queries []query
	streams [2][]int
}

func genFed(seed uint64) *fedInputs {
	rng := newRand(seed, 300)
	in := &fedInputs{}
	for i := 0; i < fedItems; i++ {
		in.items = append(in.items, item{id: fmt.Sprintf("i%03d", i), cat: rng.IntN(fedCats), score: rng.IntN(fedMaxScore)})
	}
	byURI := append([]item(nil), in.items...)
	sort.Slice(byURI, func(a, b int) bool { return byURI[a].uri() < byURI[b].uri() })
	for cat := 0; cat < fedCats; cat++ {
		// Merge order: the base URIs of the category, as the k-way
		// merge across shards yields them.
		var uris []string
		for _, it := range byURI {
			if it.cat == cat {
				uris = append(uris, it.uri())
			}
		}
		in.queries = append(in.queries, query{class: mainOp, kind: "uris", want: strings.Join(uris, ","), text: fmt.Sprintf(
			`string-join(for $d in collection("/") where $d/item/@cat = "c%d" return base-uri($d), ",")`, cat)})
		// Ordering over the merged stream: by score, then id.
		var its []item
		for _, it := range byURI {
			if it.cat == cat {
				its = append(its, it)
			}
		}
		sort.SliceStable(its, func(a, b int) bool {
			if its[a].score != its[b].score {
				return its[a].score > its[b].score
			}
			return its[a].id < its[b].id
		})
		ids := make([]string, len(its))
		for i, it := range its {
			ids[i] = it.id
		}
		in.queries = append(in.queries, query{class: mainOp, kind: "ranked", want: strings.Join(ids, ","), text: fmt.Sprintf(
			`string-join(for $i in collection("/")/item[@cat = "c%d"] order by xs:integer($i/@score) descending, string($i/@id) return string($i/@id), ",")`, cat)})
	}
	mains := len(in.queries)
	for t := 0; t < fedMaxScore; t += 25 {
		n := 0
		for _, it := range in.items {
			if it.score > t {
				n++
			}
		}
		in.queries = append(in.queries, query{class: sideOp, kind: "count", want: strconv.Itoa(n), text: fmt.Sprintf(
			`count(collection("/")/item[xs:integer(@score) > %d])`, t)})
	}
	for cl := range in.streams {
		r := newRand(seed, 301+uint64(cl))
		st := make([]int, streamLen)
		for k := range st {
			if r.IntN(2) == 0 {
				st[k] = mains + r.IntN(len(in.queries)-mains)
			} else {
				st[k] = r.IntN(mains)
			}
		}
		in.streams[cl] = st
	}
	return in
}

// shardOf assigns items to shards round-robin by position.
func shardOf(i int) int { return i % fedShards }

// --- digest ---------------------------------------------------------

// inputDigest hashes everything a workload's run would be fed.
func inputDigest(workload string, seed uint64, seconds float64) (string, error) {
	h := sha256.New()
	switch workload {
	case "page_session":
		for _, s := range genSessions(seed, seconds) {
			fmt.Fprintf(h, "%d %d %v\n", s.due, s.kind, s.clicks)
		}
	case "render_query":
		in := genRender(seed)
		for _, q := range in.queries {
			fmt.Fprintln(h, q.text, q.want)
		}
		fmt.Fprintln(h, in.streams)
	case "store_write":
		in := genStore(seed)
		for i := range in.corpus.articles {
			fmt.Fprintln(h, in.corpus.articles[i].xml())
		}
		fmt.Fprintln(h, in.writes, in.reads)
		for _, q := range in.queries {
			fmt.Fprintln(h, q.text, q.want)
		}
	case "fed_scatter":
		in := genFed(seed)
		fmt.Fprintln(h, in.items, in.streams)
		for _, q := range in.queries {
			fmt.Fprintln(h, q.text, q.want)
		}
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
