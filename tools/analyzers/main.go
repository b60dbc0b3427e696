// Command analyzers runs the repository's custom Go invariant passes.
// They encode the serving-layer contracts the concurrency PR
// established:
//
//	progmutate  compiled programs (xquery.Program / xquery.Engine /
//	            runtime.Program) are immutable after construction: once
//	            a program is in the shared cache it is read concurrently
//	            without locks, so field writes are only legal inside
//	            constructor-shaped functions (New*/Compile*/With*/init).
//
//	ctxstruct   context.Context is never stored in a struct field in the
//	            serve/rest layers; contexts flow through call parameters
//	            so cancellation scopes stay explicit per request.
//
//	idxversion  the version-stamp discipline of the per-document index
//	            layer (internal/dom/index): inside package index, any
//	            function reading the index maps (names/ids/order) must
//	            consult the version stamp (call fresh() or compare
//	            version) unless it is the builder itself; outside the
//	            package, nobody calls the raw cache accessors
//	            Node.LoadIndexCache/StoreIndexCache — all access goes
//	            through index.For/index.Fresh, which are the only
//	            places allowed to compare the stamp.
//
//	ftversion   the same stamp discipline for the full-text index layer
//	            (internal/fulltext/index): inside the package, functions
//	            reading the posting/trigram/range maps (post, stemPost,
//	            gram, rng) must consult fresh()/version unless they are
//	            the builder; outside, nobody calls the raw slot
//	            accessors Node.LoadFTIndexCache/StoreFTIndexCache —
//	            access goes through index.For/Probe/Fresh/Attach.
//
//	planpure    the optimizer and the evaluator never mutate the
//	            shared AST: a parsed module is cached and compiled once
//	            but read by every run, so optimizer rewrites must
//	            build fresh nodes (copy-then-modify by value) instead of
//	            writing through *ast.Node pointers, and the walker keeps
//	            its hash-join tables and hoist memo cells in evaluation
//	            state, never in the tree. The one sanctioned
//	            in-place write is the planner's step annotation
//	            (Access/AccessID on *ast.Step in PlanStep), which is
//	            idempotent and published through Module.EnsurePlanned's
//	            sync.Once before any concurrent read.
//
//	storesync   the shard lock discipline of the document store
//	            (internal/xmldb): the raw shard state — the docs
//	            revision map — is only touched inside shard.go, whose
//	            methods uphold the mutex and MVCC publish rules. Every
//	            other file of package xmldb (scans, commits, HTTP
//	            handlers) must go through those methods; a stray
//	            sh.docs[...] elsewhere bypasses the lock.
//
//	pulapply    DOM structural mutation stays behind the pending-update
//	            list: outside internal/dom itself and the PUL applier
//	            (internal/xquery/update), no code may call the
//	            child/attribute-mutating dom.Node methods (AppendChild,
//	            Detach, SetAttr, Rename, ...). A direct call bypasses
//	            snapshot semantics, the undo log that makes applies
//	            atomic, and the version stamp dead-update
//	            elimination's index spans rely on. DOM-owning hosts (core, browser,
//	            jsruntime, markup) build trees before queries see them
//	            and are not scanned.
//
//	recovercheck  panic recovery only happens at sanctioned boundaries:
//	            naked recover() calls are forbidden everywhere except
//	            package xqerr (which implements RecoverInto), package
//	            faultpoint, and the parser's recoverTo. A bare
//	            recover() swallows the panic signal that quarantine
//	            and the failure metrics depend on.
//
// The passes would normally be go/analysis analyzers run through
// `go vet -vettool`, but go/analysis lives in golang.org/x/tools, which
// this repository deliberately does not depend on (builds must work
// with no module downloads). The same checks are implemented here on
// the stdlib go/parser + go/ast surface and run via `go run`:
//
//	go run ./tools/analyzers -check progmutate internal/xquery internal/xquery/runtime
//	go run ./tools/analyzers -check ctxstruct  internal/serve internal/rest
//
// Exit status: 0 clean, 1 if any finding was reported, 2 on bad usage
// or unparsable input.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// finding is one invariant violation.
type finding struct {
	pos token.Position
	msg string
}

func main() {
	check := flag.String("check", "", "pass to run: progmutate, ctxstruct, idxversion, ftversion, planpure, storesync, recovercheck or pulapply")
	flag.Parse()
	if *check == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: analyzers -check {progmutate|ctxstruct|idxversion|ftversion|planpure|storesync|recovercheck|pulapply} dir...")
		os.Exit(2)
	}

	fset := token.NewFileSet()
	var findings []finding
	for _, dir := range flag.Args() {
		files, err := loadDir(fset, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyzers: %v\n", err)
			os.Exit(2)
		}
		for _, f := range files {
			switch *check {
			case "progmutate":
				findings = append(findings, progMutate(fset, f)...)
			case "ctxstruct":
				findings = append(findings, ctxStruct(fset, f)...)
			case "idxversion":
				findings = append(findings, idxVersion(fset, f)...)
			case "ftversion":
				findings = append(findings, ftVersion(fset, f)...)
			case "planpure":
				findings = append(findings, planPure(fset, f)...)
			case "storesync":
				findings = append(findings, storeSync(fset, f)...)
			case "recovercheck":
				findings = append(findings, recoverCheck(fset, f)...)
			case "pulapply":
				findings = append(findings, pulApply(fset, f)...)
			default:
				fmt.Fprintf(os.Stderr, "analyzers: unknown check %q\n", *check)
				os.Exit(2)
			}
		}
	}
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// loadDir parses every non-test Go file directly in dir.
func loadDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// --- progmutate -----------------------------------------------------------------

// guardedTypes are the compiled-program types whose fields are frozen
// after construction.
var guardedTypes = map[string]bool{
	"Program": true,
	"Engine":  true,
}

// constructorName matches functions allowed to write guarded fields:
// constructors, compilers, option builders (whose closures configure a
// not-yet-published Engine) and package init.
var constructorName = regexp.MustCompile(`^(New|Compile|With|init$|MustCompile)`)

// progMutate reports assignments to fields of guarded types outside
// constructor-shaped functions. Detection is syntactic: an identifier
// counts as guarded when it is declared in the enclosing top-level
// function as a receiver, parameter or local of type Program/Engine
// (optionally pointer), including inside function literals.
func progMutate(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if constructorName.MatchString(fd.Name.Name) {
			continue
		}
		guarded := map[string]string{} // ident name -> type name
		bind := func(names []*ast.Ident, typ ast.Expr) {
			if tn, ok := guardedTypeName(typ); ok {
				for _, n := range names {
					guarded[n.Name] = tn
				}
			}
		}
		if fd.Recv != nil {
			for _, f := range fd.Recv.List {
				bind(f.Names, f.Type)
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				for _, f := range x.Type.Params.List {
					bind(f.Names, f.Type)
				}
			case *ast.DeclStmt:
				if gd, ok := x.Decl.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok && vs.Type != nil {
							bind(vs.Names, vs.Type)
						}
					}
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					for i, lhs := range x.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || i >= len(x.Rhs) {
							continue
						}
						if tn, ok := literalTypeName(x.Rhs[i]); ok {
							guarded[id.Name] = tn
						}
					}
				}
			}
			return true
		})
		for _, f := range fd.Type.Params.List {
			bind(f.Names, f.Type)
		}
		if len(guarded) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					out = append(out, flagWrite(fset, lhs, guarded, fd.Name.Name)...)
				}
			case *ast.IncDecStmt:
				out = append(out, flagWrite(fset, x.X, guarded, fd.Name.Name)...)
			}
			return true
		})
	}
	return out
}

// guardedTypeName unwraps *T / T and reports T when guarded.
func guardedTypeName(t ast.Expr) (string, bool) {
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name, guardedTypes[x.Name]
	case *ast.SelectorExpr:
		// e.g. runtime.Program from a sibling package.
		return x.Sel.Name, guardedTypes[x.Sel.Name]
	}
	return "", false
}

// literalTypeName recognises x := Program{...} / &Program{...} forms.
func literalTypeName(rhs ast.Expr) (string, bool) {
	if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
		rhs = u.X
	}
	if cl, ok := rhs.(*ast.CompositeLit); ok && cl.Type != nil {
		return guardedTypeName(cl.Type)
	}
	return "", false
}

// flagWrite reports lhs when it is a field selector on a guarded
// identifier.
func flagWrite(fset *token.FileSet, lhs ast.Expr, guarded map[string]string, fn string) []finding {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, ok := guarded[id.Name]
	if !ok {
		return nil
	}
	return []finding{{
		pos: fset.Position(lhs.Pos()),
		msg: fmt.Sprintf("progmutate: %s.%s written in %s; %s fields are immutable after construction",
			id.Name, sel.Sel.Name, fn, tn),
	}}
}

// --- ctxstruct ------------------------------------------------------------------

// ctxStruct reports struct fields of type context.Context (including
// embedded ones). context.CancelFunc and parameters are fine — the
// invariant is about storing a request's context beyond its call.
func ctxStruct(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			if isContextContext(f.Type) {
				out = append(out, finding{
					pos: fset.Position(f.Pos()),
					msg: fmt.Sprintf("ctxstruct: struct %s stores a context.Context; pass contexts as parameters instead",
						ts.Name.Name),
				})
			}
		}
		return true
	})
	return out
}

// --- idxversion -----------------------------------------------------------------

// indexMaps are the Doc fields whose contents are only meaningful for
// the document version the index was built at.
var indexMaps = map[string]bool{
	"names": true,
	"ids":   true,
	"order": true,
}

// idxBuilderName matches the functions allowed to touch the maps
// without a freshness check: the builder fills maps that are not yet
// published, and constructors shape empty ones.
var idxBuilderName = regexp.MustCompile(`^(build|new|New|init$)`)

// idxVersion enforces the index layer's version-stamp discipline. For
// files in package index, every non-builder function whose body reads a
// selector named names/ids/order must also mention the freshness guard
// (a fresh() call or a version comparison) somewhere in that body. For
// files in any other package, any call to LoadIndexCache or
// StoreIndexCache is flagged: those raw slots bypass the stamp check
// that index.For/index.Fresh perform, so only package index may touch
// them.
func idxVersion(fset *token.FileSet, file *ast.File) []finding {
	if file.Name.Name == "index" {
		return idxVersionInside(fset, file)
	}
	return idxVersionOutside(fset, file)
}

func idxVersionInside(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || idxBuilderName.MatchString(fd.Name.Name) {
			continue
		}
		var readsMap, checksVersion bool
		var firstRead token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if indexMaps[x.Sel.Name] && !readsMap {
					readsMap = true
					firstRead = x.Pos()
				}
				if x.Sel.Name == "fresh" || x.Sel.Name == "version" {
					checksVersion = true
				}
			case *ast.Ident:
				if x.Name == "fresh" || x.Name == "version" {
					checksVersion = true
				}
			}
			return true
		})
		if readsMap && !checksVersion {
			out = append(out, finding{
				pos: fset.Position(firstRead),
				msg: fmt.Sprintf("idxversion: %s reads an index map without checking the version stamp (call fresh() first)",
					fd.Name.Name),
			})
		}
	}
	return out
}

func idxVersionOutside(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "LoadIndexCache" || sel.Sel.Name == "StoreIndexCache" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("idxversion: %s called outside internal/dom/index; use index.For/index.Fresh, which check the version stamp",
					sel.Sel.Name),
			})
		}
		return true
	})
	return out
}

// --- ftversion ------------------------------------------------------------------

// ftIndexMaps are the full-text Doc fields whose contents are only
// meaningful for the document version the index was built at: the
// posting maps (exact and stemmed), the trigram map backing wildcard
// narrowing, and the per-node token-range map.
var ftIndexMaps = map[string]bool{
	"post":     true,
	"stemPost": true,
	"gram":     true,
	"rng":      true,
}

// ftVersion is idxversion's twin for the full-text index layer
// (internal/fulltext/index). Inside the package, every non-builder
// function reading a posting/range map must mention the freshness guard
// in its body; outside, calls to the raw dom cache slot accessors
// LoadFTIndexCache/StoreFTIndexCache are flagged — all access goes
// through index.For/index.Probe/index.Fresh/index.Attach, which own the
// version-stamp comparison.
func ftVersion(fset *token.FileSet, file *ast.File) []finding {
	if file.Name.Name == "index" {
		return ftVersionInside(fset, file)
	}
	return ftVersionOutside(fset, file)
}

func ftVersionInside(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || idxBuilderName.MatchString(fd.Name.Name) {
			continue
		}
		var readsMap, checksVersion bool
		var firstRead token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if ftIndexMaps[x.Sel.Name] && !readsMap {
					readsMap = true
					firstRead = x.Pos()
				}
				if x.Sel.Name == "fresh" || x.Sel.Name == "version" {
					checksVersion = true
				}
			case *ast.Ident:
				if x.Name == "fresh" || x.Name == "version" {
					checksVersion = true
				}
			}
			return true
		})
		if readsMap && !checksVersion {
			out = append(out, finding{
				pos: fset.Position(firstRead),
				msg: fmt.Sprintf("ftversion: %s reads a full-text index map without checking the version stamp (call fresh() first)",
					fd.Name.Name),
			})
		}
	}
	return out
}

func ftVersionOutside(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "LoadFTIndexCache" || sel.Sel.Name == "StoreFTIndexCache" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("ftversion: %s called outside internal/fulltext/index; use index.For/index.Probe/index.Fresh, which check the version stamp",
					sel.Sel.Name),
			})
		}
		return true
	})
	return out
}

func isContextContext(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context" && sel.Sel.Name == "Context"
}

// --- planpure -------------------------------------------------------------------

// planAnnotationFields are the step fields PlanStep writes in place:
// the access-method annotation is idempotent and published through
// Module.EnsurePlanned's sync.Once, so it is the one legal pointer
// write into the shared tree.
var planAnnotationFields = map[string]bool{
	"Access":   true,
	"AccessID": true,
}

// planPure reports field assignments that reach the shared AST through
// a pointer. In plan/runtime, an identifier typed *ast.X (receiver,
// parameter, declared local, or closure parameter) aliases a node of
// the cached parsed module, which concurrent runs read without locks —
// rewrites must copy the node by value and modify the copy. Writes to
// the planner's annotation fields on *ast.Step are exempt (see
// planAnnotationFields).
func planPure(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		guarded := map[string]string{} // ident name -> ast node type name
		bind := func(names []*ast.Ident, typ ast.Expr) {
			if tn, ok := astPtrType(typ); ok {
				for _, n := range names {
					guarded[n.Name] = tn
				}
			}
		}
		if fd.Recv != nil {
			for _, f := range fd.Recv.List {
				bind(f.Names, f.Type)
			}
		}
		for _, f := range fd.Type.Params.List {
			bind(f.Names, f.Type)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				for _, f := range x.Type.Params.List {
					bind(f.Names, f.Type)
				}
			case *ast.DeclStmt:
				if gd, ok := x.Decl.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok && vs.Type != nil {
							bind(vs.Names, vs.Type)
						}
					}
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					out = append(out, flagASTWrite(fset, lhs, guarded, fd.Name.Name)...)
				}
			case *ast.IncDecStmt:
				out = append(out, flagASTWrite(fset, x.X, guarded, fd.Name.Name)...)
			}
			return true
		})
	}
	return out
}

// astPtrType reports T for a *ast.T type expression, where ast is the
// xquery AST package's import name in the analyzed source.
func astPtrType(t ast.Expr) (string, bool) {
	st, ok := t.(*ast.StarExpr)
	if !ok {
		return "", false
	}
	sel, ok := st.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "ast" {
		return "", false
	}
	return sel.Sel.Name, true
}

// flagASTWrite reports lhs when it writes a field reachable from a
// guarded *ast.X identifier: s.F, s.F.G, s.Slice[i].F and deeper
// chains all root at the same shared node.
func flagASTWrite(fset *token.FileSet, lhs ast.Expr, guarded map[string]string, fn string) []finding {
	field := ""
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		field = sel.Sel.Name
	}
	root := lhs
	depth := 0
	for {
		switch x := root.(type) {
		case *ast.SelectorExpr:
			root, depth = x.X, depth+1
		case *ast.IndexExpr:
			root, depth = x.X, depth+1
		case *ast.ParenExpr:
			root = x.X
		case *ast.StarExpr:
			root = x.X
		default:
			goto done
		}
	}
done:
	id, ok := root.(*ast.Ident)
	if !ok || depth == 0 {
		return nil
	}
	tn, ok := guarded[id.Name]
	if !ok {
		return nil
	}
	if tn == "Step" && depth == 1 && planAnnotationFields[field] {
		return nil // the planner's sanctioned step annotation
	}
	return []finding{{
		pos: fset.Position(lhs.Pos()),
		msg: fmt.Sprintf("planpure: write through *ast.%s (%s) in %s; the parsed AST is shared across runs — copy the node and modify the copy",
			tn, id.Name, fn),
	}}
}

// --- storesync ------------------------------------------------------------------

// storeSync enforces the store's shard lock discipline: in package
// xmldb, the shard's raw docs map (the URI → revision state behind the
// shard mutex) may only be touched by shard.go, whose methods take the
// lock and publish immutable revisions. Any selector named docs in
// another file of the package is flagged — scans, commits and handlers
// must use the shard methods (get/publish/remove/snapshotSorted), which
// cannot skip the mutex or mutate a published revision. Other packages
// cannot reach the unexported field, so the compiler already covers
// them.
func storeSync(fset *token.FileSet, file *ast.File) []finding {
	if file.Name.Name != "xmldb" {
		return nil
	}
	if filepath.Base(fset.Position(file.Package).Filename) == "shard.go" {
		return nil
	}
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "docs" {
			out = append(out, finding{
				pos: fset.Position(sel.Pos()),
				msg: "storesync: raw shard docs-map access outside shard.go; use the shard methods, which uphold the lock and MVCC publish discipline",
			})
		}
		return true
	})
	return out
}

// --- recovercheck ---------------------------------------------------------------

// recoverCheck forbids naked recover() calls. Panic recovery is a
// serving-layer contract: a recovered panic must become a typed,
// counted error (xqerr.RecoverInto) so quarantine and the failure
// metrics see it — a bare recover() silently swallows the signal.
// Sanctioned sites: package xqerr (it implements the boundary helper),
// package faultpoint (test scaffolding for injected panics), and the
// parser's recoverTo, which converts its own positioned *Error panics
// and wraps everything else.
func recoverCheck(fset *token.FileSet, file *ast.File) []finding {
	pkg := file.Name.Name
	if pkg == "xqerr" || pkg == "faultpoint" {
		return nil
	}
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if pkg == "parser" && fd.Name.Name == "recoverTo" {
			continue
		}
		fn := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && len(call.Args) == 0 {
				out = append(out, finding{
					pos: fset.Position(call.Pos()),
					msg: fmt.Sprintf("recovercheck: naked recover() in %s.%s; use xqerr.RecoverInto so the panic becomes a typed, counted internal error",
						pkg, fn),
				})
			}
			return true
		})
	}
	return out
}

// --- pulapply -------------------------------------------------------------------

// domMutators are the dom.Node methods that change tree structure,
// attributes or character data — the operations the pending-update list
// mediates. The read-side surface (Parent, Children, Walk, ...) and the
// event-listener registry are deliberately absent.
var domMutators = map[string]bool{
	"AppendChild":           true,
	"PrependChild":          true,
	"InsertBefore":          true,
	"InsertAfter":           true,
	"Detach":                true,
	"ReplaceChild":          true,
	"SetAttr":               true,
	"AddAttrNode":           true,
	"RestoreChildAt":        true,
	"RestoreAttrAt":         true,
	"RemoveAttr":            true,
	"Rename":                true,
	"SetData":               true,
	"ReplaceElementContent": true,
	"RemoveChildren":        true,
}

// pulApply reports calls to child/attr-mutating dom methods outside the
// two packages allowed to make them: dom itself and the PUL applier
// (package update). Selectors on imported package names are skipped so
// os.Rename or a kind constant like update.Rename never trip the check;
// beyond that the match is name-based, like the other passes — the
// scanned packages hold no unrelated types sharing these method names.
func pulApply(fset *token.FileSet, file *ast.File) []finding {
	pkg := file.Name.Name
	if pkg == "dom" || pkg == "update" {
		return nil
	}
	imported := map[string]bool{}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = true
	}
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !domMutators[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && imported[id.Name] {
			return true // package-qualified function, not a node method
		}
		out = append(out, finding{
			pos: fset.Position(call.Pos()),
			msg: fmt.Sprintf("pulapply: direct DOM mutation %s in package %s; route the write through a pending-update list (internal/xquery/update) so it stays atomic, undoable and version-stamped",
				sel.Sel.Name, pkg),
		})
		return true
	})
	return out
}
