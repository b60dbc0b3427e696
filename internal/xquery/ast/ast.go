// Package ast defines the abstract syntax of the extended XQuery dialect
// this repository implements: XQuery 1.0, the Update Facility, the
// Scripting Extension subset, full-text ftcontains, and the browser
// extensions proposed in the paper (§4.3 event grammar, §4.5 CSS
// grammar). QNames in the AST are fully resolved: the parser expands
// prefixes against the in-scope namespaces, so later phases never see a
// lexical prefix they cannot interpret.
package ast

import (
	"sync"

	"repro/internal/dom"
	"repro/internal/xdm"
)

// Expr is any expression node.
type Expr interface{ exprNode() }

// Pos is a source position: 1-based line and byte column. The zero Pos
// means "unknown" (a synthesised node). Nodes that the static analyzer
// reports on carry their position in an At field; PosOf retrieves it
// generically.
type Pos struct{ Line, Col int }

// Known reports whether the position was recorded.
func (p Pos) Known() bool { return p.Line > 0 }

// PosOf returns the source position of an expression, or the zero Pos
// for node kinds that do not record one.
func PosOf(e Expr) Pos {
	switch x := e.(type) {
	case VarRef:
		return x.At
	case FuncCall:
		return x.At
	case If:
		return x.At
	case FLWOR:
		if len(x.Clauses) > 0 {
			return x.Clauses[0].At
		}
	case Quantified:
		if len(x.Vars) > 0 {
			return x.Vars[0].At
		}
	case Typeswitch:
		return x.At
	case Insert:
		return x.At
	case Delete:
		return x.At
	case Replace:
		return x.At
	case Rename:
		return x.At
	case Transform:
		return x.At
	case Block:
		if len(x.Stmts) > 0 {
			return PosOf(x.Stmts[0])
		}
	case BlockDecl:
		return x.At
	case Assign:
		return x.At
	case While:
		return x.At
	case Exit:
		return x.At
	case EventAttach:
		return x.At
	case EventDetach:
		return x.At
	case EventTrigger:
		return x.At
	case SetStyle:
		return x.At
	case GetStyle:
		return x.At
	case Ordered:
		return PosOf(x.X)
	case SeqExpr:
		if len(x.Items) > 0 {
			return PosOf(x.Items[0])
		}
	}
	return Pos{}
}

// --- Literals and primaries ----------------------------------------------

// StringLit is a string literal.
type StringLit struct{ Val string }

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// DecimalLit is a decimal literal, kept in lexical form for exactness.
type DecimalLit struct{ Val string }

// DoubleLit is a double literal.
type DoubleLit struct{ Val float64 }

// VarRef is a variable reference $name.
type VarRef struct {
	Name dom.QName
	At   Pos
}

// ContextItem is the "." expression.
type ContextItem struct{}

// SeqExpr is the comma operator; with no items it is the empty sequence
// "()".
type SeqExpr struct{ Items []Expr }

// FuncCall is a static function call.
type FuncCall struct {
	Name dom.QName
	Args []Expr
	At   Pos
}

// Ordered is ordered{...} / unordered{...}; we always evaluate in order,
// so it is a transparent wrapper.
type Ordered struct{ X Expr }

// --- Control expressions --------------------------------------------------

// If is the conditional expression.
type If struct {
	Cond, Then, Else Expr
	At               Pos
}

// FLWOR is the for/let/where/order by/return expression.
type FLWOR struct {
	Clauses []Clause // for and let clauses, in order
	Where   Expr     // nil if absent
	OrderBy []OrderSpec
	Return  Expr

	// Join, when non-nil, is the optimizer's equality-join annotation:
	// the clause at Join.Clause can be executed as the build side of a
	// hash join instead of a nested loop. The annotated predicate is
	// removed from Where and kept in Join.Pred, so wherever the walker
	// does not hash (sequential mode) it gates the clause's tuples on
	// Join.Pred, which is the leading where conjunct it replaced.
	// Hoists is the number of ast.Hoisted memo slots this FLWOR owns.
	// Only the optimizer (internal/xquery/plan) writes these fields,
	// and only on its own copies of the tree — parsed modules never
	// carry them.
	Join   *JoinPlan
	Hoists int
}

// JoinPlan annotates a FLWOR with a detected equality join (see
// plan.Optimize). OuterKey depends only on clauses before Clause;
// InnerKey depends only on the clause variable itself. ValueEq
// distinguishes `eq` (value comparison, at-most-one key per tuple)
// from `=` (general comparison, existential over key sequences).
type JoinPlan struct {
	Clause    int  // index of the inner (build-side) for clause
	OuterKey  Expr // probe key, evaluated in the outer tuple's scope
	InnerKey  Expr // build key, evaluated with the clause var bound
	ValueEq   bool // eq (value comp) vs = (general comp)
	OuterLeft bool // OuterKey was the left operand (evaluation-order parity)
	Pred      Expr // the original predicate, for non-hash evaluation
}

// Hoisted marks a loop-invariant subexpression the optimizer lifted
// out of a FLWOR iteration: a let binding or where conjunct of the
// FLWOR that owns it. The walker evaluates it at most once per entry
// of that FLWOR (memoised at first use, so a zero-iteration loop never
// evaluates it) in the entry's memo cell Slot; in sequential mode it
// is a transparent wrapper, like Ordered. Only the optimizer
// constructs it.
type Hoisted struct {
	X    Expr
	Slot int // index into the owning FLWOR's Hoists memo cells
}

// Clause is a for or let clause of a FLWOR.
type Clause struct {
	For    bool
	Var    dom.QName
	PosVar dom.QName // "at $i", zero if absent (for only)
	Type   *xdm.SeqType
	In     Expr // binding sequence (for) or value (let)
	At     Pos  // position of the bound variable
}

// OrderSpec is one key of an order by clause.
type OrderSpec struct {
	Key        Expr
	Descending bool
	EmptyLeast bool
	EmptySet   bool // whether empty greatest/least was written
}

// Quantified is some/every $x in ... satisfies ....
type Quantified struct {
	Every     bool
	Vars      []Clause // For is true for all of them
	Satisfies Expr
}

// Typeswitch is the typeswitch expression.
type Typeswitch struct {
	Operand    Expr
	Cases      []TypeswitchCase
	DefaultVar dom.QName // zero if unnamed
	Default    Expr
	At         Pos
}

// TypeswitchCase is one case of a typeswitch.
type TypeswitchCase struct {
	Var  dom.QName // zero if unnamed
	Type xdm.SeqType
	Body Expr
	At   Pos
}

// --- Operators --------------------------------------------------------------

// Binary covers or, and, arithmetic (+ - * div idiv mod), union (| union),
// intersect and except; Op holds the operator name.
type Binary struct {
	Op   string
	L, R Expr
}

// CompareKind distinguishes the three comparison families.
type CompareKind int

// Comparison families.
const (
	GeneralComp CompareKind = iota // = != < <= > >=
	ValueComp                      // eq ne lt le gt ge
	NodeComp                       // is << >>
)

// Compare is a comparison expression.
type Compare struct {
	Op   string
	Kind CompareKind
	L, R Expr
}

// Unary is a chain of unary +/- collapsed to a single sign.
type Unary struct {
	Neg bool
	X   Expr
}

// Range is the "to" expression.
type Range struct{ L, R Expr }

// InstanceOf is "instance of".
type InstanceOf struct {
	X    Expr
	Type xdm.SeqType
}

// TreatAs is "treat as".
type TreatAs struct {
	X    Expr
	Type xdm.SeqType
}

// CastAs covers "cast as" and "castable as" (Castable flag).
type CastAs struct {
	X        Expr
	Type     xdm.Type
	Optional bool // "?" on the single type
	Castable bool
}

// --- Paths -----------------------------------------------------------------

// Axis enumerates the XPath axes.
type Axis int

// The thirteen axes (namespace excluded).
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
	AxisSelf
	AxisDescendantOrSelf
	AxisFollowingSibling
	AxisFollowing
	AxisParent
	AxisAncestor
	AxisPrecedingSibling
	AxisPreceding
	AxisAncestorOrSelf
)

// Reverse reports whether the axis is a reverse axis (affects predicate
// position numbering).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisPrecedingSibling, AxisPreceding, AxisAncestorOrSelf:
		return true
	}
	return false
}

// String returns the axis name.
func (a Axis) String() string {
	return [...]string{"child", "descendant", "attribute", "self",
		"descendant-or-self", "following-sibling", "following", "parent",
		"ancestor", "preceding-sibling", "preceding", "ancestor-or-self"}[a]
}

// NodeTest selects nodes on an axis. Exactly one of the fields is
// meaningful: a name test (possibly wildcarded), a kind test, or the
// universal node() test.
type NodeTest struct {
	// AnyNode is the node() test.
	AnyNode bool

	// Name test: Local "*" matches any local name; Space "*" (lexical
	// prefix wildcard) matches any namespace.
	Name     dom.QName
	AnySpace bool
	IsName   bool

	// Kind test: one of the node types, zero otherwise. KindName
	// optionally constrains element()/attribute() names; PITarget
	// constrains processing-instruction(target).
	Kind     xdm.Type
	KindName dom.QName
	HasName  bool
	PITarget string
}

// AccessMethod is the path planner's choice of access path for an axis
// step (see internal/xquery/plan). The zero value is AccessScan, so an
// unplanned AST evaluates exactly as before planning existed.
type AccessMethod uint8

// Access methods.
const (
	// AccessScan walks the axis node by node (the default).
	AccessScan AccessMethod = iota
	// AccessIndexName probes the per-document element-name index:
	// candidates are the subtree slice of the name's document-order
	// list instead of a full subtree walk.
	AccessIndexName
	// AccessIndexID probes the per-document "id" attribute index: the
	// step's first predicate pins @id to the string literal recorded
	// in AccessID.
	AccessIndexID
	// AccessFT probes the per-document full-text index: the step's
	// first predicate is an ftcontains over the context item with
	// all-literal sources, and candidates come from posting-list
	// intersection/union instead of a subtree walk.
	AccessFT
)

// String returns the access-method name (profiler/debug output).
func (a AccessMethod) String() string {
	switch a {
	case AccessIndexName:
		return "index-name"
	case AccessIndexID:
		return "index-id"
	case AccessFT:
		return "index-ft"
	default:
		return "scan"
	}
}

// Step is one step of a relative path: either an axis step or a primary
// ("filter") expression, each with trailing predicates.
type Step struct {
	// Axis step (when Primary is nil).
	Axis Axis
	Test NodeTest

	// Filter step.
	Primary Expr

	Preds []Expr

	// Access is the planner's access-path annotation for this step,
	// written exactly once per module by Module.EnsurePlanned before
	// the module is shared; evaluation only reads it. AccessID holds
	// the literal id value for AccessIndexID.
	Access   AccessMethod
	AccessID string
}

// Path is a path expression. Absolute paths start at the root of the
// context node's tree ("/..."); an empty Steps list with Absolute set is
// the "/" expression itself.
type Path struct {
	Absolute bool
	Steps    []Step
}

// --- Constructors ------------------------------------------------------------

// DirElem is a direct element constructor. Attribute and content values
// interleave literal text (StringLit) with enclosed expressions.
type DirElem struct {
	Name    dom.QName
	Attrs   []DirAttr
	Content []Expr // StringLit text runs, nested constructors, enclosed exprs
}

// DirAttr is an attribute of a direct element constructor.
type DirAttr struct {
	Name   dom.QName
	Pieces []Expr // StringLit and enclosed expressions
}

// CompConstructor is a computed constructor. Kind selects the node type;
// for element/attribute/PI either Name or NameExpr gives the name.
type CompConstructor struct {
	Kind     xdm.Type
	Name     dom.QName
	NameExpr Expr
	Content  Expr // nil for empty
}

// --- Update Facility ---------------------------------------------------------

// InsertPos says where an insert places its nodes.
type InsertPos int

// Insert positions.
const (
	Into InsertPos = iota
	IntoFirst
	IntoLast
	Before
	After
)

// Insert is "insert node(s) Source ... Target".
type Insert struct {
	Source Expr
	Target Expr
	Pos    InsertPos
	At     Pos
}

// Delete is "delete node(s) Target".
type Delete struct {
	Target Expr
	At     Pos
}

// Replace is "replace (value of)? node Target with With".
type Replace struct {
	ValueOf bool
	Target  Expr
	With    Expr
	At      Pos
}

// Rename is "rename node Target as NewName".
type Rename struct {
	Target  Expr
	NewName Expr
	At      Pos
}

// Transform is "copy $x := e modify m return r".
type Transform struct {
	Bindings []Clause // Var + In
	Modify   Expr
	Return   Expr
	At       Pos
}

// --- Scripting extension -------------------------------------------------------

// Block is a sequential block "{ stmt; stmt; ... }" (or "block {...}").
// Statements see the side effects of earlier statements.
type Block struct {
	Stmts []Expr
}

// BlockDecl is "declare variable $x := e;" inside a block.
type BlockDecl struct {
	Var  dom.QName
	Type *xdm.SeqType
	Init Expr // nil means empty sequence
	At   Pos
}

// Assign is "set $x := e" or "$x := e".
type Assign struct {
	Var dom.QName
	Val Expr
	At  Pos
}

// While is the scripting while loop.
type While struct {
	Cond Expr
	Body Expr
	At   Pos
}

// Exit is "exit with e" / "exit returning e".
type Exit struct {
	With Expr
	At   Pos
}

// Break is the scripting "break" statement (§3.3).
type Break struct{}

// Continue is the scripting "continue" statement (§3.3).
type Continue struct{}

// --- Browser extensions (paper §4.3, §4.5) -----------------------------------

// EventAttach is "on event E (at|behind) T attach listener F".
type EventAttach struct {
	Event    Expr
	Target   Expr
	Behind   bool // asynchronous-call binding (§4.4)
	Listener dom.QName
	At       Pos
}

// EventDetach is "on event E at T detach listener F".
type EventDetach struct {
	Event    Expr
	Target   Expr
	Listener dom.QName
	At       Pos
}

// EventTrigger is "trigger event E at T".
type EventTrigger struct {
	Event  Expr
	Target Expr
	At     Pos
}

// SetStyle is "set style P of T to V".
type SetStyle struct {
	Prop, Target, Value Expr
	At                  Pos
}

// GetStyle is "get style P of T".
type GetStyle struct {
	Prop, Target Expr
	At           Pos
}

// --- Full text ------------------------------------------------------------------

// FTContains is "X ftcontains Selection".
type FTContains struct {
	X   Expr
	Sel FTSelection
}

// FTSelection is a full-text selection tree.
type FTSelection interface{ ftNode() }

// FTWords matches the words/phrases produced by an expression; each
// string item is a phrase whose tokens must occur consecutively.
type FTWords struct {
	Source Expr
	// AnyAll: "any" (default), "all", "any word", "all words", "phrase".
	AnyAll string
	Opts   FTOptions
}

// FTAnd requires both selections to match.
type FTAnd struct{ L, R FTSelection }

// FTOr requires either selection to match.
type FTOr struct{ L, R FTSelection }

// FTNot is ftnot / not-in negation.
type FTNot struct{ X FTSelection }

// FTOptions are the match options we support (paper uses stemming).
type FTOptions struct {
	Stemming      bool
	CaseSensitive bool
	// Wildcards enables the W3C wildcard constructs ("." with optional
	// "?", "*", "+" or "{n,m}" quantifier) in query words.
	Wildcards bool
}

func (FTWords) ftNode() {}
func (FTAnd) ftNode()   {}
func (FTOr) ftNode()    {}
func (FTNot) ftNode()   {}

// --- Modules ----------------------------------------------------------------------

// Param is a function parameter.
type Param struct {
	Name dom.QName
	Type *xdm.SeqType
}

// FuncDecl is a function declaration from the prolog.
type FuncDecl struct {
	Name       dom.QName
	Params     []Param
	ReturnType *xdm.SeqType
	Body       Expr // nil for external
	Updating   bool
	Sequential bool
	External   bool
	At         Pos
}

// VarDecl is a global variable declaration from the prolog.
type VarDecl struct {
	Name     dom.QName
	Type     *xdm.SeqType
	Init     Expr // nil for external
	External bool
	At       Pos
}

// ModuleImport records "import module namespace p = uri (at hints)?;".
type ModuleImport struct {
	Prefix string
	URI    string
	Hints  []string
}

// Prolog is the query prolog.
type Prolog struct {
	Namespaces    map[string]string // prefix -> URI declared by the query
	DefaultElemNS string
	DefaultFnNS   string
	Vars          []VarDecl
	Functions     []FuncDecl
	Imports       []ModuleImport
	Options       map[string]string // lexical QName -> value
}

// Module is a parsed main or library module.
type Module struct {
	// Library module header: "module namespace p = uri (port:N)?;".
	IsLibrary bool
	Prefix    string
	URI       string
	Port      int // webservice extension (paper §3.4), 0 if absent

	Prolog Prolog
	Body   Expr // nil for library modules

	planOnce sync.Once
}

// EnsurePlanned runs f exactly once over the module's lifetime — the
// hook the path planner uses to annotate Step.Access in place. Parsed
// modules are shared across engines by the program cache and compiled
// concurrently, so the annotation pass needs a happens-before edge to
// every reader; sync.Once provides it. Apart from this single guarded
// pass the AST stays read-only after parse.
func (m *Module) EnsurePlanned(f func()) { m.planOnce.Do(f) }

func (StringLit) exprNode()       {}
func (IntLit) exprNode()          {}
func (DecimalLit) exprNode()      {}
func (DoubleLit) exprNode()       {}
func (VarRef) exprNode()          {}
func (ContextItem) exprNode()     {}
func (SeqExpr) exprNode()         {}
func (FuncCall) exprNode()        {}
func (Ordered) exprNode()         {}
func (If) exprNode()              {}
func (FLWOR) exprNode()           {}
func (Quantified) exprNode()      {}
func (Typeswitch) exprNode()      {}
func (Binary) exprNode()          {}
func (Compare) exprNode()         {}
func (Unary) exprNode()           {}
func (Range) exprNode()           {}
func (InstanceOf) exprNode()      {}
func (TreatAs) exprNode()         {}
func (CastAs) exprNode()          {}
func (Path) exprNode()            {}
func (DirElem) exprNode()         {}
func (CompConstructor) exprNode() {}
func (Insert) exprNode()          {}
func (Delete) exprNode()          {}
func (Replace) exprNode()         {}
func (Rename) exprNode()          {}
func (Transform) exprNode()       {}
func (Block) exprNode()           {}
func (BlockDecl) exprNode()       {}
func (Assign) exprNode()          {}
func (While) exprNode()           {}
func (Exit) exprNode()            {}
func (Break) exprNode()           {}
func (Continue) exprNode()        {}
func (EventAttach) exprNode()     {}
func (EventDetach) exprNode()     {}
func (EventTrigger) exprNode()    {}
func (SetStyle) exprNode()        {}
func (GetStyle) exprNode()        {}
func (FTContains) exprNode()      {}
func (Hoisted) exprNode()         {}
