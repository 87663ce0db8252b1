// Package rules compiles Business Action Language rule texts against the
// BOM-to-XOM mapping into executable internal controls, and evaluates them
// over provenance traces.
//
// This is the integration Section III of the paper describes: "linking the
// internal controls to the provenance graph is done automatically ...
// since the phrases used to express internal controls are linked to the
// members of the java classes that represent the data model of the
// provenance graph". Compilation resolves every business phrase to an XOM
// member (attribute getter, method, or relation navigation) using the
// vocabulary; evaluation walks the trace subgraph.
//
// Evaluation is three-valued (design decision D1): comparisons over
// attributes that were never captured yield Unknown rather than false, so
// a partially managed process produces Indeterminate verdicts instead of
// false alarms. Whether a *record or edge* exists, however, is a definite
// question — the paper defines a control as satisfied "if the edges
// specified in the definition of internal control point exist" — so
// exists/is-null tests on navigations answer definitely.
package rules

import (
	"sync"
	"unsafe"

	"repro/internal/bal"
	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/xom"
)

// Verdict is the outcome of evaluating a control on one trace.
type Verdict int

const (
	// Satisfied: the condition held and the then-branch declared success,
	// or the condition failed and the else-branch declared success.
	Satisfied Verdict = iota + 1
	// Violated: the executed branch declared the control not satisfied.
	Violated
	// Indeterminate: the condition could not be decided because a value it
	// needs was never captured.
	Indeterminate
	// NotApplicable: a definition binder matched no record in the trace,
	// so the control's subject is absent.
	NotApplicable
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Satisfied:
		return "satisfied"
	case Violated:
		return "violated"
	case Indeterminate:
		return "indeterminate"
	case NotApplicable:
		return "not-applicable"
	default:
		return "invalid"
	}
}

// Definite reports whether the verdict is a definite compliance statement.
func (v Verdict) Definite() bool { return v == Satisfied || v == Violated }

// Result is the outcome of one evaluation.
type Result struct {
	// AppID is the evaluated trace.
	AppID string
	// Verdict is the control outcome.
	Verdict Verdict
	// Alerts collects messages from executed alert actions.
	Alerts []string
	// Bindings lists, in definition order, each node-typed definition
	// variable with the IDs of the nodes it bound — the sub-graph the
	// control point links to (Fig 2 of the paper).
	Bindings []Binding
	// causes explain the verdict; Notes renders them. Any verdict may
	// carry them, not only Indeterminate and NotApplicable.
	causes []cause
}

// Binding is one definition variable and the IDs of the nodes it bound.
type Binding struct {
	Var string
	IDs []string
}

// BindingMap renders Bindings keyed by variable, the shape the API and
// audit reports show. It is nil when nothing was bound.
func (r *Result) BindingMap() map[string][]string {
	if len(r.Bindings) == 0 {
		return nil
	}
	m := make(map[string][]string, len(r.Bindings))
	for _, b := range r.Bindings {
		m[b.Var] = b.IDs
	}
	return m
}

// RetainedBytes estimates the heap a kept Result holds beyond its own
// struct: the slices behind Alerts, Bindings (with every IDs slice) and
// the causes, and the bytes of the strings they name. Strings shared with
// the control or the trace count as the Result's: for a trace read from
// a sealed segment, the Result is what keeps them alive.
func (r *Result) RetainedBytes() int64 {
	const str = int64(unsafe.Sizeof(""))
	n := int64(cap(r.Alerts)) * str
	for _, a := range r.Alerts {
		n += int64(len(a))
	}
	n += int64(cap(r.Bindings)) * int64(unsafe.Sizeof(Binding{}))
	for _, b := range r.Bindings {
		n += int64(cap(b.IDs)) * str
		for _, id := range b.IDs {
			n += int64(len(id))
		}
	}
	n += int64(cap(r.causes)) * int64(unsafe.Sizeof(cause{}))
	for i := range r.causes {
		n += int64(len(r.causes[i].id))
	}
	return n
}

// tri is Kleene three-valued logic.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func (t tri) not() tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	default:
		return triUnknown
	}
}

func triAnd(a, b tri) tri {
	if a == triFalse || b == triFalse {
		return triFalse
	}
	if a == triTrue && b == triTrue {
		return triTrue
	}
	return triUnknown
}

func triOr(a, b tri) tri {
	if a == triTrue || b == triTrue {
		return triTrue
	}
	if a == triFalse && b == triFalse {
		return triFalse
	}
	return triUnknown
}

// exprType is the static type of a compiled expression: either a set of
// nodes of a known class, or a scalar value of a known kind.
type exprType struct {
	isNode bool
	class  *xom.Class      // set when isNode (nil = class statically unknown)
	kind   provenance.Kind // set when !isNode
}

func (t exprType) describe() string {
	if t.isNode {
		if t.class == nil {
			return "node"
		}
		return "node<" + t.class.Name + ">"
	}
	return t.kind.String()
}

// evalCtx carries evaluation state for one trace. Contexts are pooled:
// one evaluation takes a context with acquireEval and returns it with
// release, so the slot array and the navigation memo are reused rather
// than rebuilt per evaluation. Nothing a Result holds may point into a
// context.
type evalCtx struct {
	g     *provenance.Graph
	appID string
	// vars holds each definition variable's value at the slot the
	// compiler assigned it (definedVar.slot).
	vars []binding
	// this is thisBuf[:1] while a binder's where clause runs on a
	// candidate, nil otherwise.
	this    []*provenance.Node
	thisBuf [1]*provenance.Node
	// notes collects the causes the evaluation records; the Result takes
	// the slice.
	notes []cause
	// cache, when non-nil, shares binder candidate sets across controls
	// evaluated in one pass over the same snapshot (see BindingCache).
	cache *BindingCache
	// navMemo memoizes relation-navigation traversals within this one
	// evaluation: a phrase like "the approval of 'the request'" costs one
	// graph walk no matter how many times the rule text repeats it.
	navMemo map[navMemoKey][]*provenance.Node
}

var evalPool = sync.Pool{New: func() any {
	return &evalCtx{navMemo: make(map[navMemoKey][]*provenance.Node)}
}}

// acquireEval takes a pooled context with nvars empty slots.
func acquireEval(g *provenance.Graph, appID string, cache *BindingCache, nvars int) *evalCtx {
	ev := evalPool.Get().(*evalCtx)
	ev.g, ev.appID, ev.cache = g, appID, cache
	if cap(ev.vars) < nvars {
		ev.vars = make([]binding, nvars)
	}
	ev.vars = ev.vars[:nvars]
	return ev
}

// release clears everything the context references and returns it to the
// pool. The notes slice belongs to the Result by now and is dropped, not
// reused.
func (ev *evalCtx) release() {
	clear(ev.vars)
	clear(ev.navMemo)
	ev.vars = ev.vars[:0]
	ev.g, ev.appID, ev.cache, ev.this, ev.thisBuf[0], ev.notes = nil, "", nil, nil, nil, nil
	evalPool.Put(ev)
}

func (ev *evalCtx) note(c cause) {
	if cap(ev.notes) == 0 {
		// A note rarely comes alone: an operand that was not captured
		// leaves the test that reads it unknown too.
		ev.notes = make([]cause, 0, 2)
	}
	ev.notes = append(ev.notes, c)
}

// replay records causes a binding memo kept. An evaluation with no notes
// yet takes the memo's slice itself: its capacity is its length, so the
// next note copies it rather than write into it.
func (ev *evalCtx) replay(notes []cause) {
	if len(ev.notes) == 0 {
		ev.notes = notes
		return
	}
	ev.notes = append(ev.notes, notes...)
}

// navMemoKey identifies one traversal: a relation (relations are
// per-class singletons in the XOM) applied to one source node.
type navMemoKey struct {
	rel *xom.Relation
	src *provenance.Node
}

// navigate runs one relation navigation through the per-evaluation memo.
// The memoized slice may be returned to several readers; like every node
// set an evaluation produces, it is never written after it is built.
func (ev *evalCtx) navigate(src *provenance.Node, rel *xom.Relation) []*provenance.Node {
	k := navMemoKey{rel, src}
	if res, ok := ev.navMemo[k]; ok {
		return res
	}
	res := xom.Navigate(ev.g, src, rel)
	ev.navMemo[k] = res
	return res
}

// binding is a runtime variable value.
type binding struct {
	typ   exprType
	nodes []*provenance.Node
	val   provenance.Value
}

// compiledExpr evaluates to nodes or a value depending on its type.
type compiledExpr struct {
	typ exprType
	// nodes is set when typ.isNode.
	nodes func(ev *evalCtx) []*provenance.Node
	// value is set when !typ.isNode. A zero Value means unknown/absent.
	value func(ev *evalCtx) provenance.Value
}

type compiledCond func(ev *evalCtx) tri

type compiledAction func(ev *evalCtx, res *Result)

// compiledDef binds one definition variable.
type compiledDef struct {
	name   string
	typ    exprType
	binder *compiledBinder // set for "a <concept>" definitions
	expr   *compiledExpr   // set for expression definitions
}

type compiledBinder struct {
	class *xom.Class
	where compiledCond // nil = unconstrained
	plan  binderPlan   // access path, extracted at compile time
	// notApplicable is the note of a binder that matched nothing, shared
	// read-only by every result it explains.
	notApplicable []cause
}

// Control is a compiled internal control, ready to evaluate on traces.
type Control struct {
	text  string
	rt    *bal.RuleText
	defs  []compiledDef
	cond  compiledCond
	then  []compiledAction
	els   []compiledAction
	vocab *bom.Vocabulary
	// footprint is the compile-time data-dependency summary delta
	// discrimination consults; windows are the temporal predicates the
	// window tracker maintains from deltas.
	footprint *Footprint
	windows   []WindowSpec
}

// Text returns the original rule text.
func (c *Control) Text() string { return c.text }

// NodeVars lists the definition variables that bind nodes, in definition
// order; control deployment links the control-point custom node to them.
func (c *Control) NodeVars() []string {
	var out []string
	for _, d := range c.defs {
		if d.typ.isNode {
			out = append(out, d.name)
		}
	}
	return out
}
