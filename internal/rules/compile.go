package rules

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bal"
	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/xom"
)

// Compile parses the rule text against the vocabulary and resolves every
// phrase through the BOM-to-XOM mapping. Compilation performs the full
// static analysis: unknown variables, phrase/class mismatches, and type
// errors are reported with source positions, so a business user gets
// editor-style feedback without touching application code.
func Compile(text string, vocab *bom.Vocabulary) (*Control, error) {
	if vocab == nil {
		return nil, fmt.Errorf("rules: nil vocabulary")
	}
	rt, err := bal.Parse(text, vocabAdapter{vocab})
	if err != nil {
		return nil, err
	}
	return compileRule(text, rt, vocab)
}

// compileRule resolves a parsed rule text against the vocabulary.
func compileRule(text string, rt *bal.RuleText, vocab *bom.Vocabulary) (*Control, error) {
	c := &compiler{
		vocab:      vocab,
		vars:       make(map[string]definedVar),
		binderVars: make(map[string]bool),
		fpReads:    make(map[string]struct{}),
		fpEdges:    make(map[string]struct{}),
	}
	ctrl := &Control{text: text, rt: rt, vocab: vocab}
	for _, d := range rt.Definitions {
		cd, err := c.compileDefinition(d)
		if err != nil {
			return nil, err
		}
		ctrl.defs = append(ctrl.defs, cd)
	}
	cond, err := c.compileCond(rt.If)
	if err != nil {
		return nil, err
	}
	ctrl.cond = cond
	ctrl.then, err = c.compileActions(rt.Then)
	if err != nil {
		return nil, err
	}
	ctrl.els, err = c.compileActions(rt.Else)
	if err != nil {
		return nil, err
	}
	fp := &Footprint{wildcard: c.fpWildcard, reads: c.fpReads, edges: c.fpEdges}
	for _, d := range ctrl.defs {
		if d.binder != nil {
			fp.binders = append(fp.binders, d.binder.plan)
		}
	}
	ctrl.footprint = fp
	ctrl.windows = c.windows
	return ctrl, nil
}

// vocabAdapter bridges bom's phrase matcher to the parser's interface
// (identical semantics, distinct struct types to keep bom and bal
// decoupled).
type vocabAdapter struct {
	v *bom.Vocabulary
}

// MatchPhrases implements bal.Vocabulary.
func (a vocabAdapter) MatchPhrases(tokens []string) []bal.PhraseMatch {
	ms := a.v.MatchPhrases(tokens)
	out := make([]bal.PhraseMatch, len(ms))
	for i, m := range ms {
		out[i] = bal.PhraseMatch{Phrase: m.Phrase, N: m.N}
	}
	return out
}

// MatchConceptLabel implements bal.Vocabulary.
func (a vocabAdapter) MatchConceptLabel(tokens []string) (string, int, bool) {
	return a.v.MatchConceptLabel(tokens)
}

type compiler struct {
	vocab *bom.Vocabulary
	vars  map[string]definedVar
	// thisClass is non-nil while compiling a binder's where clause.
	thisClass *xom.Class

	// Footprint collection (see delta.go). binderVars marks variables
	// bound by "a <concept>" binders: attribute reads on them are covered
	// by the binder's access plan and stay out of fpReads.
	binderVars map[string]bool
	fpReads    map[string]struct{}
	fpEdges    map[string]struct{}
	fpWildcard bool
	// tscope, while non-nil, collects the timestamp sources of a Within
	// operand being compiled.
	tscope  *timeScope
	windows []WindowSpec
}

// definedVar is a definition variable's static type and its slot in
// evalCtx.vars: its position in definition order, which is also its index
// in Control.defs.
type definedVar struct {
	typ  exprType
	slot int
}

func errAt(pos bal.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

func (c *compiler) compileDefinition(d *bal.Definition) (compiledDef, error) {
	if _, ok := c.vars[d.Var]; ok {
		return compiledDef{}, errAt(d.Pos, "variable '%s' is defined twice", d.Var)
	}
	cd := compiledDef{name: d.Var}
	switch {
	case d.Binder != nil:
		concept := c.vocab.Concept(d.Binder.Concept)
		if concept == nil {
			return compiledDef{}, errAt(d.Binder.Pos, "unknown concept %q", d.Binder.Concept)
		}
		b := &compiledBinder{class: concept.Class}
		// Its capacity is its length: a result appending to it copies
		// rather than write into the slice every evaluation shares.
		b.notApplicable = []cause{{site: &noteSite{arg: argTrace,
			pre: fmt.Sprintf("no %s in trace ", concept.Class.Name), post: fmt.Sprintf(" for '%s'", d.Var)}}}
		if d.Binder.Where != nil {
			c.thisClass = concept.Class
			where, err := c.compileCond(d.Binder.Where)
			c.thisClass = nil
			if err != nil {
				return compiledDef{}, err
			}
			b.where = where
		}
		b.plan = c.buildBinderPlan(concept.Class, d.Binder.Where)
		cd.binder = b
		cd.typ = exprType{isNode: true, class: concept.Class}
		c.binderVars[d.Var] = true
	default:
		e, err := c.compileExpr(d.Expr)
		if err != nil {
			return compiledDef{}, err
		}
		cd.expr = e
		cd.typ = e.typ
	}
	c.vars[d.Var] = definedVar{typ: cd.typ, slot: len(c.vars)}
	return cd, nil
}

func (c *compiler) compileCond(cond bal.Cond) (compiledCond, error) {
	switch n := cond.(type) {
	case *bal.And:
		l, err := c.compileCond(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileCond(n.R)
		if err != nil {
			return nil, err
		}
		return func(ev *evalCtx) tri { return triAnd(l(ev), r(ev)) }, nil
	case *bal.Or:
		l, err := c.compileCond(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileCond(n.R)
		if err != nil {
			return nil, err
		}
		return func(ev *evalCtx) tri { return triOr(l(ev), r(ev)) }, nil
	case *bal.Not:
		in, err := c.compileCond(n.C)
		if err != nil {
			return nil, err
		}
		return func(ev *evalCtx) tri { return in(ev).not() }, nil
	case *bal.Cmp:
		return c.compileCmp(n)
	case *bal.IsNull:
		return c.compileNullness(n.E, n.Negated, n.Position())
	case *bal.Exists:
		// "X exists" is "X is not null"; "X does not exist" is "X is null".
		return c.compileNullness(n.E, !n.Negated, n.Position())
	case *bal.InList:
		return c.compileInList(n)
	case *bal.Between:
		return c.compileBetween(n)
	case *bal.Within:
		return c.compileWithin(n)
	case *bal.Contains:
		l, err := c.compileExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(n.R)
		if err != nil {
			return nil, err
		}
		for _, side := range []*compiledExpr{l, r} {
			if side.typ.isNode || side.typ.kind != provenance.KindString {
				return nil, errAt(n.Pos, "contains requires strings, got %s", side.typ.describe())
			}
		}
		unknown := staticSite("%s: operand of contains is unknown", n.Pos)
		return func(ev *evalCtx) tri {
			lv, rv := l.value(ev), r.value(ev)
			if lv.IsZero() || rv.IsZero() {
				ev.note(cause{site: unknown})
				return triUnknown
			}
			if strings.Contains(lv.Str(), rv.Str()) {
				return triTrue
			}
			return triFalse
		}, nil
	default:
		return nil, fmt.Errorf("rules: unsupported condition %T", cond)
	}
}

// compileNullness handles is-null / exists on both node-typed expressions
// (definite: does the record/edge exist in the provenance graph?) and
// value-typed ones (definite: was the attribute captured?).
func (c *compiler) compileNullness(e bal.Expr, wantPresent bool, pos bal.Pos) (compiledCond, error) {
	ce, err := c.compileExpr(e)
	if err != nil {
		return nil, err
	}
	if ce.typ.isNode {
		return func(ev *evalCtx) tri {
			present := len(ce.nodes(ev)) > 0
			if present == wantPresent {
				return triTrue
			}
			return triFalse
		}, nil
	}
	return func(ev *evalCtx) tri {
		present := !ce.value(ev).IsZero()
		if present == wantPresent {
			return triTrue
		}
		return triFalse
	}, nil
}

func (c *compiler) compileCmp(n *bal.Cmp) (compiledCond, error) {
	l, err := c.compileExpr(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compileExpr(n.R)
	if err != nil {
		return nil, err
	}
	if l.typ.isNode || r.typ.isNode {
		return nil, errAt(n.Pos, "cannot compare %s %s %s; compare attributes, or use exists",
			l.typ.describe(), n.Op, r.typ.describe())
	}
	if err := checkComparable(l.typ.kind, r.typ.kind, n.Op, n.Pos); err != nil {
		return nil, err
	}
	eq := n.Op == bal.OpEq || n.Op == bal.OpNe
	unknown := staticSite("%s: operand of %q is unknown", n.Pos, n.Op.String())
	incomparable := &noteSite{arg: argErr, pre: fmt.Sprintf("%s: ", n.Pos)}
	return func(ev *evalCtx) tri {
		lv, rv := l.value(ev), r.value(ev)
		if lv.IsZero() || rv.IsZero() {
			ev.note(cause{site: unknown})
			return triUnknown
		}
		if eq {
			same := lv.Equal(rv)
			if same == (n.Op == bal.OpEq) {
				return triTrue
			}
			return triFalse
		}
		cmp, err := lv.Compare(rv)
		if err != nil {
			ev.note(cause{site: incomparable, err: err})
			return triUnknown
		}
		var ok bool
		switch n.Op {
		case bal.OpLt:
			ok = cmp < 0
		case bal.OpLe:
			ok = cmp <= 0
		case bal.OpGt:
			ok = cmp > 0
		case bal.OpGe:
			ok = cmp >= 0
		}
		if ok {
			return triTrue
		}
		return triFalse
	}, nil
}

func checkComparable(a, b provenance.Kind, op bal.CmpOp, pos bal.Pos) error {
	numeric := func(k provenance.Kind) bool {
		return k == provenance.KindInt || k == provenance.KindFloat
	}
	comparable := a == b || (numeric(a) && numeric(b))
	if !comparable {
		return errAt(pos, "cannot compare %s to %s", a, b)
	}
	if op != bal.OpEq && op != bal.OpNe && a == provenance.KindBool {
		return errAt(pos, "ordered comparison on booleans")
	}
	return nil
}

func (c *compiler) compileInList(n *bal.InList) (compiledCond, error) {
	e, err := c.compileExpr(n.E)
	if err != nil {
		return nil, err
	}
	if e.typ.isNode {
		return nil, errAt(n.Pos, "is-one-of requires a value, got %s", e.typ.describe())
	}
	var items []*compiledExpr
	for _, it := range n.List {
		ce, err := c.compileExpr(it)
		if err != nil {
			return nil, err
		}
		if err := checkComparable(e.typ.kind, ce.typ.kind, bal.OpEq, it.Position()); err != nil {
			return nil, err
		}
		items = append(items, ce)
	}
	unknown := staticSite("%s: operand of is-one-of is unknown", n.Pos)
	return func(ev *evalCtx) tri {
		v := e.value(ev)
		if v.IsZero() {
			ev.note(cause{site: unknown})
			return triUnknown
		}
		for _, it := range items {
			iv := it.value(ev)
			if !iv.IsZero() && v.Equal(iv) {
				return triTrue
			}
		}
		return triFalse
	}, nil
}

// compileBetween lowers "X is between A and B" to an inclusive range test
// with the usual three-valued semantics.
func (c *compiler) compileBetween(n *bal.Between) (compiledCond, error) {
	e, err := c.compileExpr(n.E)
	if err != nil {
		return nil, err
	}
	lo, err := c.compileExpr(n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.compileExpr(n.Hi)
	if err != nil {
		return nil, err
	}
	if e.typ.isNode {
		return nil, errAt(n.Pos, "is-between requires a value, got %s", e.typ.describe())
	}
	for _, bound := range []*compiledExpr{lo, hi} {
		if bound.typ.isNode {
			return nil, errAt(n.Pos, "is-between bounds must be values, got %s", bound.typ.describe())
		}
		if err := checkComparable(e.typ.kind, bound.typ.kind, bal.OpLe, n.Pos); err != nil {
			return nil, err
		}
	}
	unknown := staticSite("%s: operand of is-between is unknown", n.Pos)
	incomparable := staticSite("%s: incomparable values in is-between", n.Pos)
	return func(ev *evalCtx) tri {
		v, lv, hv := e.value(ev), lo.value(ev), hi.value(ev)
		if v.IsZero() || lv.IsZero() || hv.IsZero() {
			ev.note(cause{site: unknown})
			return triUnknown
		}
		cl, err1 := v.Compare(lv)
		ch, err2 := v.Compare(hv)
		if err1 != nil || err2 != nil {
			ev.note(cause{site: incomparable})
			return triUnknown
		}
		if cl >= 0 && ch <= 0 {
			return triTrue
		}
		return triFalse
	}, nil
}

// navCoveredByBinder reports whether an attribute read through this
// operand only ever touches nodes a binder access plan already accounts
// for: the "this" of a where clause, or a variable bound by a binder.
func (c *compiler) navCoveredByBinder(of bal.Expr) bool {
	switch n := of.(type) {
	case *bal.This:
		return true
	case *bal.VarRef:
		return c.binderVars[n.Name]
	default:
		return false
	}
}

// compileWithin lowers the windowed temporal predicate
// "X is within <d> of Y" to |X - Y| <= d over two captured timestamps,
// with the usual three-valued semantics: a side that was never captured
// yields Unknown, never a false alarm. The predicate is deliberately
// clock-free — it compares recorded provenance, not the evaluation
// instant — so verdicts stay reproducible; wall-clock window expiry is
// the window tracker's job (controls package), fed by the same specs
// this compilation collects.
func (c *compiler) compileWithin(n *bal.Within) (compiledCond, error) {
	collect := func(e bal.Expr) (*compiledExpr, []TimeRef, bool, error) {
		prev := c.tscope
		c.tscope = &timeScope{}
		ce, err := c.compileExpr(e)
		scope := c.tscope
		c.tscope = prev
		if err != nil {
			return nil, nil, false, err
		}
		return ce, scope.refs, scope.any, nil
	}
	target, tRefs, tAny, err := collect(n.E)
	if err != nil {
		return nil, err
	}
	anchor, aRefs, aAny, err := collect(n.Anchor)
	if err != nil {
		return nil, err
	}
	for _, side := range []*compiledExpr{target, anchor} {
		if side.typ.isNode || side.typ.kind != provenance.KindTime {
			return nil, errAt(n.Pos, "is-within requires timestamps, got %s", side.typ.describe())
		}
	}
	window := time.Duration(n.Seconds) * time.Second
	c.windows = append(c.windows, WindowSpec{
		Window: window,
		Anchor: aRefs, AnchorAny: aAny,
		Target: tRefs, TargetAny: tAny,
	})
	unknown := staticSite("%s: operand of is-within is unknown", n.Pos)
	return func(ev *evalCtx) tri {
		tv, av := target.value(ev), anchor.value(ev)
		if tv.IsZero() || av.IsZero() {
			ev.note(cause{site: unknown})
			return triUnknown
		}
		d := tv.TimeVal().Sub(av.TimeVal())
		if d < 0 {
			d = -d
		}
		if d <= window {
			return triTrue
		}
		return triFalse
	}, nil
}

func (c *compiler) compileExpr(e bal.Expr) (*compiledExpr, error) {
	switch n := e.(type) {
	case *bal.Lit:
		return compileLit(n)
	case *bal.VarRef:
		v, ok := c.vars[n.Name]
		if !ok {
			return nil, errAt(n.Pos, "variable '%s' is not defined", n.Name)
		}
		typ, slot := v.typ, v.slot
		if typ.isNode {
			return &compiledExpr{typ: typ, nodes: func(ev *evalCtx) []*provenance.Node {
				return ev.vars[slot].nodes
			}}, nil
		}
		return &compiledExpr{typ: typ, value: func(ev *evalCtx) provenance.Value {
			return ev.vars[slot].val
		}}, nil
	case *bal.This:
		if c.thisClass == nil {
			return nil, errAt(n.Pos, "\"this\" is only valid inside a where clause")
		}
		return &compiledExpr{
			typ:   exprType{isNode: true, class: c.thisClass},
			nodes: func(ev *evalCtx) []*provenance.Node { return ev.this },
		}, nil
	case *bal.Nav:
		return c.compileNav(n)
	case *bal.Count:
		of, err := c.compileExpr(n.Of)
		if err != nil {
			return nil, err
		}
		if !of.typ.isNode {
			return nil, errAt(n.Pos, "the number of requires business objects, got %s", of.typ.describe())
		}
		return &compiledExpr{
			typ: exprType{kind: provenance.KindInt},
			value: func(ev *evalCtx) provenance.Value {
				return provenance.Int(int64(len(of.nodes(ev))))
			},
		}, nil
	case *bal.Binary:
		return c.compileBinary(n)
	case *bal.Neg:
		in, err := c.compileExpr(n.E)
		if err != nil {
			return nil, err
		}
		if in.typ.isNode || !isNumericKind(in.typ.kind) {
			return nil, errAt(n.Pos, "unary minus requires a number, got %s", in.typ.describe())
		}
		return &compiledExpr{typ: in.typ, value: func(ev *evalCtx) provenance.Value {
			v := in.value(ev)
			if v.IsZero() {
				return v
			}
			if v.Kind() == provenance.KindInt {
				return provenance.Int(-v.IntVal())
			}
			return provenance.Float(-v.FloatVal())
		}}, nil
	default:
		return nil, fmt.Errorf("rules: unsupported expression %T", e)
	}
}

func compileLit(n *bal.Lit) (*compiledExpr, error) {
	var v provenance.Value
	switch n.Kind {
	case bal.LitString:
		v = provenance.String(n.Text)
	case bal.LitInt:
		i, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil {
			return nil, errAt(n.Pos, "bad integer literal %q", n.Text)
		}
		v = provenance.Int(i)
	case bal.LitFloat:
		f, err := strconv.ParseFloat(n.Text, 64)
		if err != nil {
			return nil, errAt(n.Pos, "bad number literal %q", n.Text)
		}
		v = provenance.Float(f)
	case bal.LitBool:
		v = provenance.Bool(n.Text == "true")
	default:
		return nil, errAt(n.Pos, "unknown literal kind")
	}
	return &compiledExpr{
		typ:   exprType{kind: v.Kind()},
		value: func(*evalCtx) provenance.Value { return v },
	}, nil
}

// compileNav resolves "the <phrase> of <operand>" through the vocabulary:
// the operand must be node-typed with a statically known class, and the
// phrase must be verbalized on that class.
func (c *compiler) compileNav(n *bal.Nav) (*compiledExpr, error) {
	of, err := c.compileExpr(n.Of)
	if err != nil {
		return nil, err
	}
	if !of.typ.isNode {
		return nil, errAt(n.Pos, "%q applies to a business object, but %s is a %s",
			n.Phrase, n.Of.String(), of.typ.describe())
	}
	if of.typ.class == nil {
		return nil, errAt(n.Pos, "the type of %s is not known; cannot resolve %q",
			n.Of.String(), n.Phrase)
	}
	entry, err := c.vocab.Resolve(n.Phrase, of.typ.class)
	if err != nil {
		return nil, errAt(n.Pos, "%v", err)
	}
	single := newSingleSites(of, n)
	switch entry.Kind {
	case bom.Attribute:
		field := entry.Field
		notCaptured := &noteSite{arg: argNode, pre: fmt.Sprintf("%s: %q of ", n.Pos, n.Phrase), post: " was not captured"}
		// Footprint: an attribute read on "this" or on a binder-bound
		// variable only ever touches nodes that passed the binder's
		// prefilters, so the binder's access plan covers it; any other
		// operand (a navigation result) makes every write to the class a
		// potential influence.
		if !c.navCoveredByBinder(n.Of) {
			c.fpReads[of.typ.class.Name] = struct{}{}
		}
		if c.tscope != nil && entry.ResultKind == provenance.KindTime {
			c.tscope.refs = append(c.tscope.refs, TimeRef{Type: of.typ.class.Name, Field: field.Name})
		}
		return &compiledExpr{
			typ: exprType{kind: entry.ResultKind},
			value: func(ev *evalCtx) provenance.Value {
				node, ok := singleNode(ev, of, single)
				if !ok {
					return provenance.Value{}
				}
				v := field.Get(node)
				if v.IsZero() {
					ev.note(cause{site: notCaptured, id: node.ID})
				}
				return v
			},
		}, nil
	case bom.MethodCall:
		method := entry.Method
		// A method body may read anything in the graph: the footprint
		// degrades to wildcard rather than guess at its reads.
		c.fpWildcard = true
		if c.tscope != nil && entry.ResultKind == provenance.KindTime {
			c.tscope.any = true
		}
		failed := &noteSite{arg: argErr, pre: fmt.Sprintf("%s: %q failed: ", n.Pos, n.Phrase)}
		unknown := &noteSite{arg: argNode, pre: fmt.Sprintf("%s: %q of ", n.Pos, n.Phrase), post: " is unknown"}
		return &compiledExpr{
			typ: exprType{kind: entry.ResultKind},
			value: func(ev *evalCtx) provenance.Value {
				node, ok := singleNode(ev, of, single)
				if !ok {
					return provenance.Value{}
				}
				v, err := xom.Call(ev.g, node, method)
				if err != nil {
					ev.note(cause{site: failed, err: err})
					return provenance.Value{}
				}
				if v.IsZero() {
					ev.note(cause{site: unknown, id: node.ID})
				}
				return v
			},
		}, nil
	case bom.RelationNav:
		rel := entry.Relation
		c.fpEdges[rel.EdgeType] = struct{}{}
		var class *xom.Class
		if entry.ResultConcept != nil {
			class = entry.ResultConcept.Class
		}
		return &compiledExpr{
			typ: exprType{isNode: true, class: class},
			nodes: func(ev *evalCtx) []*provenance.Node {
				srcs := of.nodes(ev)
				if len(srcs) == 1 {
					// One source's navigation is already unique and
					// sorted; node sets are read-only, so the memoized
					// slice is shared rather than copied.
					return ev.navigate(srcs[0], rel)
				}
				var out []*provenance.Node
				for _, src := range srcs {
					out = append(out, ev.navigate(src, rel)...)
				}
				return dedupNodes(out)
			},
		}, nil
	default:
		return nil, errAt(n.Pos, "phrase %q has unsupported member kind", n.Phrase)
	}
}

// singleSites are the notes of one navigation whose operand must be a
// single node: it was absent, or it was ambiguous.
type singleSites struct {
	absent, ambiguous *noteSite
}

func newSingleSites(of *compiledExpr, n *bal.Nav) singleSites {
	return singleSites{
		absent:    staticSite("%s: no %s to take %q of", n.Pos, of.typ.describe(), n.Phrase),
		ambiguous: &noteSite{arg: argCount, pre: fmt.Sprintf("%s: ", n.Pos), post: fmt.Sprintf(" candidates for %q; ambiguous", n.Phrase)},
	}
}

// singleNode extracts the unique node from a node-typed operand, noting
// absence and ambiguity.
func singleNode(ev *evalCtx, of *compiledExpr, s singleSites) (*provenance.Node, bool) {
	nodes := of.nodes(ev)
	switch len(nodes) {
	case 1:
		return nodes[0], true
	case 0:
		ev.note(cause{site: s.absent})
		return nil, false
	default:
		ev.note(cause{site: s.ambiguous, n: len(nodes)})
		return nil, false
	}
}

func dedupNodes(in []*provenance.Node) []*provenance.Node {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, n := range in {
		if !seen[n.ID] {
			seen[n.ID] = true
			out = append(out, n)
		}
	}
	return out
}

func isNumericKind(k provenance.Kind) bool {
	return k == provenance.KindInt || k == provenance.KindFloat
}

func (c *compiler) compileBinary(n *bal.Binary) (*compiledExpr, error) {
	l, err := c.compileExpr(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compileExpr(n.R)
	if err != nil {
		return nil, err
	}
	if l.typ.isNode || r.typ.isNode || !isNumericKind(l.typ.kind) || !isNumericKind(r.typ.kind) {
		return nil, errAt(n.Pos, "arithmetic requires numbers, got %s and %s",
			l.typ.describe(), r.typ.describe())
	}
	kind := provenance.KindInt
	if l.typ.kind == provenance.KindFloat || r.typ.kind == provenance.KindFloat || n.Op == "/" {
		kind = provenance.KindFloat
	}
	op := n.Op
	divByZero := staticSite("%s: division by zero", n.Pos)
	return &compiledExpr{
		typ: exprType{kind: kind},
		value: func(ev *evalCtx) provenance.Value {
			lv, rv := l.value(ev), r.value(ev)
			if lv.IsZero() || rv.IsZero() {
				return provenance.Value{}
			}
			if kind == provenance.KindInt {
				a, b := lv.IntVal(), rv.IntVal()
				switch op {
				case "+":
					return provenance.Int(a + b)
				case "-":
					return provenance.Int(a - b)
				case "*":
					return provenance.Int(a * b)
				}
			}
			a, b := lv.FloatVal(), rv.FloatVal()
			switch op {
			case "+":
				return provenance.Float(a + b)
			case "-":
				return provenance.Float(a - b)
			case "*":
				return provenance.Float(a * b)
			case "/":
				if b == 0 {
					ev.note(cause{site: divByZero})
					return provenance.Value{}
				}
				return provenance.Float(a / b)
			}
			return provenance.Value{}
		},
	}, nil
}

func (c *compiler) compileActions(actions []bal.Action) ([]compiledAction, error) {
	var out []compiledAction
	for _, a := range actions {
		switch n := a.(type) {
		case *bal.SetStatus:
			sat := n.Satisfied
			out = append(out, func(_ *evalCtx, res *Result) {
				if sat {
					res.Verdict = Satisfied
				} else {
					res.Verdict = Violated
				}
			})
		case *bal.Alert:
			msg, err := c.compileExpr(n.Message)
			if err != nil {
				return nil, err
			}
			if msg.typ.isNode || msg.typ.kind != provenance.KindString {
				return nil, errAt(n.Pos, "alert message must be a string, got %s", msg.typ.describe())
			}
			out = append(out, func(ev *evalCtx, res *Result) {
				v := msg.value(ev)
				if v.IsZero() {
					res.Alerts = append(res.Alerts, "(alert message unavailable)")
					return
				}
				res.Alerts = append(res.Alerts, v.Str())
			})
		default:
			return nil, fmt.Errorf("rules: unsupported action %T", a)
		}
	}
	return out, nil
}
