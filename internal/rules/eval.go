package rules

import (
	"repro/internal/provenance"
)

// Evaluate runs the control on one trace of the graph. The graph is read
// under the caller's synchronization (typically store.View).
//
// Evaluation order follows the paper's rule structure:
//
//  1. Definitions bind, in order. A binder that matches no record makes
//     the control NotApplicable — its subject is absent from the trace.
//  2. The if-condition evaluates in three-valued logic. Unknown (a needed
//     attribute was never captured) yields Indeterminate.
//  3. True runs the then-actions, false the else-actions. The executed
//     branch's status action decides Satisfied/Violated; a branch without
//     one defaults to Satisfied for then and Violated for else.
func (c *Control) Evaluate(g *provenance.Graph, appID string) *Result {
	return c.EvaluateWith(g, appID, nil)
}

// EvaluateWith is Evaluate with a shared binding cache: shareable binder
// candidate sets are looked up in (and stored into) cache, so N controls
// binding the same concept against the same trace version compute the
// set once. A nil cache disables sharing. The caller must key the
// cache's lifetime to the trace version (see BindingCache).
func (c *Control) EvaluateWith(g *provenance.Graph, appID string, cache *BindingCache) *Result {
	ev := acquireEval(g, appID, cache, len(c.defs))
	defer ev.release()
	res := &Result{AppID: appID}

	bound := len(c.defs)
	for i, d := range c.defs {
		b, applicable := c.bindDef(ev, d)
		if !applicable {
			bound = i
			break
		}
		ev.vars[i] = b
	}
	res.Bindings = c.bindings(ev, bound)
	if bound < len(c.defs) {
		d := c.defs[bound]
		res.Verdict = NotApplicable
		ev.note("no %s in trace %s for '%s'", d.binder.class.Name, appID, d.name)
		res.Notes = ev.notes
		return res
	}

	switch c.cond(ev) {
	case triTrue:
		res.Verdict = Satisfied // default when then has no status action
		for _, a := range c.then {
			a(ev, res)
		}
	case triFalse:
		res.Verdict = Violated // default when else has no status action
		for _, a := range c.els {
			a(ev, res)
		}
	default:
		res.Verdict = Indeterminate
	}
	res.Notes = ev.notes
	return res
}

// bindings renders the node-typed variables among the first n definitions
// as the Result's ordered bindings. All IDs share one backing array, each
// binding's slice capped at its own end.
func (c *Control) bindings(ev *evalCtx, n int) []Binding {
	vars, total := 0, 0
	for i, d := range c.defs[:n] {
		if d.typ.isNode {
			vars++
			total += len(ev.vars[i].nodes)
		}
	}
	if vars == 0 {
		return nil
	}
	out := make([]Binding, 0, vars)
	ids := make([]string, 0, total)
	for i, d := range c.defs[:n] {
		if !d.typ.isNode {
			continue
		}
		start := len(ids)
		for _, node := range ev.vars[i].nodes {
			ids = append(ids, node.ID)
		}
		out = append(out, Binding{Var: d.name, IDs: ids[start:len(ids):len(ids)]})
	}
	return out
}

// bindDef computes one definition binding. The second result is false when
// a binder matched nothing (NotApplicable).
func (c *Control) bindDef(ev *evalCtx, d compiledDef) (binding, bool) {
	if d.binder != nil {
		matched := c.bindCandidates(ev, d)
		if len(matched) == 0 {
			return binding{}, false
		}
		return binding{typ: d.typ, nodes: matched}, true
	}
	if d.typ.isNode {
		return binding{typ: d.typ, nodes: d.expr.nodes(ev)}, true
	}
	return binding{typ: d.typ, val: d.expr.value(ev)}, true
}

// bindCandidates computes the binder's candidate set by following its
// compiled plan: enumerate via the type posting list, reject candidates
// on hoisted equality prefilters (only when the attribute is present and
// unequal — a missing attribute still flows through the full
// three-valued where clause so its diagnostics are preserved), then run
// the residual where. Shareable sets are served from (and stored into)
// the evaluation's binding cache; cached entries replay the notes their
// computation emitted.
func (c *Control) bindCandidates(ev *evalCtx, d compiledDef) []*provenance.Node {
	pl := &d.binder.plan
	if ev.cache != nil && pl.shareable {
		if e, ok := ev.cache.lookup(pl.fingerprint); ok {
			ev.notes = append(ev.notes, e.notes...)
			return e.nodes
		}
	}
	noteMark := len(ev.notes)
	var matched []*provenance.Node
	// NodesByType returns candidates sorted by ID, so matched needs no
	// re-sort.
candidates:
	for _, cand := range ev.g.NodesByType(ev.appID, pl.typeName) {
		for i := range pl.prefilters {
			pf := &pl.prefilters[i]
			if v := pf.field.Get(cand); !v.IsZero() && !v.Equal(pf.val) {
				continue candidates
			}
		}
		if d.binder.where == nil {
			matched = append(matched, cand)
			continue
		}
		ev.thisBuf[0] = cand
		ev.this = ev.thisBuf[:]
		verdict := d.binder.where(ev)
		ev.this = nil
		if verdict == triTrue {
			matched = append(matched, cand)
		}
	}
	if ev.cache != nil && pl.shareable {
		ev.cache.store(pl.fingerprint, matched, ev.notes[noteMark:])
	}
	return matched
}

// EvaluateAll runs the control on every trace in the graph, sorted by
// trace ID.
func (c *Control) EvaluateAll(g *provenance.Graph) []*Result {
	ids := g.AppIDs()
	out := make([]*Result, 0, len(ids))
	for _, app := range ids {
		out = append(out, c.Evaluate(g, app))
	}
	return out
}
