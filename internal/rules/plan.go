package rules

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bal"
	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/xom"
)

// The binder planner. A definition like
//
//	'the request' is a job requisition where the status of this is "open"
//
// is an access-path decision in disguise: which index to probe for
// candidates, which predicates are cheap enough to test before paying
// for the full where closure, and whether the resulting candidate set
// can be shared with other controls binding the same concept. The plan
// is extracted once at Compile time from the binder's AST; evaluation
// just follows it.

// attrPrefilter is one hoisted attribute-equality predicate: an O(1)
// field fetch and compare that can definitively reject a candidate
// before the where closure runs. Only a present-and-unequal attribute
// rejects — a missing attribute must still flow through the full
// three-valued where so its unknown-operand note is emitted.
type attrPrefilter struct {
	phrase string
	field  *xom.Field
	val    provenance.Value
}

// binderPlan is the compiled access path of one "a <concept>" binder.
type binderPlan struct {
	// typeName is the node type whose posting list enumerates candidates.
	typeName string
	// prefilters are hoisted equality predicates, cheapest (most
	// selective kind) first.
	prefilters []attrPrefilter
	// residual reports whether a where clause remains after prefilters
	// (prefilters never replace the where; they only short-circuit it).
	residual bool
	// fingerprint identifies the candidate set this binder computes:
	// concept type plus the normalized where rendering. Binders with
	// equal fingerprints bind identical node sets on the same trace
	// version.
	fingerprint string
	// shareable is true when the where clause is self-contained (no
	// references to other definition variables), so the candidate set
	// depends only on the trace and the fingerprint is a sound cache key.
	shareable bool
}

// buildBinderPlan extracts the plan for a binder of the given class.
// where is the binder's AST condition (nil when unconstrained).
func (c *compiler) buildBinderPlan(class *xom.Class, where bal.Cond) binderPlan {
	pl := binderPlan{typeName: class.Name, fingerprint: "type=" + class.Name, shareable: true}
	if where == nil {
		return pl
	}
	pl.residual = true
	pl.fingerprint += "|where=" + where.String()
	pl.shareable = !condRefsVars(where)
	pl.prefilters = c.collectEqPrefilters(class, where, nil)
	// Cheapest-first: all prefilters cost one map lookup, so order by
	// expected selectivity of the compared kind — bool equality splits
	// candidates in half at best and goes last.
	sort.SliceStable(pl.prefilters, func(i, j int) bool {
		return prefilterRank(pl.prefilters[i]) < prefilterRank(pl.prefilters[j])
	})
	return pl
}

func prefilterRank(pf attrPrefilter) int {
	if pf.val.Kind() == provenance.KindBool {
		return 1
	}
	return 0
}

// collectEqPrefilters walks the top-level conjunction of the where
// clause and hoists every `the <attr phrase> of this = <literal>`
// equality (either operand order). Disjunctions and negations are never
// descended into: a predicate is only a sound prefilter when it must
// hold for the whole where to hold.
func (c *compiler) collectEqPrefilters(class *xom.Class, cond bal.Cond, out []attrPrefilter) []attrPrefilter {
	switch n := cond.(type) {
	case *bal.And:
		out = c.collectEqPrefilters(class, n.L, out)
		out = c.collectEqPrefilters(class, n.R, out)
	case *bal.Cmp:
		if n.Op != bal.OpEq {
			return out
		}
		if pf, ok := c.eqPrefilter(class, n.L, n.R); ok {
			out = append(out, pf)
		} else if pf, ok := c.eqPrefilter(class, n.R, n.L); ok {
			out = append(out, pf)
		}
	}
	return out
}

// eqPrefilter recognizes `the <phrase> of this` compared to a literal,
// with the phrase resolving to a plain attribute of the binder's class.
func (c *compiler) eqPrefilter(class *xom.Class, navSide, litSide bal.Expr) (attrPrefilter, bool) {
	nav, ok := navSide.(*bal.Nav)
	if !ok {
		return attrPrefilter{}, false
	}
	if _, isThis := nav.Of.(*bal.This); !isThis {
		return attrPrefilter{}, false
	}
	lit, ok := litSide.(*bal.Lit)
	if !ok {
		return attrPrefilter{}, false
	}
	entry, err := c.vocab.Resolve(nav.Phrase, class)
	if err != nil || entry.Kind != bom.Attribute {
		return attrPrefilter{}, false
	}
	ce, err := compileLit(lit)
	if err != nil {
		return attrPrefilter{}, false
	}
	return attrPrefilter{phrase: nav.Phrase, field: entry.Field, val: ce.value(nil)}, true
}

// condRefsVars reports whether the condition references any definition
// variable. Such a where clause is evaluated relative to earlier
// bindings, so its candidate set cannot be shared across controls.
func condRefsVars(cond bal.Cond) bool {
	switch n := cond.(type) {
	case *bal.And:
		return condRefsVars(n.L) || condRefsVars(n.R)
	case *bal.Or:
		return condRefsVars(n.L) || condRefsVars(n.R)
	case *bal.Not:
		return condRefsVars(n.C)
	case *bal.Cmp:
		return exprRefsVars(n.L) || exprRefsVars(n.R)
	case *bal.IsNull:
		return exprRefsVars(n.E)
	case *bal.Exists:
		return exprRefsVars(n.E)
	case *bal.InList:
		if exprRefsVars(n.E) {
			return true
		}
		for _, it := range n.List {
			if exprRefsVars(it) {
				return true
			}
		}
		return false
	case *bal.Between:
		return exprRefsVars(n.E) || exprRefsVars(n.Lo) || exprRefsVars(n.Hi)
	case *bal.Within:
		return exprRefsVars(n.E) || exprRefsVars(n.Anchor)
	case *bal.Contains:
		return exprRefsVars(n.L) || exprRefsVars(n.R)
	default:
		// Unknown condition forms are conservatively unshareable.
		return true
	}
}

func exprRefsVars(e bal.Expr) bool {
	switch n := e.(type) {
	case *bal.Lit, *bal.This:
		return false
	case *bal.VarRef:
		return true
	case *bal.Nav:
		return exprRefsVars(n.Of)
	case *bal.Count:
		return exprRefsVars(n.Of)
	case *bal.Binary:
		return exprRefsVars(n.L) || exprRefsVars(n.R)
	case *bal.Neg:
		return exprRefsVars(n.E)
	default:
		return true
	}
}

// describe renders the plan for EXPLAIN-style introspection.
func (pl binderPlan) describe(varName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: TypeIndex(%s)", varName, pl.typeName)
	for _, pf := range pl.prefilters {
		fmt.Fprintf(&b, " -> Prefilter(%s = %s)", pf.phrase, pf.val.Text())
	}
	if pl.residual {
		b.WriteString(" -> Where")
	}
	if pl.shareable {
		b.WriteString(" [shareable]")
	}
	return b.String()
}

// PlanSummaries renders the access plan of each binder definition, in
// definition order. Expression definitions have no access path and are
// omitted.
func (c *Control) PlanSummaries() []string {
	var out []string
	for _, d := range c.defs {
		if d.binder != nil {
			out = append(out, d.binder.plan.describe(d.name))
		}
	}
	return out
}

// BindingCounters aggregates binding-cache traffic across all the caches
// an owner (typically the controls registry) creates over its lifetime.
type BindingCounters struct {
	Hits   atomic.Uint64
	Misses atomic.Uint64
}

// BindingCache memoizes binder candidate sets within one evaluation of
// one trace snapshot: when N controls bind the same (concept, where)
// fingerprint, the candidate set is computed once and replayed N-1 times.
// A cache belongs to one goroutine and must not outlive the snapshot it
// was populated from: the controls registry acquires one per evaluation
// and releases it when the evaluation ends.
type BindingCache struct {
	entries  map[string]bindingEntry
	counters *BindingCounters
}

// bindingEntry is one memoized candidate set, with the causes its
// computation recorded so cache hits replay identical notes. Both slices
// are read-only, their capacity their length.
type bindingEntry struct {
	nodes []*provenance.Node
	notes []cause
}

// NewBindingCache returns an empty cache. counters may be nil.
func NewBindingCache(counters *BindingCounters) *BindingCache {
	return &BindingCache{entries: make(map[string]bindingEntry), counters: counters}
}

// bindingCaches recycles released caches, map room included. The pool is
// shared, so a cache in it points at nothing of its last owner.
var bindingCaches = sync.Pool{New: func() any { return NewBindingCache(nil) }}

// AcquireBindingCache takes an empty cache from a shared pool; counters
// may be nil. Release returns it.
func AcquireBindingCache(counters *BindingCounters) *BindingCache {
	bc := bindingCaches.Get().(*BindingCache)
	bc.counters = counters
	return bc
}

// Release empties the cache and returns it to the pool; the caller must
// not use it again.
func (bc *BindingCache) Release() {
	clear(bc.entries)
	bc.counters = nil
	bindingCaches.Put(bc)
}

func (bc *BindingCache) lookup(fp string) (bindingEntry, bool) {
	e, ok := bc.entries[fp]
	if bc.counters != nil {
		if ok {
			bc.counters.Hits.Add(1)
		} else {
			bc.counters.Misses.Add(1)
		}
	}
	return e, ok
}

func (bc *BindingCache) store(fp string, nodes []*provenance.Node, notes []cause) {
	bc.entries[fp] = bindingEntry{nodes: nodes, notes: notes}
}
