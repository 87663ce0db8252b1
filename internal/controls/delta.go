package controls

import (
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Delta-driven checking. Check re-evaluates every deployed control
// whenever a trace's version moved; CheckDelta instead consumes the
// commits' write set and runs the Rete-style discrimination step each
// control's compiled footprint supports: a commit that matches no binder
// type probe, passes no access-plan prefilter in either its pre- or
// post-image, touches no navigated node type and adds no navigated edge
// provably cannot change the control's verdict, bindings or alerts, so
// the cached outcome stands — without even a version probe against the
// store.
//
// Soundness hinges on the cache entry's version and the write set's
// interval fitting together: an entry valid at version V plus a delta
// covering (Base, Max] with Base <= V proves the entry saw every commit
// the delta does not carry. Anything else — no entry, older generation,
// a version gap, a degraded (full) set — falls back to a whole-trace
// Check. Discrimination is one-sided by construction: false positives
// cost one wasted re-evaluation; false negatives are never acceptable,
// and the equivalence property test plus the discrimination fuzz target
// enforce that.

// footprinted is the optional Evaluator extension exposing a compile-time
// data-dependency summary; *rules.Control implements it. Evaluators
// without one (test stubs) are conservatively treated as
// affected by every write.
type footprinted interface {
	Footprint() *rules.Footprint
}

// DeltaStats summarizes delta-driven checking. Skips are answered
// entirely from the discrimination step — no graph access, no version
// probe — which is what distinguishes them from the result cache's hits
// (a probe that found the version unchanged).
type DeltaStats struct {
	// Checks counts CheckDelta calls that took the delta path.
	Checks uint64
	// Skips counts delta checks answered without touching the graph:
	// the write set was already covered, or it affected no control.
	Skips uint64
	// Partials counts delta checks that re-evaluated only the affected
	// subset of controls.
	Partials uint64
	// Fallbacks counts delta checks that degraded to a full Check (nil
	// or full write set, cold cache, generation bump, version gap).
	Fallbacks uint64
	// NoEntryFallbacks is the part of Fallbacks that found no cache entry
	// for the trace at all: its first check since the registry started.
	NoEntryFallbacks uint64
	// ControlsEvaluated and ControlsSkipped count per-control work across
	// skip and partial paths: their ratio is the discrimination win.
	ControlsEvaluated uint64
	ControlsSkipped   uint64
}

// DeltaStats returns a snapshot of the delta-checking counters.
func (r *Registry) DeltaStats() DeltaStats {
	return DeltaStats{
		Checks:            r.deltaChecks.Load(),
		Skips:             r.deltaSkips.Load(),
		Partials:          r.deltaPartials.Load(),
		Fallbacks:         r.deltaFallbacks.Load(),
		NoEntryFallbacks:  r.deltaNoEntry.Load(),
		ControlsEvaluated: r.ctrlsEvaluated.Load(),
		ControlsSkipped:   r.ctrlsSkipped.Load(),
	}
}

// deltaAffects runs one control's discrimination against a write set.
// A control carrying a shadow candidate discriminates on the UNION of
// the live and shadow footprints: a commit that only the candidate
// cares about must still re-evaluate, or its divergence would go
// unobserved on exactly the traces where the versions differ.
func deltaAffects(cp *ControlPoint, ws *store.WriteSet) bool {
	if evaluatorAffected(cp.compiled, ws) {
		return true
	}
	return cp.shadow != nil && evaluatorAffected(cp.shadow, ws)
}

func evaluatorAffected(ev Evaluator, ws *store.WriteSet) bool {
	fpr, ok := ev.(footprinted)
	if !ok {
		return true
	}
	fp := fpr.Footprint()
	if fp == nil || fp.Wildcard() {
		return true
	}
	for i := range ws.Nodes {
		nw := &ws.Nodes[i]
		if fp.AffectedByNode(nw.Node, nw.Prev) {
			return true
		}
	}
	for i := range ws.Edges {
		if fp.AffectedByEdge(ws.Edges[i].Edge.Type) {
			return true
		}
	}
	return false
}

// CheckDelta evaluates the deployed controls against one trace given the
// write set of the commits since the trace was last checked. It returns
// (nil, true, nil) when discrimination proves no re-evaluation is needed
// — the previously returned outcomes remain exact, and the skip path
// performs no allocation and no store access. Otherwise it returns the
// full outcome slice in deployment order, re-evaluating only the
// affected controls and splicing cached results in for the rest.
//
// A nil or Full write set, or a cold or stale cache entry, degrades to a
// whole-trace Check — CheckDelta is never less correct than Check, only
// cheaper. So does the reference evaluator (DisableCache): delta checking
// splices into cached outcomes, so without the cache there is no delta.
func (r *Registry) CheckDelta(appID string, ws *store.WriteSet) ([]*Outcome, bool, error) {
	if r.opts.DisableCache {
		out, err := r.Check(appID)
		return out, false, err
	}
	r.deltaChecks.Add(1)
	if ws == nil || ws.Full() {
		return r.deltaFallback(appID)
	}

	r.mu.RLock()
	gen := r.gen
	r.mu.RUnlock()

	// Validate the cached entry against the delta's version interval.
	r.cacheMu.Lock()
	e := r.cache[appID]
	if e == nil || e.gen != gen || e.version < ws.Base() {
		r.cacheMu.Unlock()
		if e == nil {
			r.deltaNoEntry.Add(1)
		}
		return r.deltaFallback(appID)
	}
	if e.version >= ws.Max() {
		// Every commit the delta covers was already evaluated.
		n := len(e.outcomes)
		r.cacheMu.Unlock()
		r.deltaSkips.Add(1)
		r.ctrlsSkipped.Add(uint64(n))
		return nil, true, nil
	}
	prev := e.outcomes
	r.cacheMu.Unlock()

	// Discriminate: which of this tenant's controls can the write set
	// affect? Other tenants' controls never see the trace at all.
	tn := tenant.Owner(appID)
	r.mu.RLock()
	if r.gen != gen {
		r.mu.RUnlock()
		return r.deltaFallback(appID)
	}
	total := 0
	var affected []*ControlPoint
	for i, id := range r.order {
		cp := r.controls[id]
		if cp.Tenant != tn {
			continue
		}
		total++
		if deltaAffects(cp, ws) {
			if affected == nil { // room for every control still to come
				affected = make([]*ControlPoint, 0, len(r.order)-i)
			}
			affected = append(affected, cp)
		}
	}
	r.mu.RUnlock()

	if len(affected) == 0 {
		// Nothing affected: the cached outcomes remain exact through
		// ws.Max(). Advance the entry in place — revalidated under the
		// lock, since a concurrent check may have replaced it.
		r.cacheMu.Lock()
		if cur := r.cache[appID]; cur != nil && cur.gen == gen &&
			cur.version >= ws.Base() && cur.version < ws.Max() {
			cur.version = ws.Max()
		}
		r.cacheMu.Unlock()
		r.deltaSkips.Add(1)
		r.ctrlsSkipped.Add(uint64(total))
		return nil, true, nil
	}
	if len(prev) != total {
		return r.deltaFallback(appID)
	}

	// Partial re-evaluation: only the affected controls touch the graph.
	evaled, version, err := r.checkLive(appID, affected)
	if err != nil {
		return nil, false, err
	}
	r.deltaPartials.Add(1)
	r.ctrlsEvaluated.Add(uint64(len(affected)))
	r.ctrlsSkipped.Add(uint64(total - len(affected)))

	// Splice the fresh outcomes over the cached ones, preserving
	// deployment order (prev aligns with r.order at equal generation).
	merged := make([]*Outcome, 0, total)
	ai := 0
	for _, po := range prev {
		if ai < len(affected) && affected[ai].ID == po.ControlID {
			merged = append(merged, evaled[ai])
			ai++
		} else {
			merged = append(merged, po)
		}
	}
	if ai != len(affected) {
		// Cached outcomes no longer align with the deployment order;
		// rather than guess, evaluate everything.
		return r.deltaFallback(appID)
	}

	// The entry is valid through the covered interval, not the (possibly
	// newer) snapshot version: commits in (ws.Max, v] were evaluated past
	// but never discriminated, so a later delta must still surface them.
	storeVer := ws.Max()
	if version < storeVer {
		storeVer = version
	}
	r.remember(appID, gen, storeVer, merged)
	return merged, false, nil
}

// deltaFallback is the degraded path: count it, run a full Check.
func (r *Registry) deltaFallback(appID string) ([]*Outcome, bool, error) {
	r.deltaFallbacks.Add(1)
	out, err := r.Check(appID)
	return out, false, err
}
