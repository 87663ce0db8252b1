package controls

import (
	"sync"
	"time"

	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
)

// The window tracker maintains sliding-window state for the windowed
// ("is within <d> of") predicates of the deployed controls, fed from the
// same change-feed deltas that drive discrimination. The predicate
// itself is clock-free — it compares recorded timestamps, so verdicts
// are reproducible — which leaves one observability gap: a trace whose
// anchor event happened but whose target never arrives sits at
// Indeterminate forever, and no store write will ever re-check it. The
// tracker closes that gap: it watches each window's anchor timestamp as
// commits stream past, and Checker.Tick re-marks traces whose deadline
// has passed with no target recorded, so the engine re-surfaces their
// (still indeterminate, now actionable) outcomes to observers.

// WindowStats summarizes sliding-window state across traces.
type WindowStats struct {
	// Specs is the number of windowed predicates across deployed controls.
	Specs int
	// Open counts windows whose anchor was seen and whose target has not
	// arrived, with the deadline still in the future.
	Open int
	// Expired counts windows whose deadline passed with no target.
	Expired int
	// Resolved counts windows whose target arrived (inside the window or
	// not — the control's verdict says which).
	Resolved int
}

// trackedWindow is one windowed predicate of one deployed control.
type trackedWindow struct {
	controlID string
	spec      rules.WindowSpec
}

// windowState is one trace's progress through one tracked window.
type windowState struct {
	anchorAt time.Time
	targetAt time.Time
	expired  bool
	resolved bool
}

type traceWindows struct {
	states []windowState // parallel to windowTracker.specs
}

type windowTracker struct {
	reg *Registry

	mu     sync.Mutex
	built  bool
	gen    uint64
	specs  []trackedWindow
	traces map[string]*traceWindows
}

func newWindowTracker(reg *Registry) *windowTracker {
	return &windowTracker{reg: reg, traces: make(map[string]*traceWindows)}
}

// rebuildLocked refreshes the spec list when the deployed control set
// moved. Per-trace state is keyed by spec index, so a redeploy resets it;
// anchors are re-learned from subsequent commits.
func (t *windowTracker) rebuildLocked() {
	gen := t.reg.Gen()
	if t.built && gen == t.gen {
		return
	}
	t.built = true
	t.gen = gen
	t.specs = t.specs[:0]
	for _, cp := range t.reg.List() {
		w, ok := cp.compiled.(interface{ Windows() []rules.WindowSpec })
		if !ok {
			continue
		}
		for _, sp := range w.Windows() {
			t.specs = append(t.specs, trackedWindow{controlID: cp.ID, spec: sp})
		}
	}
	t.traces = make(map[string]*traceWindows)
}

// observe folds one change-feed event into the window state: O(specs)
// per commit, no graph access.
func (t *windowTracker) observe(ev store.Event) {
	if ev.Node == nil || ev.Node.AppID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rebuildLocked()
	if len(t.specs) == 0 {
		return
	}
	tw := t.traces[ev.Node.AppID]
	if tw == nil {
		tw = &traceWindows{states: make([]windowState, len(t.specs))}
		t.traces[ev.Node.AppID] = tw
	}
	for i := range t.specs {
		sp := &t.specs[i].spec
		st := &tw.states[i]
		if ts, ok := windowTime(ev.Node, sp.Anchor, sp.AnchorAny); ok && ts.After(st.anchorAt) {
			st.anchorAt = ts
		}
		if ts, ok := windowTime(ev.Node, sp.Target, sp.TargetAny); ok && ts.After(st.targetAt) {
			st.targetAt = ts
		}
		if !st.resolved && !st.anchorAt.IsZero() && !st.targetAt.IsZero() {
			st.resolved = true
			st.expired = false // late target: the verdict, not the clock, judges it
		}
	}
}

// windowTime extracts the timestamp one window side reads from a node,
// if the node carries one. An any-side (statically unbounded sources)
// accepts the latest KindTime attribute of any node.
func windowTime(n *provenance.Node, refs []rules.TimeRef, any bool) (time.Time, bool) {
	if any {
		var best time.Time
		ok := false
		for _, a := range n.Attrs {
			if v := a.Value; v.Kind() == provenance.KindTime && !v.IsZero() && v.TimeVal().After(best) {
				best = v.TimeVal()
				ok = true
			}
		}
		return best, ok
	}
	for i := range refs {
		if refs[i].Type != n.Type {
			continue
		}
		if v := n.Attr(refs[i].Field); v.Kind() == provenance.KindTime && !v.IsZero() {
			return v.TimeVal(), true
		}
	}
	return time.Time{}, false
}

// forget drops a dropped trace's window state.
func (t *windowTracker) forget(app string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.traces, app)
}

// expire marks windows whose deadline passed with no target and returns
// the traces that newly expired — the re-check list for Checker.Tick.
func (t *windowTracker) expire(now time.Time) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for app, tw := range t.traces {
		hit := false
		for i := range tw.states {
			st := &tw.states[i]
			if st.resolved || st.expired || st.anchorAt.IsZero() {
				continue
			}
			if now.Sub(st.anchorAt) > t.specs[i].spec.Window {
				st.expired = true
				hit = true
			}
		}
		if hit {
			out = append(out, app)
		}
	}
	return out
}

// stats snapshots the tracker.
func (t *windowTracker) stats() WindowStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := WindowStats{Specs: len(t.specs)}
	for _, tw := range t.traces {
		for i := range tw.states {
			st := &tw.states[i]
			switch {
			case st.resolved:
				s.Resolved++
			case st.expired:
				s.Expired++
			case !st.anchorAt.IsZero():
				s.Open++
			}
		}
	}
	return s
}
