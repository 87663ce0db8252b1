// Package dashboard aggregates compliance outcomes into the key
// performance indicators the paper's Section II-A describes: "a query can
// be deployed into the provenance store to emit results in real-time,
// feeding existing dashboard systems to display key performance
// indicators". The board keeps the latest verdict per (control, trace),
// computes per-control KPIs, and maintains a feed of violation
// transitions.
package dashboard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/controls"
	"repro/internal/rules"
)

// KPI summarizes one control across every checked trace. /dashboard
// answers a KPI array as is, so the definition lives with the wire
// contract.
type KPI = api.KPI

// Violation is one entry of the violation feed.
type Violation struct {
	ControlID string
	AppID     string
	Alerts    []string
	Notes     []string
	// Seq orders violations by arrival.
	Seq int
}

// Board aggregates outcomes. Safe for concurrent use; feed it from a
// controls.Checker callback or from batch CheckAll results.
type Board struct {
	mu         sync.RWMutex
	names      map[string]string
	latest     map[string]map[string]held // controlID -> appID -> verdict
	violations []Violation
	maxViol    int
	seq        int
}

// held is the verdict the board shows for one (control, trace), with the
// trace version it was evaluated at.
type held struct {
	verdict rules.Verdict
	version uint64
}

// New builds a board that retains at most maxViolations feed entries
// (oldest dropped first). maxViolations <= 0 means 1000.
func New(maxViolations int) *Board {
	if maxViolations <= 0 {
		maxViolations = 1000
	}
	return &Board{
		names:   make(map[string]string),
		latest:  make(map[string]map[string]held),
		maxViol: maxViolations,
	}
}

// Record folds a batch of outcomes into the board. Re-checking a trace
// replaces its previous verdict rather than double counting; a transition
// into Violated appends to the violation feed. Several writers record the
// same trace (the continuous checker, on-demand checks), each from the
// snapshot it happened to read, so an outcome evaluated at an older trace
// version than the one held is dropped: the last writer must not win.
func (b *Board) Record(outcomes []*controls.Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, o := range outcomes {
		if o == nil || o.Result == nil {
			continue
		}
		b.names[o.ControlID] = o.Name
		perApp := b.latest[o.ControlID]
		if perApp == nil {
			perApp = make(map[string]held)
			b.latest[o.ControlID] = perApp
		}
		prev := perApp[o.Result.AppID]
		if o.TraceVersion < prev.version {
			continue
		}
		perApp[o.Result.AppID] = held{o.Result.Verdict, o.TraceVersion}
		if o.Result.Verdict == rules.Violated && prev.verdict != rules.Violated {
			b.seq++
			b.violations = append(b.violations, Violation{
				ControlID: o.ControlID,
				AppID:     o.Result.AppID,
				Alerts:    append([]string(nil), o.Result.Alerts...),
				Notes:     append([]string(nil), o.Result.Notes...),
				Seq:       b.seq,
			})
			if len(b.violations) > b.maxViol {
				b.violations = b.violations[len(b.violations)-b.maxViol:]
			}
		}
	}
}

// Snapshot computes the per-control KPIs, sorted by control ID.
func (b *Board) Snapshot() []KPI {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]KPI, 0, len(b.latest))
	for id, perApp := range b.latest {
		k := KPI{ControlID: id, Name: b.names[id]}
		for _, h := range perApp {
			k.Total++
			switch h.verdict {
			case rules.Satisfied:
				k.Satisfied++
			case rules.Violated:
				k.Violated++
			case rules.Indeterminate:
				k.Indeterminate++
			case rules.NotApplicable:
				k.NotApplicable++
			}
		}
		k.SetRates()
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ControlID < out[j].ControlID })
	return out
}

// RecentViolations returns up to n feed entries, newest first.
func (b *Board) RecentViolations(n int) []Violation {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if n <= 0 || n > len(b.violations) {
		n = len(b.violations)
	}
	out := make([]Violation, n)
	for i := 0; i < n; i++ {
		out[i] = b.violations[len(b.violations)-1-i]
	}
	return out
}

// Render draws the KPI table as text, the form cmd/pctl prints.
func (b *Board) Render() string {
	kpis := b.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %10s %9s %7s %6s %11s %9s\n",
		"CONTROL", "TRACES", "SATISFIED", "VIOLATED", "INDET", "N/A", "COMPLIANCE", "DEFINITE")
	for _, k := range kpis {
		fmt.Fprintf(&sb, "%-24s %8d %10d %9d %7d %6d %10.1f%% %8.1f%%\n",
			k.ControlID, k.Total, k.Satisfied, k.Violated, k.Indeterminate, k.NotApplicable,
			100*k.ComplianceRate, 100*k.DefiniteRate)
	}
	return sb.String()
}
