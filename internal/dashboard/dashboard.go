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
//
// The board is keyed by trace: each trace has one row of held verdicts,
// indexed by a per-control slot, and each control keeps its verdict
// counts current as rows change. A check records all of one trace's
// outcomes, so Record costs one row lookup per check, and Snapshot reads
// the counts: O(controls), however many traces the board holds.
type Board struct {
	mu         sync.RWMutex
	slots      map[string]int // controlID -> slot
	ctl        []tally        // by slot
	rows       map[string][]held
	violations []Violation
	maxViol    int
	seq        int
}

// tally is one control's name and verdict counts over every trace that
// holds a verdict for it.
type tally struct {
	id, name string
	total    int
	byV      [rules.NotApplicable + 1]int // indexed by verdict
}

// held is the verdict the board shows for one (control, trace), with the
// trace version it was evaluated at. set is false in a slot the trace has
// no verdict for.
type held struct {
	verdict rules.Verdict
	version uint64
	set     bool
}

// New builds a board that retains at most maxViolations feed entries
// (oldest dropped first). maxViolations <= 0 means 1000.
func New(maxViolations int) *Board {
	if maxViolations <= 0 {
		maxViolations = 1000
	}
	return &Board{
		slots:   make(map[string]int),
		rows:    make(map[string][]held),
		maxViol: maxViolations,
	}
}

// count adds d to the tally of h's verdict.
func (t *tally) count(h held, d int) {
	t.total += d
	if h.verdict >= 0 && int(h.verdict) < len(t.byV) {
		t.byV[h.verdict] += d
	}
}

// slot returns the control's slot, adding one for a control the board has
// not seen. guess is tried first: a check lists its controls in the same
// order every time, so the slot after the previous outcome's usually fits.
func (b *Board) slot(id string, guess int) int {
	if guess < len(b.ctl) && b.ctl[guess].id == id {
		return guess
	}
	if s, ok := b.slots[id]; ok {
		return s
	}
	b.slots[id] = len(b.ctl)
	b.ctl = append(b.ctl, tally{id: id})
	return len(b.ctl) - 1
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
	var app string
	var row []held
	s := -1
	for _, o := range outcomes {
		if o == nil || o.Result == nil {
			continue
		}
		s = b.slot(o.ControlID, s+1)
		b.ctl[s].name = o.Name
		if row == nil || o.Result.AppID != app {
			if row != nil {
				b.rows[app] = row
			}
			app, row = o.Result.AppID, b.rows[o.Result.AppID]
		}
		if s >= len(row) {
			row = append(row, make([]held, len(b.ctl)-len(row))...)
		}
		prev := row[s]
		if o.TraceVersion < prev.version {
			continue
		}
		next := held{o.Result.Verdict, o.TraceVersion, true}
		row[s] = next
		if prev.set {
			b.ctl[s].count(prev, -1)
		}
		b.ctl[s].count(next, 1)
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
	if row != nil {
		b.rows[app] = row
	}
}

// Forget drops every verdict the board holds for the given traces, as if
// they had never been checked: a trace handed off to another shard is
// counted by its new owner only. The violation feed keeps its history.
func (b *Board) Forget(apps ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, app := range apps {
		for s, h := range b.rows[app] {
			if h.set {
				b.ctl[s].count(h, -1)
			}
		}
		delete(b.rows, app)
	}
}

// Snapshot computes the per-control KPIs, sorted by control ID.
func (b *Board) Snapshot() []KPI {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]KPI, len(b.ctl))
	for i, t := range b.ctl {
		out[i] = KPI{
			ControlID:     t.id,
			Name:          t.name,
			Total:         t.total,
			Satisfied:     t.byV[rules.Satisfied],
			Violated:      t.byV[rules.Violated],
			Indeterminate: t.byV[rules.Indeterminate],
			NotApplicable: t.byV[rules.NotApplicable],
		}
		out[i].SetRates()
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
