// Package audit renders compliance evidence for human auditors. The paper
// motivates internal control points as the automated replacement for
// manual audits ("traditionally, auditors are used to check the status and
// the effectiveness of internal controls; however, this is a costly and
// time consuming approach"); this package closes the loop by generating
// the artifact an auditor would actually sign off on: per-control KPIs,
// each violation with the provenance records that evidence it, and every
// indeterminate decision with the reason the evidence is missing.
package audit

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/controls"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
)

// Report is a structured compliance report over a set of outcomes.
type Report struct {
	// Domain names the audited process.
	Domain string
	// Sections holds one entry per control, sorted by control ID.
	Sections []*Section
	// Traces counts distinct traces covered.
	Traces int
}

// Section is one control's audit evidence.
type Section struct {
	ControlID string
	Name      string
	Text      string

	Satisfied     int
	Violated      int
	Indeterminate int
	NotApplicable int

	// Violations lists each violated trace with its alerts and the
	// records the control bound (the evidence subgraph).
	Violations []Finding
	// Indeterminates lists each undecidable trace with the missing-
	// evidence notes.
	Indeterminates []Finding
}

// Finding is one trace-level entry.
type Finding struct {
	AppID    string
	Alerts   []string
	Notes    []string
	Evidence []Evidence
}

// Evidence is one bound provenance record.
type Evidence struct {
	Var    string
	NodeID string
	Type   string
	Attrs  string
}

// Build assembles a report from outcomes, resolving evidence records
// against the store. maxFindings caps the per-control finding lists
// (0 = 20).
func Build(domain string, st *store.Store, outcomes []*controls.Outcome, maxFindings int) (*Report, error) {
	if maxFindings <= 0 {
		maxFindings = 20
	}
	sections := make(map[string]*Section)
	traces := make(map[string]bool)
	var order []string
	for _, o := range outcomes {
		if o == nil || o.Result == nil {
			continue
		}
		traces[o.Result.AppID] = true
		sec := sections[o.ControlID]
		if sec == nil {
			sec = &Section{ControlID: o.ControlID, Name: o.Name}
			sections[o.ControlID] = sec
			order = append(order, o.ControlID)
		}
		switch o.Result.Verdict {
		case rules.Satisfied:
			sec.Satisfied++
		case rules.Violated:
			sec.Violated++
			if len(sec.Violations) < maxFindings {
				f, err := buildFinding(st, o)
				if err != nil {
					return nil, err
				}
				sec.Violations = append(sec.Violations, f)
			}
		case rules.Indeterminate:
			sec.Indeterminate++
			if len(sec.Indeterminates) < maxFindings {
				f, err := buildFinding(st, o)
				if err != nil {
					return nil, err
				}
				sec.Indeterminates = append(sec.Indeterminates, f)
			}
		case rules.NotApplicable:
			sec.NotApplicable++
		}
	}
	sort.Strings(order)
	rep := &Report{Domain: domain, Traces: len(traces)}
	for _, id := range order {
		rep.Sections = append(rep.Sections, sections[id])
	}
	return rep, nil
}

// buildFinding resolves one outcome's evidence against the store.
func buildFinding(st *store.Store, o *controls.Outcome) (Finding, error) {
	f := Finding{
		AppID:  o.Result.AppID,
		Alerts: append([]string(nil), o.Result.Alerts...),
		Notes:  append([]string(nil), o.Result.Notes...),
	}
	binds := o.Result.BindingMap()
	vars := make([]string, 0, len(binds))
	for v := range binds {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	err := st.View(func(g *provenance.Graph) error {
		for _, v := range vars {
			for _, id := range binds[v] {
				n := g.Node(id)
				if n == nil {
					continue
				}
				f.Evidence = append(f.Evidence, Evidence{
					Var: v, NodeID: n.ID, Type: n.Type, Attrs: attrSummary(n),
				})
			}
		}
		return nil
	})
	return f, err
}

func attrSummary(n *provenance.Node) string {
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		if !n.Attrs[k].IsZero() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := n.Attrs[k].Text()
		if len(v) > 32 {
			v = v[:29] + "..."
		}
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ", ")
}

// WriteText renders the report as plain text suitable for an audit file.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("COMPLIANCE AUDIT REPORT — domain %q, %d traces\n", r.Domain, r.Traces); err != nil {
		return err
	}
	for _, sec := range r.Sections {
		total := sec.Satisfied + sec.Violated + sec.Indeterminate + sec.NotApplicable
		if err := p("\n### control %s — %s\n", sec.ControlID, sec.Name); err != nil {
			return err
		}
		if err := p("    satisfied %d / violated %d / indeterminate %d / not-applicable %d (of %d)\n",
			sec.Satisfied, sec.Violated, sec.Indeterminate, sec.NotApplicable, total); err != nil {
			return err
		}
		if len(sec.Violations) > 0 {
			if err := p("  violations (showing %d of %d):\n", len(sec.Violations), sec.Violated); err != nil {
				return err
			}
			for _, f := range sec.Violations {
				if err := writeFinding(w, f); err != nil {
					return err
				}
			}
		}
		if len(sec.Indeterminates) > 0 {
			if err := p("  undecidable — evidence not captured (showing %d of %d):\n",
				len(sec.Indeterminates), sec.Indeterminate); err != nil {
				return err
			}
			for _, f := range sec.Indeterminates {
				if err := writeFinding(w, f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeFinding(w io.Writer, f Finding) error {
	if _, err := fmt.Fprintf(w, "    - trace %s\n", f.AppID); err != nil {
		return err
	}
	for _, a := range f.Alerts {
		if _, err := fmt.Fprintf(w, "        alert: %s\n", a); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "        note:  %s\n", n); err != nil {
			return err
		}
	}
	for _, e := range f.Evidence {
		if _, err := fmt.Fprintf(w, "        evidence %s = %s (%s) %s\n",
			e.Var, e.NodeID, e.Type, e.Attrs); err != nil {
			return err
		}
	}
	return nil
}
