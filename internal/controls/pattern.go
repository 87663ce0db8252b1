package controls

import (
	"fmt"
	"sort"

	"repro/internal/provenance"
	"repro/internal/rules"
)

// Evaluator is anything the registry can deploy as an internal control.
// *rules.Control (compiled business-vocabulary rules) is the primary
// implementation; PatternControl is the direct subgraph form.
type Evaluator interface {
	// Evaluate runs the control on one trace of the graph.
	Evaluate(g *provenance.Graph, appID string) *rules.Result
	// Text renders the control's source for listings.
	Text() string
}

// PatternControl is an internal control expressed directly as a graph
// pattern — the paper's Section II-C formulation: "a business control
// point is a sub graph of the provenance graph. ... The internal control
// is satisfied if all the specified edges exist."
//
// The Subject pattern var anchors applicability: when no node matches the
// subject's constraints the control is NotApplicable; when the subject
// matches but the full pattern does not embed, the control is Violated.
type PatternControl struct {
	// Pattern is the subgraph to embed.
	Pattern *provenance.Pattern
	// Subject is the pattern var whose presence makes the control
	// applicable. Must be declared in Pattern.
	Subject string
	// Source is a human-readable description for listings.
	Source string
}

// NewPatternControl validates and wraps a pattern as a control.
func NewPatternControl(p *provenance.Pattern, subject, source string) (*PatternControl, error) {
	if p == nil {
		return nil, fmt.Errorf("controls: nil pattern")
	}
	found := false
	for _, v := range p.Vars() {
		if v == subject {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("controls: subject %q is not a pattern var", subject)
	}
	return &PatternControl{Pattern: p, Subject: subject, Source: source}, nil
}

// Text implements Evaluator.
func (pc *PatternControl) Text() string {
	if pc.Source != "" {
		return pc.Source
	}
	return pc.Pattern.String()
}

// Evaluate implements Evaluator: two-phase matching. First the subject var
// alone (applicability), then the full pattern (satisfaction). Bindings of
// a satisfied control list the matched subgraph nodes, so materialization
// draws the same Fig 2 links as rule controls.
func (pc *PatternControl) Evaluate(g *provenance.Graph, appID string) *rules.Result {
	res := &rules.Result{AppID: appID}

	candidates := pc.subjectCandidates(g, appID)
	if len(candidates) == 0 {
		res.Verdict = rules.NotApplicable
		res.Notes = append(res.Notes, fmt.Sprintf("no candidate for pattern subject %q in trace %s",
			pc.Subject, appID))
		return res
	}
	matches := pc.Pattern.FindMatches(g, appID, 1)
	if len(matches) == 0 {
		res.Verdict = rules.Violated
		res.Notes = append(res.Notes,
			"the control-point subgraph does not embed: a required vertex or edge is missing")
		ids := make([]string, len(candidates))
		for i, c := range candidates {
			ids[i] = c.ID
		}
		sort.Strings(ids)
		res.Bindings = []rules.Binding{{Var: pc.Subject, IDs: ids}}
		return res
	}
	res.Verdict = rules.Satisfied
	m := matches[0]
	for _, v := range pc.Pattern.Vars() {
		if n := m[v]; n != nil {
			res.Bindings = append(res.Bindings, rules.Binding{Var: v, IDs: []string{n.ID}})
		}
	}
	return res
}

// subjectCandidates lists trace nodes satisfying the subject var's own
// constraints (ignoring edges to other vars).
func (pc *PatternControl) subjectCandidates(g *provenance.Graph, appID string) []*provenance.Node {
	pn := pc.Pattern.NodeVar(pc.Subject)
	if pn == nil {
		return nil
	}
	var out []*provenance.Node
	for _, n := range g.Nodes(provenance.NodeFilter{Class: pn.Class, Type: pn.Type, AppID: appID}) {
		if pn.Where == nil || pn.Where(n) {
			out = append(out, n)
		}
	}
	return out
}
