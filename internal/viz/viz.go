// Package viz renders provenance traces as Graphviz DOT documents — the
// paper's Fig 2 visualization, where "various icons such as person, gear,
// and notepad represent resources, tasks and data items" and the internal
// control appears as a custom node connected to the data nodes it checks.
// cmd/provd serves the rendering at /graph.dot for external viewers.
package viz

import (
	"fmt"
	"strings"

	"repro/internal/provenance"
)

// Options tunes the rendering.
type Options struct {
	// Title is the graph label (defaults to the trace ID).
	Title string
	// MaxAttrs caps the attributes shown per node (0 = 4).
	MaxAttrs int
	// HideTaskOrder suppresses nextTask edges, which otherwise dominate
	// dense traces.
	HideTaskOrder bool
}

// classStyle maps record classes to Fig 2's visual language.
var classStyle = map[provenance.Class]string{
	provenance.ClassResource: `shape=ellipse, style=filled, fillcolor="#d0e8ff"`,       // person
	provenance.ClassTask:     `shape=box, style="rounded,filled", fillcolor="#e8e8e8"`, // gear
	provenance.ClassData:     `shape=note, style=filled, fillcolor="#fff3c4"`,          // notepad
	provenance.ClassCustom:   `shape=octagon, style=filled, fillcolor="#ffd6d6"`,       // control
}

// TraceDOT renders the subgraph of one trace as a DOT document.
func TraceDOT(g *provenance.Graph, appID string, opts Options) string {
	tr := g.Trace(appID)
	title := opts.Title
	if title == "" {
		title = appID
	}
	maxAttrs := opts.MaxAttrs
	if maxAttrs <= 0 {
		maxAttrs = 4
	}
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	fmt.Fprintf(&b, "  label=%q;\n", title)
	b.WriteString("  rankdir=LR;\n  node [fontsize=10];\n  edge [fontsize=9];\n")

	for _, n := range tr.Nodes(provenance.NodeFilter{}) {
		style := classStyle[n.Class]
		fmt.Fprintf(&b, "  %q [label=%q, %s];\n", n.ID, nodeLabel(n, maxAttrs), style)
	}
	for _, e := range tr.AllEdges(provenance.EdgeFilter{}) {
		if opts.HideTaskOrder && e.Type == "nextTask" {
			continue
		}
		attrs := fmt.Sprintf("label=%q", e.Type)
		if e.Type == "checks" {
			attrs += `, style=dashed, color="#cc0000"`
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", e.Source, e.Target, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// nodeLabel builds the multi-line node caption: type, ID, then up to
// maxAttrs attributes in sorted order.
func nodeLabel(n *provenance.Node, maxAttrs int) string {
	var lines []string
	lines = append(lines, n.Type, n.ID)
	shown, present := 0, 0
	for _, a := range n.Attrs {
		if a.Value.IsZero() {
			continue
		}
		if present++; shown == maxAttrs {
			continue
		}
		shown++
		v := a.Value.Text()
		if len(v) > 24 {
			v = v[:21] + "..."
		}
		lines = append(lines, a.Name+"="+v)
	}
	if present > shown {
		lines = append(lines, fmt.Sprintf("(+%d more)", present-shown))
	}
	return strings.Join(lines, "\n")
}
