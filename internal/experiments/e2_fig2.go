package experiments

import (
	"fmt"
	"sort"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// E2Fig2 reproduces Fig 1 and Fig 2 of the paper: one fully managed run of
// the "new position open" process is captured, correlated into a
// provenance graph, and the gm-approval internal control is materialized
// as a custom node connected to the data nodes it verifies. The table is
// the census of the resulting trace subgraph.
func E2Fig2() (*Table, error) {
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	sys, err := core.New(d, core.Config{Materialize: true})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	// One deterministic, compliant, new-position trace: seed chosen so the
	// first trace takes the approval path (Fig 1's full flow).
	var res *workload.SimResult
	for seed := int64(1); ; seed++ {
		res = d.Simulate(workload.SimOptions{Seed: seed, Traces: 1, ViolationRate: 0, Visibility: 1.0})
		hasApproval := false
		for _, ev := range res.Events {
			if ev.Type == "approval.recorded" && ev.Payload["approved"] == "true" {
				hasApproval = true
			}
		}
		if hasApproval {
			break
		}
	}
	if err := sys.Ingest(res.Events); err != nil {
		return nil, err
	}
	if _, err := sys.CheckAll(); err != nil {
		return nil, err
	}

	app := sys.Store.AppIDs()[0]
	t := &Table{
		ID:      "E2",
		Title:   "Census of the new-position-open trace graph with materialized controls",
		Paper:   "Fig 1 (process) + Fig 2 (trace with control point custom node)",
		Columns: []string{"entity", "count"},
	}
	var census provenance.Census
	var controlEdges int
	var controlLinked bool
	err = sys.Store.View(func(g *provenance.Graph) error {
		tr := g.Trace(app)
		census = tr.TakeCensus()
		// The Fig 2 shape: the gm-approval control node links to the
		// requisition and (transitively bound) evidence nodes.
		cp := g.Node("cp-gm-approval-" + app)
		if cp == nil {
			return fmt.Errorf("control point node missing")
		}
		for _, e := range g.Edges(cp.ID, provenance.Out, controls.ChecksRelation) {
			controlEdges++
			if g.Node(e.Target).Type == "jobRequisition" {
				controlLinked = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !controlLinked {
		return nil, fmt.Errorf("control point not linked to the job requisition")
	}
	classes := []provenance.Class{
		provenance.ClassData, provenance.ClassTask, provenance.ClassResource, provenance.ClassCustom,
	}
	for _, c := range classes {
		t.AddRow(c.String()+" nodes", census.ByClass[c])
	}
	var types []string
	for typ := range census.ByType {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		t.AddRow("  type "+typ, census.ByType[typ])
	}
	var edgeTypes []string
	for et := range census.EdgeTypes {
		edgeTypes = append(edgeTypes, et)
	}
	sort.Strings(edgeTypes)
	for _, et := range edgeTypes {
		t.AddRow("edge "+et, census.EdgeTypes[et])
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("control points materialized as custom nodes: %d (one per deployed control)",
			census.ByType[controls.ControlTypeName]),
		fmt.Sprintf("gm-approval control node carries %d checks edges incl. the job requisition (Fig 2 shape)",
			controlEdges),
	)
	return t, nil
}
