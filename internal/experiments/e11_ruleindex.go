package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// E11RuleIndex measures index-accelerated rule evaluation (design
// decision D8): per-shard secondary indexes plus the binder planner and
// cross-control binding reuse (the full-scan arm it was measured against
// is in EXPERIMENTS.md, retired in PR 12). One hiring trace is padded
// with bystander person records to each target size, 16 controls (the
// domain's three rule texts cycled under distinct IDs) are deployed, and
// the per-check latency of the full control set is averaged with the
// result cache off.
func E11RuleIndex(sizes []int, nControls int) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Index-accelerated rule evaluation",
		Paper:   "§III: controls as sub-graph queries; ROADMAP north-star (evaluation fast as the hardware allows)",
		Columns: []string{"trace nodes", "controls", "check idx", "reuse ratio"},
	}
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	for _, size := range sizes {
		ms, err := e11Measure(d, size, nControls)
		if err != nil {
			return nil, err
		}
		t.AddRow(size, nControls, ms.perCheck.String(), fmt.Sprintf("%.3f", ms.reuse))
	}
	t.Notes = append(t.Notes,
		"idx: type posting lists + binder planner + cross-control binding reuse",
		"binding caches key on the store's per-trace version counter, so they invalidate with the result cache")
	return t, nil
}

type e11Measurement struct {
	perCheck time.Duration
	reuse    float64
}

func e11Measure(d *workload.Domain, traceNodes, nControls int) (e11Measurement, error) {
	sys, err := core.New(d, core.Config{DisableCheckCache: true})
	if err != nil {
		return e11Measurement{}, err
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 99, Traces: 4, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		return e11Measurement{}, err
	}
	app := sys.Store.AppIDs()[0]
	var have int
	if err := sys.Store.View(func(g *provenance.Graph) error {
		have = len(g.Nodes(provenance.NodeFilter{AppID: app}))
		return nil
	}); err != nil {
		return e11Measurement{}, err
	}
	for i := have; i < traceNodes; i++ {
		err := sys.Store.PutNode(&provenance.Node{
			ID: fmt.Sprintf("e11-pad-%05d", i), Class: provenance.ClassResource,
			Type: "person", AppID: app,
			Attrs: map[string]provenance.Value{
				"name":  provenance.String(fmt.Sprintf("Pad Person %d", i)),
				"email": provenance.String(fmt.Sprintf("pad%d@example.com", i)),
			},
		})
		if err != nil {
			return e11Measurement{}, err
		}
	}
	for _, cp := range sys.Registry.List() {
		if err := sys.Registry.Remove(cp.ID); err != nil {
			return e11Measurement{}, err
		}
	}
	for i := 0; i < nControls; i++ {
		cs := d.Controls[i%len(d.Controls)]
		if _, err := sys.Registry.Deploy(fmt.Sprintf("e11-%02d", i), cs.Name, cs.Text); err != nil {
			return e11Measurement{}, err
		}
	}
	// Warm up once (populates binding caches at the current trace
	// version, as the continuous checker would), then measure.
	if _, err := sys.Registry.Check(app); err != nil {
		return e11Measurement{}, err
	}
	const iters = 50
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := sys.Registry.Check(app); err != nil {
			return e11Measurement{}, err
		}
	}
	per := time.Since(start) / iters
	return e11Measurement{perCheck: per, reuse: sys.Registry.BindingStats().ReuseRatio()}, nil
}
