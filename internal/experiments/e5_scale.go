package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/query"
	"repro/internal/workload"
)

// E5Scale measures compliance checking against store size: ingest+correlate
// throughput, single-trace check latency, full-store sweep throughput, and
// the point-query cost through a declared secondary index (design decision
// D4; the scan arm it was measured against is in EXPERIMENTS.md, retired
// in PR 12). The paper claims queries over the provenance store
// can "emit results in real-time, feeding existing dashboard systems".
func E5Scale(sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Compliance checking at scale",
		Paper: "§II-A: real-time queries over the provenance store",
		Columns: []string{"traces", "records", "ingest+corr ev/s",
			"check 1 trace", "sweep traces/s", "pt-query idx"},
	}
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		res := d.Simulate(workload.SimOptions{Seed: 77, Traces: n, ViolationRate: 0.2, Visibility: 1.0})

		sys, err := core.New(d, core.Config{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := sys.Ingest(res.Events); err != nil {
			sys.Close()
			return nil, err
		}
		ingestRate := float64(len(res.Events)) / time.Since(start).Seconds()
		records := sys.Store.Stats().Rows

		// Single-trace check latency, averaged over a sample.
		apps := sys.Store.AppIDs()
		sample := apps
		if len(sample) > 200 {
			sample = sample[:200]
		}
		start = time.Now()
		for _, app := range sample {
			if _, err := sys.Registry.Check(app); err != nil {
				sys.Close()
				return nil, err
			}
		}
		perCheck := time.Since(start) / time.Duration(len(sample))

		// Full sweep.
		start = time.Now()
		if _, err := sys.CheckAll(); err != nil {
			sys.Close()
			return nil, err
		}
		sweepRate := float64(n) / time.Since(start).Seconds()

		// Point query: find the requisition with a given reqID, indexed.
		target := provenance.String(fmt.Sprintf("REQ-hiring-%06d", n/2))
		q := query.Query{Type: "jobRequisition", Preds: []query.Pred{
			{Field: "reqID", Op: query.Eq, Value: target},
		}}
		idxLat, err := timeQuery(sys.Query, q)
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.Close()

		t.AddRow(n, records, fmt.Sprintf("%.0f", ingestRate),
			perCheck.String(), fmt.Sprintf("%.0f", sweepRate), idxLat.String())
	}
	t.Notes = append(t.Notes,
		"check 1 trace = all 3 hiring controls evaluated on one trace (trace-scoped, independent of store size)",
		"pt-query = equality lookup on jobRequisition.reqID through the declared secondary index",
	)
	return t, nil
}

// timeQuery measures the average latency of a point query.
func timeQuery(eng *query.Engine, q query.Query) (time.Duration, error) {
	const reps = 50
	start := time.Now()
	for i := 0; i < reps; i++ {
		res, err := eng.Run(q)
		if err != nil {
			return 0, err
		}
		if len(res) != 1 {
			return 0, fmt.Errorf("point query returned %d rows", len(res))
		}
	}
	return time.Since(start) / reps, nil
}
