package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// E15Tiering measures the tiered-storage layer (design decision D12)
// against the all-resident policy (no demotion: SegmentColdAfter 0)
// across a 10x trace-count sweep:
// resident heap after demotion (the ROADMAP's million-trace retention
// claim needs it flat, not linear), cold-read latency through bloom
// probe + block page-in + materialization, and the counter-verified
// promise that a cold lookup touches exactly one segment per bloom hit.
func E15Tiering(sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Tiered storage: sealed segments vs all-resident ablation",
		Paper: "ROADMAP item 4: million-trace retention with bounded memory",
		Columns: []string{"mode", "traces", "rows", "heap MB", "resident", "sealed",
			"read p50", "read p99", "probes/cold read"},
	}
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	// heapMB per mode+size, for the growth-ratio notes.
	heaps := make(map[string][]float64)
	for _, mode := range []string{"tiered", "all-resident"} {
		for _, n := range sizes {
			row, heapMB, err := e15Run(d, mode, n)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
			heaps[mode] = append(heaps[mode], heapMB)
		}
	}
	for _, mode := range []string{"tiered", "all-resident"} {
		h := heaps[mode]
		if len(h) >= 2 && h[0] > 0 {
			growth := float64(sizes[len(sizes)-1]) / float64(sizes[0])
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: heap grew %.1fx across a %.0fx trace sweep", mode, h[len(h)-1]/h[0], growth))
		}
	}
	t.Notes = append(t.Notes,
		"heap MB = post-GC HeapAlloc delta after ingest+correlate+compact, before any cold read",
		"read p50/p99 = one ViewTrace per trace after compaction; under tiering nearly every trace rehydrates from its sealed segment",
		"probes/cold read = segment probes / cold lookups; 1.0 means zone maps + bloom filters route every cold read to exactly one segment",
	)
	return t, nil
}

// e15Run loads one store configuration and returns its table row plus
// the heap delta in MB.
func e15Run(d *workload.Domain, mode string, n int) ([]string, float64, error) {
	dir, err := os.MkdirTemp("", "e15-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	cfg := core.Config{Dir: dir}
	if mode == "tiered" {
		cfg.SegmentColdAfter = 1
	}
	base := heapBytes()
	sys, err := core.New(d, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 15, Traces: n, ViolationRate: 0.2, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		return nil, 0, err
	}
	rows := sys.Store.Stats().Rows // total rows, counted before demotion
	// One compaction pass: with SegmentColdAfter=1 every trace untouched
	// since the last commit demotes; the all-resident policy compacts but
	// seals nothing.
	if err := sys.Store.Compact(); err != nil {
		return nil, 0, err
	}
	heapMB := float64(int64(heapBytes())-int64(base)) / (1 << 20)
	if heapMB < 0 {
		heapMB = 0
	}
	ti0 := sys.Store.Tiering()

	// Read every trace once through the transparent read path and keep
	// the latency distribution. Under tiering all but the most recently
	// written traces are cold.
	dig := &latency.Digest{}
	for _, app := range sys.Store.AppIDs() {
		start := time.Now()
		err := sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
			if len(g.Nodes(provenance.NodeFilter{AppID: app})) == 0 {
				return fmt.Errorf("trace %s read empty", app)
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		dig.Add(time.Since(start))
	}
	ti1 := sys.Store.Tiering()

	probesPerCold := "n/a"
	if mode == "tiered" {
		lookups := ti1.ColdLookups - ti0.ColdLookups
		probes := ti1.SegmentProbes - ti0.SegmentProbes
		if lookups < uint64(n)/2 {
			return nil, 0, fmt.Errorf("E15: only %d of %d reads went cold; demotion did not happen", lookups, n)
		}
		// The one-probe promise, counter-verified: every probe either hit
		// or was a bloom false positive, and probes per lookup stays ~1.
		if ti1.SegmentProbes != ti1.ColdHits+ti1.FalseProbes {
			return nil, 0, fmt.Errorf("E15: probe accounting broken: %+v", ti1)
		}
		probesPerCold = fmt.Sprintf("%.3f", float64(probes)/float64(lookups))
	} else if ti1.Segments != 0 {
		return nil, 0, fmt.Errorf("E15: the all-resident policy sealed segments: %+v", ti1)
	}

	st := sys.Store.Stats()
	row := []string{mode, fmt.Sprint(n), fmt.Sprint(rows),
		fmt.Sprintf("%.1f", heapMB), fmt.Sprint(st.ResidentTraces),
		fmt.Sprint(ti1.SealedTraces), dig.P50().String(), dig.P99().String(),
		probesPerCold}
	return row, heapMB, nil
}

// heapBytes reports live heap bytes after settling the collector.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
