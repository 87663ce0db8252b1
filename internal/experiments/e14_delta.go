package experiments

import (
	"fmt"
	"time"

	"repro/internal/bom"
	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/provbench"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/xom"
)

// E14Delta measures delta-driven control evaluation (design decision D11)
// in two phases (the full-re-evaluation arm it was measured against is in
// EXPERIMENTS.md, retired in PR 12).
//
// Phase "grow-N": one trace is grown to N submission records and a
// scan-heavy control (a numeric predicate over every submission, nothing
// an equality prefilter or secondary index can cut short) is deployed.
// Then K unrelated notification commits land one at a time, each followed
// by a quiescence barrier. Full re-evaluation would pay O(N) per commit;
// the delta path discriminates each commit against the control's footprint,
// proves the notification cannot affect it, and skips without touching
// the graph — per-commit cost stays flat as N grows.
//
// Phase "provbench": the open-loop hiring workload (which includes the
// windowed approval-timeliness control, so temporal predicates run end to
// end) drives a continuous system at a fixed offered load; the table
// reports detection lag and the checker's delta counters.
func E14Delta(sizes []int, commits int, pbDuration time.Duration, pbRate float64) (*Table, error) {
	tbl := &Table{
		ID:    "E14",
		Title: "delta-driven evaluation",
		Paper: "§IV continuous compliance checking — re-check cost per commit as traces grow",
		Columns: []string{
			"phase", "per-commit us", "delta checks", "skips", "partials",
			"fallbacks", "skip%", "ctrl evaluated", "ctrl skipped", "windows resolved",
		},
	}

	perCommit := map[int]time.Duration{}
	for _, n := range sizes {
		cost, ds, err := e14Grow(n, commits)
		if err != nil {
			return nil, fmt.Errorf("e14 grow-%d: %w", n, err)
		}
		perCommit[n] = cost
		tbl.AddRow(fmt.Sprintf("grow-%d", n),
			fmt.Sprintf("%.2f", float64(cost.Nanoseconds())/1000),
			ds.Checks, ds.Skips, ds.Partials, ds.Fallbacks,
			fmt.Sprintf("%.0f%%", 100*ds.SkipRatio()),
			ds.ControlsEvaluated, ds.ControlsSkipped, "-")
	}

	rep, cs, err := e14Provbench(pbDuration, pbRate)
	if err != nil {
		return nil, fmt.Errorf("e14 provbench: %w", err)
	}
	detect := "-"
	for _, c := range rep.Classes {
		if c.Detect.Count > 0 {
			detect = fmt.Sprintf("%d", c.Detect.P99US)
		}
	}
	tbl.AddRow("provbench", detect,
		cs.DeltaChecks, cs.DeltaSkips, cs.DeltaPartials, cs.DeltaFallbacks,
		fmt.Sprintf("%.0f%%", 100*cs.DeltaSkipRatio),
		cs.ControlsEvaluated, cs.ControlsSkipped, cs.WindowsResolved)

	small, large := sizes[0], sizes[len(sizes)-1]
	growth := 0.0
	if perCommit[small] > 0 {
		growth = float64(perCommit[large]) / float64(perCommit[small])
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("per-commit cost over %dx trace growth (%d -> %d records): %.1fx",
			large/small, small, large, growth),
		"grow-N commits touch only notification records: the scan-heavy control's footprint proves them irrelevant, so the delta path answers from the cache without a version probe",
		"provbench rows exercise the windowed approval-timeliness control end to end; per-commit column holds detection-lag p99 us there",
	)
	return tbl, nil
}

// e14Model is the grow-phase schema: submissions a scan-heavy control
// binds, notifications whose commits the control provably ignores.
func e14Model() (*provenance.Model, *bom.Vocabulary, error) {
	m := provenance.NewModel("e14")
	if err := m.AddType(&provenance.TypeDef{Name: "submission", Class: provenance.ClassData}); err != nil {
		return nil, nil, err
	}
	if err := m.AddField("submission", &provenance.FieldDef{Name: "score", Kind: provenance.KindInt}); err != nil {
		return nil, nil, err
	}
	if err := m.AddType(&provenance.TypeDef{Name: "notification", Class: provenance.ClassData}); err != nil {
		return nil, nil, err
	}
	if err := m.AddField("notification", &provenance.FieldDef{Name: "channel", Kind: provenance.KindString}); err != nil {
		return nil, nil, err
	}
	om, err := xom.FromModel(m)
	if err != nil {
		return nil, nil, err
	}
	vocab, err := bom.Verbalize(om, bom.Options{
		MemberLabels: map[string]string{"submission.score": "score"},
	})
	if err != nil {
		return nil, nil, err
	}
	return m, vocab, nil
}

// e14ScanControl binds every submission through a numeric comparison: no
// equality prefilter hoists, no secondary index applies, so a full
// re-evaluation is O(trace).
const e14ScanControl = `
definitions
  set 'the sub' to a submission ;
if
  the score of 'the sub' is at least 0
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`

// e14Grow runs one grow-phase cell and returns the measured per-commit
// check cost plus the registry's delta counters. Only the check is timed:
// each notification commit lands untimed, then the commit's write set is
// handed to CheckDelta exactly as the continuous checker's dirty-set
// machinery would, isolating evaluation cost from the store's own
// per-commit work.
func e14Grow(n, commits int) (time.Duration, controls.DeltaStats, error) {
	var zero controls.DeltaStats
	m, vocab, err := e14Model()
	if err != nil {
		return 0, zero, err
	}
	st, err := store.Open(store.Options{Model: m})
	if err != nil {
		return 0, zero, err
	}
	defer st.Close()
	reg, err := controls.NewRegistry(st, vocab, controls.Options{})
	if err != nil {
		return 0, zero, err
	}
	if _, err := reg.Deploy("scan", "scan-heavy submission control", e14ScanControl); err != nil {
		return 0, zero, err
	}

	const app = "T1"
	batch := make([]*provenance.Node, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, &provenance.Node{
			ID: fmt.Sprintf("sub-%06d", i), Class: provenance.ClassData,
			Type: "submission", AppID: app,
			Attrs: map[string]provenance.Value{"score": provenance.Int(int64(i % 100))},
		})
	}
	for _, err := range st.Commit(store.Batch{Nodes: batch}).Nodes {
		if err != nil {
			return 0, zero, err
		}
	}
	if _, err := reg.Check(app); err != nil { // warm the result cache at the grown version
		return 0, zero, err
	}

	sub := st.Subscribe()
	defer sub.Cancel()
	var checkTime time.Duration
	for i := 0; i < commits; i++ {
		ntf := &provenance.Node{
			ID: fmt.Sprintf("ntf-%04d", i), Class: provenance.ClassData,
			Type: "notification", AppID: app,
			Attrs: map[string]provenance.Value{"channel": provenance.String("email")},
		}
		if err := st.PutNode(ntf); err != nil {
			return 0, zero, err
		}
		ws := store.NewWriteSet()
		ws.AddEvent(<-sub.C())
		start := time.Now()
		if _, _, err := reg.CheckDelta(app, ws); err != nil {
			return 0, zero, err
		}
		checkTime += time.Since(start)
	}
	return checkTime / time.Duration(commits), reg.DeltaStats(), nil
}

// e14Provbench drives the hiring domain (with its windowed
// approval-timeliness control) through the open-loop harness.
func e14Provbench(duration time.Duration, rate float64) (*provbench.Report, controls.CheckerStats, error) {
	var zero controls.CheckerStats
	d, err := provbench.DomainFor("hiring")
	if err != nil {
		return nil, zero, err
	}
	sys, err := core.New(d, core.Config{Continuous: true})
	if err != nil {
		return nil, zero, err
	}
	defer sys.Close()

	spec := provbench.Spec{
		Name:     fmt.Sprintf("e14-%.0f", rate),
		Seed:     14,
		Duration: provbench.Dur(duration),
		Classes: []provbench.ClientClass{{
			Name: "steady", Domain: "hiring", Clients: 4,
			RatePerSec: rate,
			Arrival:    provbench.ArrivalSpec{Process: "poisson"},
			BatchMin:   4, BatchMax: 8, ViolationRate: 0.3,
		}},
	}
	sched, err := provbench.Generate(spec)
	if err != nil {
		return nil, zero, err
	}
	rep, err := provbench.Run(sched, &provbench.SystemTarget{Sys: sys}, provbench.Options{
		DetectEvery: 8,
		AckPoll:     time.Millisecond,
	})
	if err != nil {
		return nil, zero, err
	}
	return rep, sys.Checker.Stats(), nil
}
