package experiments

import (
	"fmt"
	"time"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

// E6Continuous compares batch and continuous compliance checking (the
// paper's future-work item "continuous compliance checking", design
// decision D3): the same event stream is either ingested as one batch and
// checked once at the end, or ingested event by event and re-checked
// incrementally from the store's change feed. Both arms correlate inside
// the ingest commit. The table reports sustained throughput and the
// verdict agreement between the two modes.
func E6Continuous(traces int) (*Table, error) {
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	res := d.Simulate(workload.SimOptions{Seed: 13, Traces: traces, ViolationRate: 0.3, Visibility: 1.0})

	t := &Table{
		ID:      "E6",
		Title:   "Continuous vs batch compliance checking",
		Paper:   "§IV future work: continuous compliance checking",
		Columns: []string{"mode", "wall time", "events/s", "re-checks", "violations found"},
	}

	// Batch: ingest everything (one commit), sweep once.
	batch, err := core.New(d, core.Config{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := batch.Ingest(res.Events); err != nil {
		batch.Close()
		return nil, err
	}
	batchOutcomes, err := batch.CheckAll()
	if err != nil {
		batch.Close()
		return nil, err
	}
	batchTime := time.Since(start)
	batchViolations := countViolations(batchOutcomes)
	batchVerdicts := verdictMap(batchOutcomes)
	batch.Close()
	t.AddRow("batch", batchTime.String(),
		fmt.Sprintf("%.0f", float64(len(res.Events))/batchTime.Seconds()),
		1, batchViolations)

	// Continuous: one commit and one re-check per event, as events arrive.
	cont, err := core.New(d, core.Config{Continuous: true})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, ev := range res.Events {
		if err := cont.Pipeline.Ingest(ev); err != nil {
			cont.Close()
			return nil, err
		}
	}
	// Every write is an ingest commit, so the checker having consumed the
	// feed up to the store's sequence is quiescence.
	cont.Checker.WaitFor(cont.Store.Stats().Seq)
	contTime := time.Since(start)
	rechecks := cont.Checker.Checked()
	contOutcomes, err := cont.Registry.CheckAll()
	if err != nil {
		cont.Close()
		return nil, err
	}
	contViolations := countViolations(contOutcomes)
	contVerdicts := verdictMap(contOutcomes)
	cont.Close()
	t.AddRow("continuous", contTime.String(),
		fmt.Sprintf("%.0f", float64(len(res.Events))/contTime.Seconds()),
		rechecks, contViolations)

	// Agreement check: both modes must reach identical final verdicts.
	disagree := 0
	for k, v := range batchVerdicts {
		if contVerdicts[k] != v {
			disagree++
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d traces, %d events; final verdicts disagree on %d of %d decisions",
			traces, len(res.Events), disagree, len(batchVerdicts)),
		"continuous mode derives and re-checks the affected trace on every event; work per event is O(trace), not O(store)",
	)
	if disagree != 0 {
		return nil, fmt.Errorf("continuous and batch verdicts disagree on %d decisions", disagree)
	}
	return t, nil
}

func countViolations(outcomes []*controls.Outcome) int {
	n := 0
	for _, o := range outcomes {
		if o.Result.Verdict == rules.Violated {
			n++
		}
	}
	return n
}

// verdictMap flattens outcomes to (trace|control) -> verdict for the
// agreement check.
func verdictMap(outcomes []*controls.Outcome) map[string]rules.Verdict {
	m := make(map[string]rules.Verdict, len(outcomes))
	for _, o := range outcomes {
		m[o.Result.AppID+"|"+o.ControlID] = o.Result.Verdict
	}
	return m
}
