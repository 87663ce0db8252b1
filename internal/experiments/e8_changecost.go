package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

// E8ChangeCost measures the paper's central operational claim: business
// people can create and change internal controls "without requiring the
// application code to be modified every time". On a live system already
// holding data, the experiment deploys a brand-new control, tightens an
// existing one, and rolls it back — measuring each change as (artifact
// touched, deploy latency, traces re-checkable immediately). The baseline
// column states what the same change costs in the hand-coded harness:
// a Go source edit, recompile, redeploy, process restart.
func E8ChangeCost() (*Table, error) {
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	sys, err := core.New(d, core.Config{})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 31, Traces: 500, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E8",
		Title:   "Cost of changing internal controls: rules vs application code",
		Paper:   "§I: business people test controls without application code changes",
		Columns: []string{"change", "rules artifact", "deploy", "effective on", "baseline cost"},
	}

	// Change 1: add a brand-new control (minimum candidate count) on a
	// system already full of traces.
	newControl := `
definitions
  set 'the request' to a job requisition ;
if
  the candidate list of 'the request' does not exist
  or the candidate count of the candidate list of 'the request' is at least 2
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "fewer than two candidates were sourced" ;
`
	start := time.Now()
	if _, err := sys.Registry.Deploy("min-candidates", "At least two candidates", newControl); err != nil {
		return nil, err
	}
	deployNew := time.Since(start)
	outcomes, err := sys.Registry.CheckAll()
	if err != nil {
		return nil, err
	}
	checked := len(sys.Store.AppIDs())
	t.AddRow("add new control",
		fmt.Sprintf("%d lines of rule text", textLines(newControl)),
		deployNew.String(),
		fmt.Sprintf("%d existing traces", checked),
		"edit Go source, recompile, redeploy, restart")

	// Change 2: tighten the same control's threshold (redeploy in place).
	tightened := strings.Replace(newControl, "at least 2", "at least 3", 1)
	before := violationsFor(outcomes, "min-candidates")
	start = time.Now()
	cp, err := sys.Registry.Deploy("min-candidates", "", tightened)
	if err != nil {
		return nil, err
	}
	deployTighten := time.Since(start)
	outcomes, err = sys.Registry.CheckAll()
	if err != nil {
		return nil, err
	}
	after := violationsFor(outcomes, "min-candidates")
	t.AddRow("tighten threshold",
		"1 edited line, version "+fmt.Sprint(cp.Version),
		deployTighten.String(),
		fmt.Sprintf("violations %d -> %d", before, after),
		"edit Go source, recompile, redeploy, restart")
	if after < before {
		return nil, fmt.Errorf("tightening reduced violations (%d -> %d)?", before, after)
	}

	// Change 3: retire the control.
	start = time.Now()
	if err := sys.Registry.Remove("min-candidates"); err != nil {
		return nil, err
	}
	t.AddRow("remove control", "registry delete", time.Since(start).String(),
		"immediately", "edit Go source, recompile, redeploy, restart")

	t.Notes = append(t.Notes,
		"every change is a rule-text operation against the live registry; the ingest pipeline, store and application code are untouched",
		fmt.Sprintf("system under change held %d traces and %d records throughout", checked, sys.Store.Stats().Rows),
	)
	return t, nil
}

func textLines(s string) int {
	n := 0
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

func violationsFor(outcomes []*controls.Outcome, controlID string) int {
	n := 0
	for _, o := range outcomes {
		if o.ControlID == controlID && o.Result.Verdict == rules.Violated {
			n++
		}
	}
	return n
}
