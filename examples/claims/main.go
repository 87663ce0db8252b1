// The claims example runs the insurance-claims domain in continuous mode:
// every ingest commits its events with the relations they cause, and the
// compliance checker rides the store's change feed, so the dashboard
// updates as events arrive — the paper's
// "continuous compliance checking" future-work item. It also shows the
// three-valued verdicts at work: when the adjuster's estimate never
// reaches the provenance store, the estimate-bound control answers
// Indeterminate instead of raising a false alarm.
//
// Run with: go run ./examples/claims
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

func main() {
	domain, err := workload.Claims()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(domain, core.Config{Continuous: true})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const traces = 150
	res := domain.Simulate(workload.SimOptions{
		Seed: 19, Traces: traces, ViolationRate: 0.25, Visibility: 0.75,
	})
	fmt.Printf("== streaming %d events from %d claims (continuous mode) ==\n",
		len(res.Events), traces)
	start := time.Now()
	if err := sys.Ingest(res.Events); err != nil {
		log.Fatal(err)
	}
	// The checker works off the change feed; wait for it to converge.
	for {
		done := true
		kpis := sys.Board.Snapshot()
		if len(kpis) < len(domain.Controls) {
			done = false
		}
		for _, k := range kpis {
			if k.Total < traces {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("   converged in %s after %d incremental re-checks\n\n",
		time.Since(start).Round(time.Millisecond), sys.Checker.Checked())
	fmt.Print(sys.Board.Render())

	// Indeterminate anatomy: find an estimate-bound decision the engine
	// declined to decide and show why.
	fmt.Println("== why Indeterminate beats guessing ==")
	shown := 0
	for _, app := range sys.Store.AppIDs() {
		outcomes, err := sys.Registry.Check(app)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range outcomes {
			if o.ControlID == "estimate-bound" && o.Result.Verdict == rules.Indeterminate {
				fmt.Printf("   %s: %s\n", app, o.Result.Verdict)
				for _, note := range o.Result.Notes {
					fmt.Printf("      %s\n", note)
				}
				truth := res.Truth[app]
				fmt.Printf("      (ground truth: violation=%v — a two-valued check would have had to guess)\n",
					truth.Violation && truth.ControlID == "estimate-bound")
				shown++
			}
		}
		if shown >= 3 {
			break
		}
	}
	if shown == 0 {
		fmt.Println("   (no indeterminate estimate-bound decisions at this seed; try a lower -visibility)")
	}

	fmt.Println("\n== recent violations ==")
	for _, v := range sys.Board.RecentViolations(5) {
		fmt.Printf("   %-18s %-22s %v\n", v.AppID, v.ControlID, v.Alerts)
	}
}
