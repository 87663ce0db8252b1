// The hiring example reproduces the paper's running example in full:
// Fig 1's "new position open" process is played once, its application
// events are captured and correlated into a provenance graph, the
// provenance rows are printed exactly as Table 1 stores them, and the
// gm-approval internal control is materialized as a custom node connected
// to the data nodes it verifies (Fig 2). A second phase runs 200 traces
// with seeded violations and prints the compliance dashboard.
//
// Run with: go run ./examples/hiring
package main

import (
	"fmt"
	"log"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/workload"
)

func main() {
	domain, err := workload.Hiring()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(domain, core.Config{Materialize: true})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// --- Phase 1: one compliant, fully visible new-position trace. ---
	// Pick a seed whose first trace takes the approval path of Fig 1.
	var res *workload.SimResult
	for seed := int64(1); ; seed++ {
		res = domain.Simulate(workload.SimOptions{Seed: seed, Traces: 1, Visibility: 1.0})
		approved := false
		for _, ev := range res.Events {
			if ev.Type == "approval.recorded" && ev.Payload["approved"] == "true" {
				approved = true
			}
		}
		if approved {
			break
		}
	}
	if err := sys.Ingest(res.Events); err != nil {
		log.Fatal(err)
	}
	app := sys.Store.AppIDs()[0]

	fmt.Println("== Table 1: provenance entities of the execution trace ==")
	fmt.Printf("%-52s %-9s %-16s %s\n", "ID", "CLASS", "APPID", "XML")
	for _, row := range sys.Store.RowsForApp(app) {
		xml := row.XML
		if len(xml) > 80 {
			xml = xml[:77] + "..."
		}
		fmt.Printf("%-52s %-9s %-16s %s\n", row.ID, row.Class, row.AppID, xml)
	}

	// Evaluate and materialize the internal controls (Fig 2).
	if _, err := sys.CheckAll(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Fig 2: the trace as a provenance graph ==")
	err = sys.Store.View(func(g *provenance.Graph) error {
		tr := g.Trace(app)
		for _, n := range tr.Nodes(provenance.NodeFilter{}) {
			icon := map[provenance.Class]string{
				provenance.ClassResource: "person ",
				provenance.ClassTask:     "gear   ",
				provenance.ClassData:     "notepad",
				provenance.ClassCustom:   "control",
			}[n.Class]
			fmt.Printf("   [%s] %-28s %s\n", icon, n.ID, n.Type)
		}
		fmt.Println("   edges:")
		for _, e := range tr.AllEdges(provenance.EdgeFilter{}) {
			fmt.Printf("     %-28s -%s-> %s\n", e.Source, e.Type, e.Target)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The control point custom node and its links, as Fig 2 draws them.
	fmt.Println("\n== internal control point (custom node) ==")
	cp := sys.Store.Node("cp-gm-approval-" + app)
	if cp == nil {
		log.Fatal("control point missing")
	}
	fmt.Printf("   %s status=%s\n", cp.ID, cp.Attr("status").Text())
	err = sys.Store.View(func(g *provenance.Graph) error {
		for _, e := range g.Edges(cp.ID, provenance.Out, controls.ChecksRelation) {
			fmt.Printf("   checks -> %s (%s)\n", e.Target, g.Node(e.Target).Type)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Phase 2: 200 traces with seeded violations, in a fresh system
	// (the simulator reuses trace IDs across runs). ---
	fmt.Println("\n== 200 traces, 30% seeded violations, full visibility ==")
	bulkSys, err := core.New(domain, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer bulkSys.Close()
	bulk := domain.Simulate(workload.SimOptions{
		Seed: 42, Traces: 200, ViolationRate: 0.3, Visibility: 1.0,
	})
	if err := bulkSys.Ingest(bulk.Events); err != nil {
		log.Fatal(err)
	}
	if _, err := bulkSys.CheckAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(bulkSys.Board.Render())
	fmt.Println("== sample violations ==")
	for i, v := range bulkSys.Board.RecentViolations(5) {
		fmt.Printf("   %d. %-18s %-20s %v\n", i+1, v.AppID, v.ControlID, v.Alerts)
	}
}
