// Quickstart walks the paper's Fig 3 pipeline end to end in one page of
// code: provenance data model -> execution object model (XOM) -> business
// object model / vocabulary (BOM) -> an internal control written in
// business vocabulary -> compliance verdicts on live traces.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	// The hiring domain bundles the paper's "new position open" process:
	// data model, recorder clients, correlation rules and vocabulary.
	domain, err := workload.Hiring()
	if err != nil {
		log.Fatal(err)
	}

	// Step 1-2 of Fig 3 happened inside workload.Hiring(): the XOM was
	// generated from the data model and verbalized. Show a few entries of
	// the resulting BOM, in the paper's own notation.
	fmt.Println("== business vocabulary (BOM excerpt) ==")
	for i, line := range domain.Vocab.Dump() {
		if i >= 8 {
			fmt.Printf("   ... and %d more entries\n", len(domain.Vocab.Dump())-8)
			break
		}
		fmt.Println("  ", line)
	}

	// Step 3: wire the full system — store, recorders, correlator,
	// control registry, dashboard.
	sys, err := core.New(domain, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Step 4: author a brand-new internal control in business vocabulary.
	// No data-model or application-code knowledge needed: the phrases come
	// from the vocabulary above.
	const myControl = `
definitions
  set 'the request' to a job requisition ;
if
  the position type of 'the request' is not "new"
  or the approval of 'the request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "new position lacks general manager approval" ;
`
	if _, err := sys.Registry.Deploy("my-first-control", "GM approval required", myControl); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== deployed controls ==")
	for _, cp := range sys.Registry.List() {
		fmt.Printf("   %-20s v%d  %s\n", cp.ID, cp.Version, cp.Name)
	}

	// Step 5: play 25 process instances (30% seeded violations) and ingest
	// their application events through the recorder clients.
	res := domain.Simulate(workload.SimOptions{
		Seed: 7, Traces: 25, ViolationRate: 0.3, Visibility: 1.0,
	})
	if err := sys.Ingest(res.Events); err != nil {
		log.Fatal(err)
	}

	// Step 6: check compliance and read the dashboard.
	if _, err := sys.CheckAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== compliance dashboard ==")
	fmt.Print(sys.Board.Render())

	fmt.Println("== recent violations ==")
	for _, v := range sys.Board.RecentViolations(5) {
		fmt.Printf("   %-18s %-20s %v\n", v.AppID, v.ControlID, v.Alerts)
	}
}
