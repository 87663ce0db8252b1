// The procurement example runs the purchase-to-pay domain under partial
// visibility: goods receipts and e-mail approvals are unmanaged and only
// captured with 70% probability. It shows how the three-way-match control
// degrades gracefully — definite verdicts where evidence was captured,
// alerts on genuine violations — and demonstrates changing a control at
// runtime (tightening the invoice tolerance) without touching any code.
//
// Run with: go run ./examples/procurement
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

func main() {
	domain, err := workload.Procurement()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(domain, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("== purchase-to-pay under 70% visibility of unmanaged events ==")
	res := domain.Simulate(workload.SimOptions{
		Seed: 11, Traces: 300, ViolationRate: 0.25, Visibility: 0.7,
	})
	fmt.Printf("   generated %d events, %d lost in unmanaged systems\n",
		res.Generated, res.Dropped)
	if err := sys.Ingest(res.Events); err != nil {
		log.Fatal(err)
	}
	outcomes, err := sys.CheckAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sys.Board.Render())

	// How did the verdicts line up with the (normally unknowable) truth?
	var tp, fp, fn int
	for _, o := range outcomes {
		truth := res.Truth[o.Result.AppID]
		positive := truth.Violation && truth.ControlID == o.ControlID
		fired := o.Result.Verdict == rules.Violated
		switch {
		case positive && fired:
			tp++
		case !positive && fired:
			fp++
		case positive && !fired:
			fn++
		}
	}
	fmt.Printf("== against ground truth: %d true alarms, %d false alarms (capture gaps), %d missed ==\n\n",
		tp, fp, fn)

	// Runtime control change: tighten the invoice tolerance from 5% to 1%.
	// This is a rule-text redeployment — the paper's headline capability.
	orig := ""
	for _, cs := range domain.Controls {
		if cs.ID == "invoice-tolerance" {
			orig = cs.Text
		}
	}
	tightened := strings.Replace(orig, "* 1.05", "* 1.01", 1)
	cp, err := sys.Registry.Deploy("invoice-tolerance", "", tightened)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== tightened invoice-tolerance to 1%% (now version %d) ==\n", cp.Version)
	if _, err := sys.CheckAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(sys.Board.Render())
	fmt.Println("   (compare the invoice-tolerance row: more invoices now out of tolerance,")
	fmt.Println("    with zero changes to the ERP, recorders, or pipeline)")
}
