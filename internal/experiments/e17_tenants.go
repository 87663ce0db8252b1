package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/provbench"
	"repro/internal/tenant"
)

// E17Tenants measures multi-tenant checker isolation: a quiet tenant
// offering a trickle of traffic shares one continuous-checking worker
// with a noisy tenant offering an order of magnitude more. Two cells:
//
//	solo        the quiet tenant alone — the baseline its p99 detection
//	            lag is judged against
//	fair-share  quiet + noisy under weighted fair-share scheduling: each
//	            worker drains per-tenant queues by stride, so the quiet
//	            tenant's lag tracks its own queue
//
// Detection lag is sampled per tenant (offer -> the op's own tenant's
// traces checked), which is what makes the isolation claim observable:
// the quiet tenant's p99 stays within small multiples of solo. (The
// single-FIFO arm it was measured against is in EXPERIMENTS.md, retired
// in PR 12.)
func E17Tenants(duration time.Duration, quietRate, noisyRate float64) (*Table, error) {
	tbl := &Table{
		ID:    "E17",
		Title: "multi-tenant fair-share checking",
		Paper: "section VI governance — control points per organizational scope, evaluated in isolation",
		Columns: []string{
			"mode", "class", "offered/s", "admitted", "shed",
			"detect p50 us", "detect p99 us", "checker checks (quiet/noisy)",
		},
	}
	type cell struct {
		mode      string
		withNoisy bool
	}
	cells := []cell{
		{"solo", false},
		{"fair-share", true},
	}
	var soloP99, fairP99 int64
	for _, c := range cells {
		rep, checks, err := e17Run(c.withNoisy, duration, quietRate, noisyRate)
		if err != nil {
			return nil, fmt.Errorf("e17 %s: %w", c.mode, err)
		}
		for _, cr := range rep.Classes {
			detail := fmt.Sprintf("%d/%d", checks["quiet"], checks["noisy"])
			tbl.AddRow(c.mode, cr.Class, fmt.Sprintf("%.0f", cr.OfferedPerSec),
				cr.Admitted, cr.Shed, cr.Detect.P50US, cr.Detect.P99US, detail)
			if cr.Class == "quiet" {
				switch c.mode {
				case "solo":
					soloP99 = cr.Detect.P99US
				case "fair-share":
					fairP99 = cr.Detect.P99US
				}
			}
		}
	}
	if soloP99 > 0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"quiet-tenant detect p99: solo %dus, fair-share %dus (%.1fx solo)",
			soloP99, fairP99, float64(fairP99)/float64(soloP99)))
	}
	tbl.Notes = append(tbl.Notes,
		"detect lag is per-tenant: offer -> the op's own tenant's traces checked (Checker.WaitTenant), so a neighbour's backlog cannot hide in the barrier",
		"one checker worker, so the queueing discipline is the whole story",
		"every cell runs the same 2ms per-re-check device model (CheckEvalDelay) so checking is the contended resource; rates keep the shared ingest path unsaturated, isolating the scheduling effect",
	)
	return tbl, nil
}

// e17Run executes one cell: the quiet class, optionally the noisy class,
// on a fresh in-memory continuous system with one checker worker.
func e17Run(withNoisy bool, duration time.Duration, quietRate, noisyRate float64) (*provbench.Report, map[string]uint64, error) {
	d, err := provbench.DomainFor("hiring")
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.New(d, core.Config{
		Continuous: true,
		Workers:    1, // a single worker makes queueing discipline the whole story
		// The device model (identical in every cell): a flat 2ms
		// per-re-check evaluation cost stands in for an expensive control
		// portfolio, the role slowfs plays for storage in E16. Without it
		// this hardware checks a trace in microseconds, the worker never
		// accumulates a queue, and no scheduling discipline could matter
		// — the contended resource must exist before fairness over it is
		// measurable.
		CheckEvalDelay: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	// The quiet tenant is weighted 4:1 — the operator's SLO-class knob.
	// With equal weights two tenants each own half the worker, so the
	// fair-share bound is 2x solo by construction; the weight buys the
	// latency-sensitive tenant most of the worker back while the noisy
	// tenant still drains.
	for id, w := range map[string]int{"quiet": 4, "noisy": 1} {
		if err := sys.Tenants.Create(tenant.Tenant{ID: id, Weight: w}); err != nil {
			return nil, nil, err
		}
	}

	classes := []provbench.ClientClass{{
		Name: "quiet", Tenant: "quiet", Domain: "hiring", Clients: 1,
		RatePerSec: quietRate,
		Arrival:    provbench.ArrivalSpec{Process: "uniform"},
		BatchMin:   4, BatchMax: 8, ViolationRate: 0.2,
	}}
	if withNoisy {
		classes = append(classes, provbench.ClientClass{
			Name: "noisy", Tenant: "noisy", Domain: "hiring", Clients: 4,
			RatePerSec: noisyRate, Skew: 1,
			Arrival:  provbench.ArrivalSpec{Process: "gamma", Shape: 0.5},
			BatchMin: 16, BatchMax: 32, ViolationRate: 0.2,
		})
	}
	// The schedule is a pure function of (name, seed, classes), so reruns
	// replay the identical op sequence.
	spec := provbench.Spec{
		Name:     "e17",
		Seed:     17,
		Duration: provbench.Dur(duration),
		Classes:  classes,
	}
	sched, err := provbench.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	rep, err := provbench.Run(sched, &provbench.SystemTarget{Sys: sys}, provbench.Options{
		DetectEvery: 1,
		AckPoll:     time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, sys.Checker.Stats().TenantChecks, nil
}
