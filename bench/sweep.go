package main

import (
	"fmt"
	"io"
)

// sweepRates are the offered rates -sweep steps through, in batches/s.
var sweepRates = []float64{10, 20, 30, 40, 50, 60, 80, 100}

// runSweep is calibration, not a benchmark run: it drives routed_steady
// at each rate for the configured window and prints what the generator
// saw, then names the knee — the highest rate that still met every
// condition of a steady state — and the 40 % of it the workload pins.
// A rate is steady when no operation failed or was shed, the generator
// kept its schedule, and the systems had nothing left to drain when the
// schedule ended (a backlog that grows through the window drains long
// after it).
func runSweep(cfg runCfg, w io.Writer) error {
	cfg.setupReps = 1
	fmt.Fprintf(w, "routed_steady rate sweep: seed %d, %.3gs per step, %s\n", cfg.seed, cfg.seconds, machineProfile().Device)
	fmt.Fprintf(w, "%8s %7s %7s %22s %22s %22s %10s %9s  %s\n", "rate/s", "ops", "failed",
		"admit p50/tail us", "ack p50/tail us", "detect p50/tail us", "slip us", "drain ms", "steady")
	knee := 0.0
	for _, rate := range sweepRates {
		p, err := runRouted(cfg, nil, rate)
		if err != nil {
			return fmt.Errorf("rate %g: %w", rate, err)
		}
		if p.wrong > 0 {
			return fmt.Errorf("rate %g: %d wrong verdicts: %s", rate, p.wrong, p.firstWrong)
		}
		drain := p.info["drain_ms"].(float64)
		slip := p.info["max_slip_us"].(float64)
		detectTail := p.layer["provbench.detect_tail_us"]
		steady := ratio(float64(p.failed), float64(p.attempted)) <= 0.002 && slip <= 5000 &&
			drain <= 250 && detectTail <= 1e6
		if steady && rate > knee {
			knee = rate
		}
		pair := func(name string) string {
			return fmt.Sprintf("%.0f/%.0f", p.layer["provbench."+name+"_p50_us"], p.layer["provbench."+name+"_tail_us"])
		}
		fmt.Fprintf(w, "%8.0f %7d %7d %22s %22s %22s %10.0f %9.0f  %t\n", rate, p.attempted, p.failed,
			pair("admit"), pair("ack"), pair("detect"), slip, drain, steady)
	}
	fmt.Fprintf(w, "knee: %.0f batches/s; 40%% of it: %.0f batches/s (pinned routedRate = %g)\n", knee, 0.4*knee, routedRate)
	return nil
}
