package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// suiteResult is the result file: the machine it ran on, the pinned
// sizes, and one outcome per workload and mode.
type suiteResult struct {
	Schema  int            `json:"schema"`
	Issue   int            `json:"issue"`
	Machine machine        `json:"machine"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Reps    int            `json:"reps"`
	Sizes   map[string]any `json:"sizes"`
	Runs    []*outcome     `json:"runs"`
}

func pinnedSizes() map[string]any {
	return map[string]any{
		"routed_steady.batches_per_s": routedRate, "routed_steady.read_every": routedReadEvery,
		"check_heavy.events_per_s": heavyEventsPerSec, "check_heavy.open_traces": heavyOpenTraces,
		"cold.image_traces": coldTraces, "cold.hot_share": coldHotShare, "cold.cache_mb": coldCacheMB,
		"cold_read.rounds_per_s": coldRoundsPerSec, "cold_read.reads_per_round": coldReadsPerRound,
		"cold_mixed.ops_per_s": mixedOpsPerSec, "cold_mixed.compact_every_ops": mixedCompactEvery,
		"cold_mixed.cold_after_commits": mixedColdAfterPerOp * mixedCompactEvery,
	}
}

// runSuite runs the selected workloads: the untraced mode reps times on
// consecutive seeds (reported as medians with their spread), then the
// traced mode once.
func runSuite(selected []workloadDef, cfg runCfg, traced string, reps int) (*suiteResult, error) {
	res := &suiteResult{
		Schema: 1, Issue: 11, Machine: machineProfile(),
		Seed: cfg.seed, Seconds: cfg.seconds, Reps: reps, Sizes: pinnedSizes(),
	}
	for _, w := range selected {
		if traced != "only" {
			var outs []*outcome
			for r := 0; r < reps; r++ {
				c := cfg
				c.seed = cfg.seed + int64(r)
				cfg.logf("bench: %s untraced, seed %d, %.3gs window", w.name, c.seed, c.seconds)
				o, err := runWorkload(w, c, false)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				outs = append(outs, o)
			}
			res.Runs = append(res.Runs, foldReps(outs))
		}
		if traced != "off" {
			cfg.logf("bench: %s traced, seed %d, %.3gs window", w.name, cfg.seed, cfg.seconds)
			o, err := runWorkload(w, cfg, true)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res.Runs = append(res.Runs, o)
		}
	}
	return res, nil
}

// validate marks a run invalid when its numbers should not be compared:
// the generator ran late, the offered rate was above the knee on this
// host, or a median rests on too few samples.
func (o *outcome) validate(p *pass) {
	// One late dispatch is a scheduling hiccup of a generator that shares
	// two cores with the system (and is charged to that operation, whose
	// latency runs from its scheduled time); one in a hundred is a
	// generator that cannot keep its schedule.
	if p.slipP99 > 5*time.Millisecond {
		o.Invalid = append(o.Invalid, fmt.Sprintf("generator ran late: slip p99 %v (limit 5ms)", p.slipP99))
	}
	if o.Workload == "routed_steady" && o.FailedShare > 0.01 {
		o.Invalid = append(o.Invalid, fmt.Sprintf("failed_share %.4f > 0.01: the pinned rate is above the knee on this host", o.FailedShare))
	}
	if !o.Traced {
		// A median needs ten samples on either side of it.
		if n := p.verdict.Count(); n < 20 {
			o.Invalid = append(o.Invalid, fmt.Sprintf("verdict_p50_us rests on %d samples (need 20)", n))
		}
		if n := p.read.Count(); n < 20 {
			o.Invalid = append(o.Invalid, fmt.Sprintf("read_p50_us rests on %d samples (need 20)", n))
		}
	}
}

// foldReps reduces repeated untraced runs of one workload to one
// outcome: each metric's median, with the spread between the runs —
// the distance between the first and third quartile as a share of the
// median, the measure the benchmark's bounds are judged against.
func foldReps(outs []*outcome) *outcome {
	if len(outs) == 1 {
		return outs[0]
	}
	o := *outs[0]
	o.Metrics = map[string]Metric{}
	o.Spread = map[string]float64{}
	o.Attempted, o.Failed, o.WrongVerdicts = 0, 0, 0
	o.Invalid = nil
	for _, r := range outs {
		o.Attempted += r.Attempted
		o.Failed += r.Failed
		o.WrongVerdicts += r.WrongVerdicts
		if o.FirstWrong == "" {
			o.FirstWrong = r.FirstWrong
		}
		o.Invalid = append(o.Invalid, r.Invalid...)
	}
	o.FailedShare = ratio(float64(o.Failed), float64(o.Attempted))
	for name, m := range outs[0].Metrics {
		vals := make([]float64, len(outs))
		for i, r := range outs {
			vals[i] = r.Metrics[name].Value
		}
		med := median(vals)
		o.Metrics[name] = Metric{Value: med, Unit: m.Unit}
		if len(vals) >= 2 {
			q1, q3 := quartiles(vals)
			o.Spread[name] = ratio(q3-q1, med)
		}
	}
	return &o
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark driver computes spreads with.
func quartiles(vals []float64) (q1, q3 float64) {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	n := len(x)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// failures lists the failed checks; any makes the program exit non-zero
// without printing metrics.
func (s *suiteResult) failures() []string {
	var out []string
	for _, o := range s.Runs {
		if o.WrongVerdicts > 0 {
			out = append(out, fmt.Sprintf("%s (traced=%t): %d wrong verdicts; first: %s",
				o.Workload, o.Traced, o.WrongVerdicts, o.FirstWrong))
		}
	}
	return out
}

// print lists every metric by name and unit, one row each.
func (s *suiteResult) print(w io.Writer) {
	fmt.Fprintf(w, "bench: seed %d, %.3gs windows, %d rep(s); %d cores, GOMAXPROCS %d, %s, commit %s; %s\n",
		s.Seed, s.Seconds, s.Reps, s.Machine.NProc, s.Machine.GOMAXPROCS, s.Machine.GoVersion,
		s.Machine.Commit, s.Machine.Device)
	for _, o := range s.Runs {
		mode := "untraced (end-to-end)"
		if o.Traced {
			mode = "traced (per-layer)"
		}
		fmt.Fprintf(w, "\n== %s, %s ==\n", o.Workload, mode)
		fmt.Fprintf(w, "attempted %d, failed %d (failed_share %.4f), wrong_verdicts %d, window %.2fs\n",
			o.Attempted, o.Failed, o.FailedShare, o.WrongVerdicts, o.Info["window_s"])
		for _, why := range o.Invalid {
			fmt.Fprintf(w, "INVALID: %s\n", why)
		}
		for _, name := range sortedNames(o.Metrics) {
			m := o.Metrics[name]
			if sp, ok := o.Spread[name]; ok {
				fmt.Fprintf(w, "  %-40s %16.4f %-6s spread %.3f\n", name, m.Value, m.Unit, sp)
			} else {
				fmt.Fprintf(w, "  %-40s %16.4f %s\n", name, m.Value, m.Unit)
			}
		}
		var keys []string
		for k := range o.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  . %-38s %v\n", k, o.Info[k])
		}
	}
}

func (s *suiteResult) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
