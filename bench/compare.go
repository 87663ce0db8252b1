package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadBounds reads the end-to-end metric bounds and directions from the
// BENCHMARK.json found in dir or the nearest directory above it, falling
// back to the program's own table (the file is generated from it).
func loadBounds(dir string) []metricDef {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "BENCHMARK.json"))
		if err == nil {
			var doc struct {
				EndToEnd []metricDef `json:"end_to_end"`
			}
			if json.Unmarshal(data, &doc) == nil && len(doc.EndToEnd) > 0 {
				return doc.EndToEnd
			}
		}
		if d == filepath.Dir(d) {
			return endToEnd
		}
	}
}

// compareRow is one workload x metric verdict.
type compareRow struct {
	workload, metric, unit string
	old, new, change       float64 // change > 0 is worse, as a share of old
	bound, spread          float64
	verdict                string
}

// compareResults judges every end-to-end metric of every workload both
// files ran untraced. A metric is worse when it moved against its
// direction by more than its bound, better when it moved the other way
// by more than the bound, unresolved when either file records a
// run-to-run spread wider than the bound (setup_s excepted), and
// otherwise the same.
func compareResults(old, new *suiteResult, bounds []metricDef) (rows []compareRow, refuse []string) {
	if old.Machine.NProc != new.Machine.NProc || old.Machine.GOMAXPROCS != new.Machine.GOMAXPROCS {
		refuse = append(refuse, fmt.Sprintf("machines differ: %d cores/GOMAXPROCS %d vs %d cores/GOMAXPROCS %d",
			old.Machine.NProc, old.Machine.GOMAXPROCS, new.Machine.NProc, new.Machine.GOMAXPROCS))
	}
	if old.Seconds != new.Seconds {
		refuse = append(refuse, fmt.Sprintf("window lengths differ: %gs vs %gs", old.Seconds, new.Seconds))
	}
	find := func(s *suiteResult, name string) *outcome {
		for _, o := range s.Runs {
			if o.Workload == name && !o.Traced {
				return o
			}
		}
		return nil
	}
	for _, w := range workloads {
		o, n := find(old, w.name), find(new, w.name)
		if o == nil || n == nil {
			continue
		}
		for _, side := range []*outcome{o, n} {
			for _, why := range side.Invalid {
				refuse = append(refuse, fmt.Sprintf("%s: invalid run: %s", w.name, why))
			}
		}
		for _, d := range bounds {
			ov, nv := o.Metrics[d.Name].Value, n.Metrics[d.Name].Value
			row := compareRow{workload: w.name, metric: d.Name, unit: d.Unit, old: ov, new: nv, bound: d.Bound}
			row.change = ratio(nv-ov, ov)
			if d.Better == "higher" {
				row.change = -row.change
			}
			row.spread = o.Spread[d.Name]
			if s := n.Spread[d.Name]; s > row.spread {
				row.spread = s
			}
			switch {
			case row.spread > d.Bound && d.Name != "setup_s":
				// Set-up takes milliseconds on two workloads, so its
				// spread over a handful of runs is mostly jitter; like the
				// benchmark driver, compare judges its medians only.
				row.verdict = "unresolved"
			case row.change > d.Bound:
				row.verdict = "worse"
			case row.change < -d.Bound:
				row.verdict = "better"
			default:
				row.verdict = "same"
			}
			rows = append(rows, row)
		}
		// failed_share has an absolute bound: ops that fail also miss
		// every latency, so more of them is worse whatever the medians say.
		row := compareRow{workload: w.name, metric: "failed_share", unit: "ratio",
			old: o.FailedShare, new: n.FailedShare, bound: 0.002, verdict: "same"}
		row.change = n.FailedShare - o.FailedShare
		if row.change > row.bound {
			row.verdict = "worse"
		}
		rows = append(rows, row)
	}
	return rows, refuse
}

func printCompare(w io.Writer, rows []compareRow) (worse int) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "old", "new", "worse-by", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.1f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.old, r.new, 100*r.change, 100*r.bound, 100*r.spread, r.verdict)
		if r.verdict == "worse" {
			worse++
		}
	}
	return worse
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare OLD.json NEW.json")
		return 2
	}
	old, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	new, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows, refuse := compareResults(old, new, loadBounds("."))
	if len(refuse) > 0 {
		for _, why := range refuse {
			fmt.Fprintln(stderr, "bench: refusing to compare:", why)
		}
		return 2
	}
	if worse := printCompare(stdout, rows); worse > 0 {
		fmt.Fprintf(stderr, "bench: %d metric(s) worse\n", worse)
		return 1
	}
	return 0
}

// cmdAgree runs the untraced suite twice on the same code and fails if
// any end-to-end metric differs between the two by more than its bound:
// the benchmark's own noise must fit inside the bounds it sets.
func cmdAgree(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench agree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 11, "first seed of each set")
	reps := fs.Int("reps", 5, "runs per workload in each set, on consecutive seeds")
	scale := fs.Float64("scale", 1, "multiply every workload's window")
	outDir := fs.String("out", "bench/results", "directory for agree_a.json, agree_b.json and agree_compare.txt")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for workload data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runCfg{seed: *seed, seconds: runSeconds * *scale, tmp: *tmp, setupReps: 3, log: stderr}
	var sets [2]*suiteResult
	for i := range sets {
		res, err := runSuite(workloads, cfg, "off", *reps)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if bad := res.failures(); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(stderr, "bench: FAILED CHECK:", b)
			}
			return 1
		}
		sets[i] = res
		if err := res.write(filepath.Join(*outDir, fmt.Sprintf("agree_%c.json", 'a'+i))); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	rows, refuse := compareResults(sets[0], sets[1], loadBounds("."))
	for _, why := range refuse {
		fmt.Fprintln(stderr, "bench: invalid:", why)
	}
	table, err := os.Create(filepath.Join(*outDir, "agree_compare.txt"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	disagree := 0
	for _, r := range rows {
		if r.verdict != "same" {
			disagree++
		}
	}
	printCompare(io.MultiWriter(stdout, table), rows)
	if err := table.Close(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if disagree > 0 || len(refuse) > 0 {
		fmt.Fprintf(stderr, "bench: two runs of the same code disagree on %d metric(s)\n", disagree)
		return 1
	}
	fmt.Fprintln(stdout, "agree: every end-to-end metric repeats within its bound")
	return 0
}
