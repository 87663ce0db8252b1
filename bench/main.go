// Command bench is the repository's benchmark: it drives four named
// workloads through the real layers — recorder batches over HTTP through
// the cluster router into durable shards, the in-memory delta checker,
// and the tiered store read cold and written cold — checks that every
// verdict it ends with is right, and prints every metric by name and
// unit. Each workload runs untraced for the end-to-end metrics and
// traced for the per-layer ones. README.md explains the workloads and
// metrics; BENCHMARK.json at the repository root is this program's
// `manifest` output.
//
//	go run ./bench -seed 11 -out bench/results/BENCH_11.json
//	go run ./bench -workload check_heavy -traced off
//	go run ./bench compare OLD.json NEW.json
//	go run ./bench agree
//	go run ./bench -sweep
//
// Under the benchmark driver it is run as
// `<command> --workload W --seed N --seconds S --trace 0|1` and prints
// the driver's result object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "manifest":
			doc, err := manifest()
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", doc)
			return 0
		case "compare":
			return cmdCompare(args[1:], stdout, stderr)
		case "agree":
			return cmdAgree(args[1:], stdout, stderr)
		}
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 11, "workload seed; the program under test only ever sees generated inputs")
	names := fs.String("workload", "", "comma-separated workloads to run (default all)")
	scale := fs.Float64("scale", 1, "multiply every workload's window and fixed operation count")
	seconds := fs.Float64("seconds", runSeconds, "window length the operation counts are sized for")
	tracedFlag := fs.String("traced", "both", "only|off|both: run the traced pass, the untraced pass, or both")
	trace := fs.Int("trace", -1, "driver form of -traced: 0 = off, 1 = only")
	reps := fs.Int("reps", 1, "untraced repetitions per workload on consecutive seeds; medians and spreads are reported")
	outPath := fs.String("out", "", "write the result file here")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for workload data")
	spansDir := fs.String("spans", "bench/results", "directory for <workload>.spans.jsonl (empty: keep spans in memory only)")
	sweep := fs.Bool("sweep", false, "calibration, not a benchmark run: step routed_steady's rate and print the knee")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *trace {
	case 0:
		*tracedFlag = "off"
	case 1:
		*tracedFlag = "only"
	}
	if *tracedFlag != "only" && *tracedFlag != "off" && *tracedFlag != "both" {
		fmt.Fprintf(stderr, "bench: -traced must be only, off or both\n")
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || *reps < 1 {
		fmt.Fprintf(stderr, "bench: -seconds, -scale and -reps must be positive\n")
		return 2
	}
	cfg := runCfg{
		seed: *seed, seconds: *seconds * *scale, tmp: *tmp, spansDir: *spansDir,
		setupReps: 3, log: stderr,
	}
	if *sweep {
		if err := runSweep(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	res, err := runSuite(selected, cfg, *tracedFlag, *reps)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// A failing check emits no metrics.
	if bad := res.failures(); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(stderr, "bench: FAILED CHECK:", b)
		}
		return 1
	}
	res.print(stdout)
	if *outPath != "" {
		if err := res.write(*outPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The driver's contract: one workload in one mode, one result object
	// as the last line.
	if len(res.Runs) == 1 {
		line, err := json.Marshal(res.Runs[0].driverLine())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workloadDef
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// driverLine is the object the benchmark driver reads: a failing check
// never reaches it (run exits non-zero first), so correct is true.
func (o *outcome) driverLine() map[string]any {
	return map[string]any{
		"correct":   o.WrongVerdicts == 0,
		"attempted": o.Attempted,
		"failed":    o.Failed,
		"metrics":   o.Metrics,
	}
}

func sortedNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
