// Command provbench is the open-loop workload generator and load
// harness: it materializes a deterministic request schedule from a
// workload spec and drives it into a target — an in-process system, a
// provd server over HTTP, or a null sink — without ever letting the
// target's behavior slow the schedule down. Sheds are counted, not
// retried, so overload shows up as shed batches and latency instead of
// being hidden by client back-pressure.
//
// Usage:
//
//	provbench [-spec FILE | -domain hiring -rate 200 -clients 8 ...]
//	          [-record FILE | -replay FILE]
//	          [-target URL] [-detect-every N]
//	          [-json FILE] [-csv FILE] [-dry]
//
// The workload comes from a JSON spec file (-spec) or from the
// single-class flags. -record writes the generated schedule to a trace
// file; -replay executes a previously recorded trace instead of
// generating. With no -target the harness boots an in-process system,
// offers through its ingestion gateway, and samples detection lag
// against the continuous checker when -detect-every is set. -dry runs
// the schedule against a null target on a virtual clock: no I/O, no
// wall-clock waits, and byte-identical reports for a fixed seed — the
// reproducibility check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/provbench"
)

func main() {
	var (
		specPath = flag.String("spec", "", "JSON workload spec file (overrides the single-class flags)")
		domain   = flag.String("domain", "hiring", "process domain: hiring, procurement or claims")
		seed     = flag.Int64("seed", 1, "generation seed")
		duration = flag.Duration("duration", 2*time.Second, "schedule horizon")
		rate     = flag.Float64("rate", 200, "aggregate offered rate, batches/sec")
		clients  = flag.Int("clients", 8, "client population size")
		arrival  = flag.String("arrival", "poisson", "arrival process: poisson, gamma, weibull or uniform")
		shape    = flag.Float64("shape", 0, "arrival shape parameter (gamma/weibull)")

		record = flag.String("record", "", "write the schedule to this trace file")
		replay = flag.String("replay", "", "replay a recorded trace instead of generating")

		target      = flag.String("target", "", "drive a provd server at this base URL instead of an in-process system")
		dir         = flag.String("dir", "", "in-process store directory (default: a temp dir)")
		queueDepth  = flag.Int("queue-depth", 512, "in-process: ingestion gateway queue depth")
		detectEvery = flag.Int("detect-every", 0, "sample detection lag every Nth admitted op (in-process only)")

		jsonPath = flag.String("json", "", "write the JSON report to this file")
		csvPath  = flag.String("csv", "", "write the CSV report to this file")
		dry      = flag.Bool("dry", false, "dry run: null target on a virtual clock, byte-identical reports per seed")
	)
	flag.Parse()

	if err := run(config{
		specPath: *specPath, domain: *domain, seed: *seed, duration: *duration,
		rate: *rate, clients: *clients, arrival: *arrival, shape: *shape,
		record: *record, replay: *replay,
		target: *target, dir: *dir,
		queueDepth: *queueDepth, detectEvery: *detectEvery,
		jsonPath: *jsonPath, csvPath: *csvPath, dry: *dry,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "provbench:", err)
		os.Exit(1)
	}
}

type config struct {
	specPath, domain        string
	seed                    int64
	duration                time.Duration
	rate                    float64
	clients                 int
	arrival                 string
	shape                   float64
	record, replay          string
	target, dir             string
	dry                     bool
	queueDepth, detectEvery int
	jsonPath, csvPath       string
}

func run(cfg config) error {
	sched, err := buildSchedule(cfg)
	if err != nil {
		return err
	}
	if cfg.record != "" {
		f, err := os.Create(cfg.record)
		if err != nil {
			return err
		}
		if err := provbench.WriteTrace(f, sched); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d ops (%d events) to %s\n",
			len(sched.Ops), sched.Events, cfg.record)
	}

	tgt, opts, cleanup, err := buildTarget(cfg, sched)
	if err != nil {
		return err
	}
	if cleanup != nil {
		defer cleanup()
	}

	rep, err := provbench.Run(sched, tgt, opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if cfg.jsonPath != "" {
		if err := writeReport(cfg.jsonPath, rep.WriteJSON); err != nil {
			return err
		}
	}
	if cfg.csvPath != "" {
		if err := writeReport(cfg.csvPath, rep.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func buildSchedule(cfg config) (*provbench.Schedule, error) {
	if cfg.replay != "" {
		f, err := os.Open(cfg.replay)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return provbench.ReadTrace(f)
	}
	var spec provbench.Spec
	if cfg.specPath != "" {
		data, err := os.ReadFile(cfg.specPath)
		if err != nil {
			return nil, err
		}
		spec, err = provbench.ParseSpec(data)
		if err != nil {
			return nil, err
		}
	} else {
		spec = provbench.DefaultSpec(cfg.domain, cfg.seed, cfg.duration,
			cfg.rate, cfg.clients,
			provbench.ArrivalSpec{Process: cfg.arrival, Shape: cfg.shape})
	}
	return provbench.Generate(spec)
}

// buildTarget resolves the target the flags select, together with the
// run options it requires.
func buildTarget(cfg config, sched *provbench.Schedule) (provbench.Target, provbench.Options, func(), error) {
	var opts provbench.Options
	switch {
	case cfg.dry:
		// Null target + virtual clock + inline execution: the whole run
		// is a pure function of the schedule.
		opts.Clock = provbench.NewVirtualClock(time.Unix(0, 0))
		opts.Inline = true
		opts.AckPoll = time.Millisecond
		return &provbench.NullTarget{PendingPolls: 2}, opts, nil, nil

	case cfg.target != "":
		if cfg.detectEvery > 0 {
			return nil, opts, nil, fmt.Errorf("-detect-every needs an in-process target")
		}
		return &provbench.HTTPTarget{Base: cfg.target}, opts, nil, nil

	default:
		name := cfg.domain
		if len(sched.Spec.Classes) > 0 {
			name = sched.Spec.Classes[0].Domain
			for _, c := range sched.Spec.Classes {
				if c.Domain != name {
					return nil, opts, nil, fmt.Errorf("in-process target: spec mixes domains %q and %q; use -target against a multi-domain deployment", name, c.Domain)
				}
			}
		}
		d, err := provbench.DomainFor(name)
		if err != nil {
			return nil, opts, nil, err
		}
		dir := cfg.dir
		var cleanup func()
		if dir == "" {
			dir, err = os.MkdirTemp("", "provbench-*")
			if err != nil {
				return nil, opts, nil, err
			}
			cleanup = func() { os.RemoveAll(dir) }
		}
		sys, err := core.New(d, core.Config{
			Dir: dir, Sync: true, Continuous: true,
			IngestQueueDepth: cfg.queueDepth,
		})
		if err != nil {
			if cleanup != nil {
				cleanup()
			}
			return nil, opts, nil, err
		}
		prev := cleanup
		cleanup = func() {
			sys.Close()
			if prev != nil {
				prev()
			}
		}
		opts.DetectEvery = cfg.detectEvery
		opts.AckPoll = time.Millisecond
		return &provbench.SystemTarget{Sys: sys}, opts, cleanup, nil
	}
}

func writeReport(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
