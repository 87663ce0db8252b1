package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/latency"
)

// runCfg is what one invocation fixes for every workload it runs.
type runCfg struct {
	seed int64
	// seconds is the window length the fixed operation counts are sized
	// for (sizes.go); on the commit the sizes were pinned on, a window
	// takes about this long.
	seconds float64
	// tmp is where workloads keep their data directories.
	tmp string
	// spansDir receives <workload>.spans.jsonl from traced passes; empty
	// writes none.
	spansDir string
	// setupReps is how many times an untraced pass sets up, so setup_s
	// is a median and not one draw.
	setupReps int
	log       io.Writer
}

func (c runCfg) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// pass is one execution of a workload's window, traced or not, with
// everything both kinds of metric need.
type pass struct {
	setupS []float64

	attempted, failed, wrong int
	firstWrong               string

	// ops is what cpu_us_per_op and ops_per_s divide by: events carried
	// to a verdict plus reads answered.
	ops     int
	events  int
	reads   int
	window  time.Duration
	cpu     time.Duration
	heapMiB float64
	verdict latency.Digest
	read    latency.Digest
	// slipP99 is how late the open-loop generator dispatched, at the 99th
	// percentile of its operations (zero for closed loops).
	slipP99 time.Duration
	// mem is the allocator's and collector's work over the window, and
	// goroutines the peak count sampled during it (traced passes).
	mem        memCounters
	goroutines int

	// rounds holds one entry per measured round of a workload that runs
	// its window in rounds (see summary).
	rounds []roundStat

	// layer holds per-layer metric values by name (traced passes).
	layer map[string]float64
	// info is reported in the result file beside the metrics: counts,
	// tails with their sample counts, the verdict digest.
	info   map[string]any
	digest string
}

func newPass() *pass {
	return &pass{layer: map[string]float64{}, info: map[string]any{}}
}

func (p *pass) fail(format string, args ...any) {
	p.addWrong(1, fmt.Sprintf(format, args...))
}

// addWrong counts n wrong verdicts (or failed checks), keeping the first
// description seen.
func (p *pass) addWrong(n int, first string) {
	p.wrong += n
	if n > 0 && p.firstWrong == "" {
		p.firstWrong = first
	}
}

// roundStat is what one round of a window measured.
type roundStat struct {
	opsPerS, cpuPerOpUS, verdictP50US, readP50US float64
}

// addRound records a round that carried ops operations in window wall
// time and cpu process time, with the round's own latency samples.
func (p *pass) addRound(ops int, window, cpu time.Duration, verdict, read *latency.Digest) {
	p.rounds = append(p.rounds, roundStat{
		opsPerS:      ratio(float64(ops), window.Seconds()),
		cpuPerOpUS:   ratio(us(cpu), float64(ops)),
		verdictP50US: p50us(verdict),
		readP50US:    p50us(read),
	})
}

// summary is the pass's headline numbers. A workload that runs its
// window in several rounds reports the median over its rounds, not the
// total over the window: on a shared host, interference arrives in
// bursts that slow a round or two, and the median round is the one
// that ran undisturbed — the number that repeats. The first round also
// pays the process's warm-up (heap growth, page faults) and is left out.
// Workloads with one continuous window report the window's totals.
func (p *pass) summary() roundStat {
	if len(p.rounds) < 4 {
		return roundStat{
			opsPerS:      ratio(float64(p.ops), p.window.Seconds()),
			cpuPerOpUS:   ratio(us(p.cpu), float64(p.ops)),
			verdictP50US: p50us(&p.verdict),
			readP50US:    p50us(&p.read),
		}
	}
	col := func(f func(roundStat) float64) float64 {
		var xs []float64
		for _, r := range p.rounds[1:] {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	return roundStat{
		opsPerS:      col(func(r roundStat) float64 { return r.opsPerS }),
		cpuPerOpUS:   col(func(r roundStat) float64 { return r.cpuPerOpUS }),
		verdictP50US: col(func(r roundStat) float64 { return r.verdictP50US }),
		readP50US:    col(func(r roundStat) float64 { return r.readP50US }),
	}
}

func (p *pass) opsPerS() float64 { return p.summary().opsPerS }

// tail records a latency's median and tail in the result file's info,
// beside the sample count.
func (p *pass) tail(name string, d *latency.Digest) {
	p.info[name+"_n"] = d.Count()
	if d.Count() == 0 {
		return
	}
	pct, v := tailOf(d)
	p.info[name+"_p50_us"] = p50us(d)
	p.info[fmt.Sprintf("%s_p%g_us", name, pct)] = us(v)
}

// latencyLayer reports one of the generator's latencies as per-layer
// metrics: median, tail, which percentile the tail is, sample count.
func (p *pass) latencyLayer(name string, d *latency.Digest) {
	pct, v := tailOf(d)
	p.layer["provbench."+name+"_p50_us"] = p50us(d)
	p.layer["provbench."+name+"_tail_us"] = us(v)
	p.layer["provbench."+name+"_tail_pct"] = pct
	p.layer["provbench."+name+"_n"] = float64(d.Count())
}

// workloadDef is one named workload. run executes one pass: tr is nil
// for an untraced pass.
type workloadDef struct {
	name, why string
	run       func(cfg runCfg, tr *Tracer) (*pass, error)
}

// outcome is one workload's reported result in one mode.
type outcome struct {
	Workload      string            `json:"workload"`
	Traced        bool              `json:"traced"`
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	FailedShare   float64           `json:"failed_share"`
	WrongVerdicts int               `json:"wrong_verdicts"`
	FirstWrong    string            `json:"first_wrong,omitempty"`
	Invalid       []string          `json:"invalid,omitempty"`
	Metrics       map[string]Metric `json:"metrics"`
	// Spread is each metric's run-to-run spread when the run was
	// repeated: (Q3-Q1)/median over the repetitions.
	Spread map[string]float64 `json:"spread,omitempty"`
	Info   map[string]any     `json:"info,omitempty"`
}

// runWorkload runs one workload in one mode. The untraced mode yields
// the end-to-end metrics. The traced mode first runs an untraced
// reference pass (same seed, same sizes), then the traced pass; the
// difference in throughput is the tracing overhead, and the two passes
// must end in the same verdicts.
func runWorkload(w workloadDef, cfg runCfg, traced bool) (*outcome, error) {
	out := &outcome{Workload: w.name, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds}
	if !traced {
		p, err := w.run(cfg, nil)
		if err != nil {
			return nil, err
		}
		ms := newMetricSet(endToEnd)
		ms.set("setup_s", median(p.setupS))
		sum := p.summary()
		ms.set("verdict_p50_us", sum.verdictP50US)
		ms.set("read_p50_us", sum.readP50US)
		ms.set("ops_per_s", sum.opsPerS)
		ms.set("cpu_us_per_op", sum.cpuPerOpUS)
		ms.set("live_heap_mb", p.heapMiB)
		p.tail("verdict", &p.verdict)
		p.tail("read", &p.read)
		out.fill(p, ms)
		return out, nil
	}

	refCfg := cfg
	refCfg.setupReps = 1
	ref, err := w.run(refCfg, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced reference pass: %w", err)
	}
	tr := newTracer()
	p, err := w.run(refCfg, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if ref.digest != p.digest {
		p.fail("traced pass ended in verdicts %s, untraced reference in %s", p.digest, ref.digest)
	}
	p.addWrong(ref.wrong, ref.firstWrong)
	p.info["untraced_ops_per_s"] = ref.opsPerS()
	p.info["traced_ops_per_s"] = p.opsPerS()
	p.layer["provbench.trace_overhead_pct"] = 100 * (1 - ratio(p.opsPerS(), ref.opsPerS()))
	p.layer["provbench.events_per_s"] = ratio(float64(ref.events), ref.window.Seconds())
	p.layer["provbench.reads_per_s"] = ratio(float64(ref.reads), ref.window.Seconds())

	for name, v := range ref.layer {
		// Counters the system keeps itself cost nothing to read, so the
		// reference pass's — the real, untraced execution — win.
		p.layer[name] = v
	}
	p.layer["core.allocs_per_op"] = ratio(float64(p.mem.Mallocs), float64(p.ops))
	p.layer["core.alloc_bytes_per_op"] = ratio(float64(p.mem.TotalAlloc), float64(p.ops))
	p.layer["core.gc_pause_ms"] = float64(p.mem.PauseNS) / 1e6
	p.layer["core.goroutines_peak"] = float64(p.goroutines)

	spans := tr.snapshot()
	p.info["spans"] = len(spans)
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, w.name+".spans.jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		p.info["spans_file"] = path
	}
	ms := newMetricSet(perLayer)
	for name, v := range p.layer {
		ms.set(name, v)
	}
	out.fill(p, ms)
	return out, nil
}

func (o *outcome) fill(p *pass, ms *metricSet) {
	o.Attempted, o.Failed = p.attempted, p.failed
	o.FailedShare = ratio(float64(p.failed), float64(p.attempted))
	o.WrongVerdicts, o.FirstWrong = p.wrong, p.firstWrong
	o.Metrics = ms.fill()
	p.info["verdict_digest"] = p.digest
	p.info["window_s"] = p.window.Seconds()
	p.info["ops"] = p.ops
	p.info["events"] = p.events
	p.info["reads"] = p.reads
	o.Info = p.info
	o.validate(p)
}

// timedSetups runs setup reps times, tearing every instance but the last
// down again, and returns the last with each setup's duration. A set-up
// that takes milliseconds is repeated further, up to five times as often,
// until a quarter of a second has gone into it: its median is what
// setup_s reports, and a median of three 10 ms draws is mostly jitter.
func timedSetups[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	total := 0.0
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return last, nil, err
		}
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		total += d
		if i+1 >= reps && (reps <= 1 || total >= 0.25 || i+1 >= 5*reps) {
			return s, secs, nil
		}
		teardown(s)
	}
}

// measure brackets a window, or one round of it: it settles the heap,
// then runs fn between readings of the wall clock, the process CPU clock
// and the allocator, and adds what fn used to the pass.
func measure(p *pass, tr *Tracer, fn func() error) error {
	liveHeapMiB()
	stop := make(chan struct{})
	done := make(chan struct{})
	if tr != nil {
		go func() {
			defer close(done)
			goroutinePeak(stop, &p.goroutines)
		}()
	} else {
		close(done)
	}
	m0 := readMem()
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	p.window += time.Since(t0)
	p.cpu += cpuTime() - c0
	m1 := readMem()
	close(stop)
	<-done
	p.mem.Mallocs += m1.Mallocs - m0.Mallocs
	p.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	p.mem.PauseNS += m1.PauseNS - m0.PauseNS
	return err
}

func removeAll(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir) // scratch data; a leftover directory is swept with .bench_build
	}
}
