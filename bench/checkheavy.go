package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/latency"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/workload"
)

// heavy is check_heavy's state: one in-memory system per process domain
// (a System serves one domain's model and vocabulary), each carrying the
// domain's own controls — the windowed one among them — plus the
// scan-heavy controls, and the interleaved feed across all three.
type heavy struct {
	doms     []*workload.Domain
	sys      []*core.System
	feed     []feedBatch
	truth    []map[string]workload.TraceTruth
	complete []map[string]bool
	events   int
}

// setupHeavy builds one round's systems and feed of about total events.
func setupHeavy(cfg runCfg, continuous bool, round, total int) (*heavy, error) {
	doms, err := domains()
	if err != nil {
		return nil, err
	}
	h := &heavy{doms: doms}
	perDomain := total / len(doms)
	open := heavyOpenTraces / len(doms)
	var feeds [][]feedBatch
	for di, d := range doms {
		sys, err := core.New(d, core.Config{Continuous: continuous, DisableAsyncIngest: true})
		if err != nil {
			h.close()
			return nil, err
		}
		h.sys = append(h.sys, sys)
		for _, cs := range scanControls(d) {
			if _, err := sys.DeployControl(cs.ID, cs.Name, cs.Text); err != nil {
				h.close()
				return nil, fmt.Errorf("deploy %s/%s: %w", d.Name, cs.ID, err)
			}
		}
		seed := cfg.seed*1000 + int64(round)*int64(len(doms)) + int64(di)
		// Traces carry 5-10 events; a quarter of the event budget in
		// traces always outlasts it.
		traces := simulate(d, seed, perDomain/4+open, 0.5)
		feed := interleave(rand.New(rand.NewSource(seed)), di, traces, open, 2, perDomain)
		feeds = append(feeds, feed)

		truth := map[string]workload.TraceTruth{}
		lens := map[string]int{}
		for _, t := range traces {
			truth[t.app] = t.truth
			lens[t.app] = len(t.events)
		}
		fed := map[string]int{}
		for _, b := range feed {
			fed[b.app] += len(b.events)
			h.events += len(b.events)
		}
		complete := map[string]bool{}
		for app, n := range fed {
			complete[app] = n == lens[app]
		}
		h.truth = append(h.truth, truth)
		h.complete = append(h.complete, complete)
	}
	// Alternate the domains so all three systems are busy throughout.
	for i := 0; ; i++ {
		done := true
		for _, f := range feeds {
			if i < len(f) {
				h.feed = append(h.feed, f[i])
				done = false
			}
		}
		if done {
			break
		}
	}
	return h, nil
}

func (h *heavy) close() {
	for _, sys := range h.sys {
		_ = sys.Close() // in-memory systems: nothing to flush
	}
}

// runCheckHeavy feeds a fixed number of events in rounds, each on fresh
// in-memory systems: an in-memory store keeps everything it was ever
// fed, so one long feed would measure a heap that grows with the run
// length, while rounds of a fixed size end with the same heap however
// long the run is. Each round's set-up is timed, which makes setup_s a
// median over rounds.
func runCheckHeavy(cfg runCfg, tr *Tracer) (*pass, error) {
	p := newPass()
	total := scaled(heavyEventsPerSec, cfg.seconds, 90)
	rounds := (total + heavyEventsPerRound - 1) / heavyEventsPerRound
	var all verification
	var ingest latency.Digest
	var acc sysCounters
	var st stagedTime
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		h, err := setupHeavy(cfg, tr == nil, r, total/rounds)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.attempted += len(h.feed)
		p.events += h.events
		w0, c0, r0 := p.window, p.cpu, p.reads
		var verdict, read latency.Digest
		if tr == nil {
			err = measure(p, tr, func() error { return h.continuous(p, &verdict, &read, &ingest) })
		} else {
			err = measure(p, tr, func() error { return h.staged(p, tr, r, &st, &verdict, &read) })
		}
		p.addRound(h.events+p.reads-r0, p.window-w0, p.cpu-c0, &verdict, &read)
		p.verdict.Merge(&verdict)
		p.read.Merge(&read)
		if err == nil {
			err = h.verify(p, tr == nil, &all)
		}
		if err == nil && r == rounds-1 {
			p.heapMiB = liveHeapMiB()
			if tr != nil {
				h.ruleBench(p)
			}
		}
		acc.resident = 0 // of the last round only; everything else sums
		for _, sys := range h.sys {
			acc.add(sys)
		}
		h.close()
		if err != nil {
			return nil, err
		}
	}
	p.ops = p.events + p.reads
	p.addWrong(all.wrong, all.firstWrong)
	p.digest = all.digest()
	p.info["rounds"], p.info["traces"], p.info["verdicts"] = rounds, all.traces, all.verdicts

	acc.report(p)
	if tr == nil {
		p.latencyLayer("admit", &ingest)
		p.latencyLayer("detect", &p.verdict)
		p.latencyLayer("read", &p.read)
	} else {
		st.finish(p, tr)
	}
	return p, nil
}

// verify quiesces a round's systems and checks every verdict they hold.
func (h *heavy) verify(p *pass, continuous bool, all *verification) error {
	for di, sys := range h.sys {
		apps := sys.Store.AppIDs()
		if continuous {
			if err := quiesce(sys, apps); err != nil {
				return err
			}
		}
		v, err := verifyVerdicts(sys, apps)
		if err != nil {
			return err
		}
		if n := checkBoard(sys, v); n > 0 {
			p.fail("%s: %d dashboard counters differ from the verified verdicts", h.doms[di].Name, n)
		}
		p.addWrong(checkTruth(h.doms[di], v, h.truth[di], h.complete[di]))
		all.merge(v)
	}
	return nil
}

// readBack names the trace whose verdicts the client reads after batch i,
// or "" when batch i is not followed by a read: every heavyReadEvery-th
// batch reads the trace fed heavyReadLag batches earlier. That trace is settled — its edges derived, its verdicts
// recorded, its next events a whole round-robin turn away — so the read
// cannot race the continuous checker on the dashboard (README.md,
// "Findings").
func (h *heavy) readBack(i int) (*core.System, string) {
	if i%heavyReadEvery != 0 || i < heavyReadLag {
		return nil, ""
	}
	b := h.feed[i-heavyReadLag]
	return h.sys[b.dom], b.app
}

// continuous is the untraced window: closed-loop clients take the next
// batch of the feed, ingest it and wait until the checker has carried it
// to a verdict; every heavyReadEvery-th then reads a settled trace's
// verdicts.
func (h *heavy) continuous(p *pass, verdict, read, ingest *latency.Digest) error {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var det, ing, rd latency.Digest
			failed := 0
			var err error
			for err == nil {
				i := int(next.Add(1) - 1)
				if i >= len(h.feed) {
					break
				}
				b := h.feed[i]
				sys := h.sys[b.dom]
				t0 := time.Now()
				ierr := sys.Ingest(b.events)
				ing.Add(time.Since(t0))
				sys.Checker.WaitFor(sys.Store.Stats().Seq)
				det.Add(time.Since(t0))
				if ierr != nil {
					failed++
				}
				if rsys, app := h.readBack(i); app != "" {
					r0 := time.Now()
					if _, cerr := rsys.Check(app); cerr != nil {
						err = fmt.Errorf("read back %s: %w", app, cerr)
					}
					rd.Add(time.Since(r0))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			verdict.Merge(&det)
			read.Merge(&rd)
			ingest.Merge(&ing)
			p.failed += failed
			p.reads += rd.Count()
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// staged is the traced window: the same feed, one batch at a time, on
// batch-mode systems, the benchmark itself calling each stage — ingest,
// correlate, delta check, dashboard record — with a span around each.
// The write set handed to CheckDelta is built from the benchmark's own
// change-feed subscription, as the continuous checker builds its own.
func (h *heavy) staged(p *pass, tr *Tracer, round int, acc *stagedTime, verdict, read *latency.Digest) error {
	subs := make([]*store.Subscription, len(h.sys))
	seen := make([]uint64, len(h.sys))
	for i, sys := range h.sys {
		subs[i] = sys.Store.Subscribe()
		seen[i] = sys.Store.Stats().Seq
		defer subs[i].Cancel()
	}
	// drain collects the feed events of one system up to its current
	// commit sequence; nothing else writes, so they all belong to the
	// batch's trace.
	drain := func(dom int, ws *store.WriteSet) {
		target := h.sys[dom].Store.Stats().Seq
		for seen[dom] < target {
			ev := <-subs[dom].C()
			seen[dom] = ev.Seq
			ws.AddEvent(ev)
		}
	}
	for i, b := range h.feed {
		sys := h.sys[b.dom]
		ws := store.NewWriteSet()
		bsp := tr.begin("provbench.batch", fmt.Sprintf("b%d.%d", round, i), "")

		sp := tr.beginChild("events.ingest", bsp)
		ierr := sys.Ingest(b.events)
		acc.stageNS += int64(sp.end())
		var be *events.BatchError
		if ierr != nil && !errors.As(ierr, &be) {
			return ierr
		}
		if ierr != nil {
			p.failed++
		}
		drain(b.dom, ws)

		sp = tr.beginChild("correlate.run_trace", bsp)
		cerr := sys.CorrelateTrace(b.app)
		acc.stageNS += int64(sp.end())
		if cerr != nil {
			return fmt.Errorf("correlate %s: %w", b.app, cerr)
		}
		drain(b.dom, ws)

		sp = tr.beginChild("controls.check_delta", bsp)
		out, skipped, kerr := sys.Registry.CheckDelta(b.app, ws)
		acc.stageNS += int64(sp.end())
		if kerr != nil {
			return fmt.Errorf("check %s: %w", b.app, kerr)
		}
		if !skipped {
			sp = tr.beginChild("dashboard.record", bsp)
			sys.Board.Record(out)
			acc.stageNS += int64(sp.end())
		}
		d := bsp.end()
		acc.batchNS += int64(d)
		verdict.Add(d)

		if rsys, app := h.readBack(i); app != "" {
			sp = tr.begin("controls.check", fmt.Sprintf("r%d.%d", round, i), "")
			_, rerr := rsys.Check(app)
			read.Add(sp.end())
			if rerr != nil {
				return fmt.Errorf("read back %s: %w", app, rerr)
			}
			p.reads++
		}
	}
	return nil
}

// stagedTime sums the staged driver's batch time and the part of it
// spent inside stage spans.
type stagedTime struct{ stageNS, batchNS int64 }

// finish derives the stage metrics from the staged driver's spans.
// The residual is the share of staged batch time no stage span covers:
// draining the change feed and building the write set.
func (a *stagedTime) finish(p *pass, tr *Tracer) {
	p.layer["provbench.stage_residual_pct"] = 100 * (1 - ratio(float64(a.stageNS), float64(a.batchNS)))
	dur := byName(tr.snapshot(), nil)
	sum := func(name string) (t time.Duration) {
		for _, d := range dur[name] {
			t += d
		}
		return t
	}
	p.layer["events.ingest_us_per_event"] = ratio(us(sum("events.ingest")), float64(p.events))
	p.layer["correlate.run_trace_us"] = p50us(digestOf(dur["correlate.run_trace"]))
	p.layer["controls.check_delta_us"] = p50us(digestOf(dur["controls.check_delta"]))
	p.layer["dashboard.record_us"] = p50us(digestOf(dur["dashboard.record"]))
	for _, name := range []string{"events.ingest", "correlate.run_trace", "controls.check_delta", "dashboard.record"} {
		p.info["stage_share_"+name] = ratio(float64(sum(name)), float64(a.batchNS))
	}
}

// ruleBench times Control.EvaluateWith directly: every control of the
// hiring system, compiled afresh from its text, over a sample of the
// traces the window left behind.
func (h *heavy) ruleBench(p *pass) {
	d, sys := h.doms[0], h.sys[0]
	var compiled []*rules.Control
	for _, cp := range sys.Registry.List() {
		c, err := rules.Compile(cp.Text, d.Vocab)
		if err != nil {
			p.fail("recompile %s: %v", cp.ID, err)
			return
		}
		compiled = append(compiled, c)
	}
	apps := sys.Store.AppIDs()
	if len(apps) > 64 {
		apps = apps[:64]
	}
	evals := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, app := range apps {
		_ = sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
			for _, c := range compiled {
				c.EvaluateWith(g, app, nil)
				evals++
			}
			return nil
		})
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.layer["rules.evaluate_us_per_control"] = ratio(us(el), float64(evals))
	p.layer["rules.allocs_per_evaluate"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(evals))
}
