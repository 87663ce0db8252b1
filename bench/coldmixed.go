package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/ingest"
	"repro/internal/latency"
)

// mixedOp is one operation of cold_mixed's fixed sequence.
type mixedOp struct {
	write bool
	kind  readKind // reads
	app   string
	evs   []events.AppEvent // writes
}

// mixedOps draws the sequence: half reads in cold_read's mix over the
// image's traces, a quarter writes of a sealed trace's held-back event
// (promote-on-write), a quarter writes of a whole new trace.
func mixedOps(img *image, seed int64, n int) []mixedOp {
	rng := rand.New(rand.NewSource(seed))
	var sealed []string
	for _, app := range img.apps {
		if !img.hot[app] {
			sealed = append(sealed, app)
		}
	}
	rng.Shuffle(len(sealed), func(i, j int) { sealed[i], sealed[j] = sealed[j], sealed[i] })
	nextSealed, nextFresh := 0, 0
	ops := make([]mixedOp, 0, n)
	for len(ops) < n {
		switch x := rng.Intn(4); {
		case x < 2:
			ops = append(ops, mixedOp{kind: pickRead(rng), app: img.apps[rng.Intn(len(img.apps))]})
		case x == 2 && nextSealed < len(sealed):
			app := sealed[nextSealed]
			nextSealed++
			ops = append(ops, mixedOp{write: true, app: app, evs: []events.AppEvent{img.held[app]}})
		case nextFresh < len(img.fresh):
			t := img.fresh[nextFresh]
			nextFresh++
			ops = append(ops, mixedOp{write: true, app: t.app, evs: t.events})
		default:
			ops = append(ops, mixedOp{kind: pickRead(rng), app: img.apps[rng.Intn(len(img.apps))]})
		}
	}
	return ops
}

// runColdMixed uses the tier the other way round from cold_read: on the
// same kind of image, closed-loop clients mix cold reads with durable
// writes through the gateway — half to sealed traces, which promotes
// them, half to new traces — while the store compacts every
// mixedCompactEvery operations, demoting what has gone idle and
// reclaiming dead segments, all inside the window on the device model.
//
// The system runs in batch mode (the paper's "query deployed into the
// store" style): the gateway's sink correlates a batch's traces before
// it acknowledges, and the client then asks for the trace's verdicts. In
// continuous mode the correlator is one goroutine paying one device sync
// per derived edge, closed-loop clients that do not wait for it outrun
// it, and a trace that idles in its backlog past SegmentColdAfter is
// sealed before its edges are derived — they are then never derived and
// a seeded violation reads "satisfied". That is a defect of the program
// this benchmark found (README.md, "Findings"); a benchmark workload must
// be one on which no operation fails, so this one keeps clear of it.
func runColdMixed(cfg runCfg, tr *Tracer) (*pass, error) {
	p := newPass()
	size := imageSize(cfg.seconds)
	nOps := scaled(mixedOpsPerSec, cfg.seconds, 40)
	img, secs, err := timedSetups(cfg.setupReps,
		func() (*image, error) { return buildImage(cfg.tmp, cfg.seed, size, nOps/3+1) },
		func(img *image) { removeAll(img.dir) })
	if err != nil {
		return nil, err
	}
	defer removeAll(img.dir)
	p.setupS = secs
	p.wrong, p.firstWrong = img.buildWrong, img.firstWrong

	ops := mixedOps(img, cfg.seed, nOps)
	compactEvery := mixedCompactEvery
	if nOps < 2*compactEvery {
		compactEvery = nOps / 2
	}
	fsys, cfs := coldFS(tr)
	sys, err := core.New(img.dom, core.Config{
		Dir: img.dir, Sync: true, FS: fsys,
		SegmentCacheMB: coldCacheMB, SegmentColdAfter: uint64(mixedColdAfterPerOp * compactEvery),
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	rd := newColdReader(img, tr, true)
	var mu sync.Mutex
	var admit, ack, detect latency.Digest
	var compactions int
	var compactTotal time.Duration
	acked := map[string][]string{}
	var touched []string
	var payloadBytes int64

	// The compactor runs Store.Compact whenever the clients have
	// completed another compactEvery operations: the same call core's
	// CompactEvery ticker makes, but triggered by work done instead of
	// time passed, so every run compacts the same number of times.
	var done atomic.Int64
	kick := make(chan struct{}, 1)
	compacted := make(chan error, 1)
	go func() {
		var cerr error
		for range kick {
			sp := tr.begin("store.compact", "", "")
			t0 := time.Now()
			if err := sys.Store.Compact(); err != nil && cerr == nil {
				cerr = err
			}
			mu.Lock()
			compactions++
			compactTotal += time.Since(t0)
			mu.Unlock()
			sp.end()
		}
		compacted <- cerr
	}()

	err = measure(p, tr, func() error {
		werr := closedLoop(len(ops), func(i int) error {
			op := ops[i]
			var oerr error
			if op.write {
				oerr = mixedWrite(sys, tr, i, op, func(ad, ak, det time.Duration, failed int) {
					mu.Lock()
					defer mu.Unlock()
					admit.Add(ad)
					ack.Add(ak)
					detect.Add(det)
					if len(op.evs) == 1 {
						// Writes come in two sizes — one event to a sealed
						// trace, a whole new trace — and a median across both
						// would sit in the gap between them, moving with the
						// mix and not with the system. verdict_p50_us is the
						// promote-on-write's.
						p.verdict.Add(det)
					}
					p.failed += failed
					p.events += len(op.evs)
					touched = append(touched, op.app)
					for _, ev := range op.evs {
						acked[op.app] = append(acked[op.app], recordID(op.app, ev.Payload["recordId"]))
						payloadBytes += eventBytes(ev)
					}
				})
			} else {
				oerr = rd.do(sys, op.kind, op.app, i)
			}
			if n := done.Add(1); n%int64(compactEvery) == 0 {
				select {
				case kick <- struct{}{}:
				default: // a compaction is still running; it will see this work too
				}
			}
			return oerr
		})
		close(kick)
		if cerr := <-compacted; werr == nil {
			werr = cerr
		}
		return werr
	})
	if err != nil {
		return nil, err
	}
	p.attempted = len(ops)
	rd.report(p)
	p.ops = p.events + p.reads

	if err := quiesce(sys, touched); err != nil {
		return nil, err
	}
	v, err := verifyVerdicts(sys, sys.Store.AppIDs())
	if err != nil {
		return nil, err
	}
	p.addWrong(v.wrong, v.firstWrong)
	complete := map[string]bool{}
	for _, app := range touched {
		complete[app] = true
	}
	p.addWrong(checkTruth(img.dom, v, img.truth, complete))
	p.addWrong(checkReadable(sys, acked))
	p.digest = v.digest()
	p.heapMiB = liveHeapMiB()
	p.info["image_traces"], p.info["compactions"] = size, compactions

	var tiers tierCounters
	tiers.add(sys)
	tiers.report(p)
	p.latencyLayer("admit", &admit)
	p.latencyLayer("ack", &ack)
	p.latencyLayer("detect", &detect)
	p.layer["ingest.offer_us"] = p50us(&admit)
	p.layer["ingest.apply_wait_us"] = p50us(&ack) - p50us(&admit)
	p.layer["store.compact_us"] = us(compactTotal)
	p.layer["store.disk_bytes_per_event"] = ratio(float64(storeBytes(img.dir)), float64(img.events+p.events))
	systemStats(p, sys)
	reportDevice(p, cfs, p.events, payloadBytes)
	return p, nil
}

// mixedWrite offers one batch to the gateway and follows it to its
// verdict: admitted (Offer answered), acked (durably applied and
// correlated), verdict (the trace checked and recorded on the
// dashboard). report receives the three latencies from the same start
// and the number of events the pipeline rejected.
func mixedWrite(sys *core.System, tr *Tracer, n int, op mixedOp,
	report func(admit, ack, verdict time.Duration, failed int)) error {
	opID := fmt.Sprintf("w%d", n)
	t0 := time.Now()
	sp := tr.begin("ingest.offer", opID, "")
	st, err := sys.Gateway.Offer(fmt.Sprintf("mixed-%d", n), op.evs)
	sp.end()
	admit := time.Since(t0)
	var oe *ingest.OverloadError
	if errors.As(err, &oe) {
		report(admit, admit, admit, len(op.evs))
		return nil
	}
	if err != nil {
		return fmt.Errorf("offer %s: %w", op.app, err)
	}
	sp = tr.begin("ingest.apply_wait", opID, "")
	for st.State != ingest.StateApplied {
		if time.Since(t0) > 30*time.Second {
			return fmt.Errorf("ack for %s still pending after 30s", op.app)
		}
		time.Sleep(100 * time.Microsecond)
		st, _ = sys.Gateway.Ack(st.Token)
	}
	sp.end()
	ack := time.Since(t0)
	sp = tr.begin("controls.check", opID, "")
	_, err = sys.Check(op.app)
	sp.end()
	if err != nil {
		return fmt.Errorf("check %s: %w", op.app, err)
	}
	failed := len(st.EventErrors)
	if st.Error != "" {
		failed = len(op.evs)
	}
	report(admit, ack, time.Since(t0), failed)
	return nil
}

// eventBytes is an event's size as a recorder would send it.
func eventBytes(ev events.AppEvent) int64 {
	n := len(ev.Source) + len(ev.Type) + len(ev.AppID) + 40
	for k, v := range ev.Payload {
		n += len(k) + len(v) + 6
	}
	return int64(n)
}
