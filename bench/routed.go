package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/latency"
	"repro/internal/provbench"
	"repro/internal/store"
	"repro/internal/store/slowfs"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// routedTenants are the two tenants sharing the cluster; each is one
// provbench client class.
var routedTenants = []string{"acme", "globex"}

// shardNode is one in-process provd shard: a durable continuous system on
// the device model behind its own HTTP listener.
type shardNode struct {
	name  string
	dir   string
	sys   *core.System
	srv   *httptest.Server
	cfs   *countFS // traced passes only
	hs    httpStats
	watch *feedWatch
}

// routed is routed_steady's state: the production-shaped path. One HTTP
// client (the load generator, in this process) talks to a cluster.Router,
// which fans out to the shards.
type routed struct {
	nodes  []*shardNode
	rsrv   *httptest.Server
	rs     httpStats
	client *http.Client
	target *provbench.HTTPTarget
	sched  *provbench.Schedule
	reads  []routedRead
}

// routedRead is one scheduled read: the verdicts of a trace written
// about two seconds earlier (owner-proxied), or the dashboard (scattered
// to every shard and merged).
type routedRead struct {
	at          time.Duration
	path, query string
	id          string
}

func setupRouted(cfg runCfg, tr *Tracer, rate float64) (*routed, error) {
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	r := &routed{}
	var shards []cluster.Shard
	for i := 0; i < 2; i++ {
		n := &shardNode{name: fmt.Sprintf("s%d", i+1)}
		r.nodes = append(r.nodes, n)
		if n.dir, err = scratchDir(cfg.tmp, "shard"); err != nil {
			r.close()
			return nil, err
		}
		var fsys store.FS = slowfs.New(nil, device)
		if tr != nil {
			n.cfs = newCountFS(fsys, tr)
			fsys = n.cfs
		}
		n.sys, err = core.New(d, core.Config{
			Dir: n.dir, Sync: true, FS: fsys, Continuous: true, IngestQueueDepth: 256,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		for _, tn := range routedTenants {
			if err := n.sys.CreateTenant(tenant.Tenant{ID: tn, Weight: 1}); err != nil {
				r.close()
				return nil, err
			}
			for _, cs := range d.Controls {
				if _, err := n.sys.DeployControlTenant(tn, cs.ID, cs.Name, cs.Text); err != nil {
					r.close()
					return nil, err
				}
			}
		}
		n.watch = watchFeed(n.sys, tr)
		var h http.Handler = httpapi.NewServer(n.sys, true)
		if tr != nil {
			h = spanHandler(h, tr, "httpapi.shard", "cluster.router", &n.hs)
		}
		n.srv = httptest.NewServer(h)
		shards = append(shards, cluster.Shard{Name: n.name, URL: n.srv.URL})
	}
	rt, err := cluster.NewRouter(shards, 0)
	if err != nil {
		r.close()
		return nil, err
	}
	var h http.Handler = rt
	if tr != nil {
		h = spanHandler(h, tr, "cluster.router", "provbench.call", &r.rs)
	}
	r.rsrv = httptest.NewServer(h)
	// The generator holds at most clients() connections to the router.
	r.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients(),
	}}
	r.target = &provbench.HTTPTarget{Base: r.rsrv.URL, Client: r.client}

	// The slowest simulated client sends less than once a second; a
	// schedule shorter than that (the smoke test's) would be empty.
	horizon := time.Duration(cfg.seconds * float64(time.Second))
	if horizon < time.Second {
		horizon = time.Second
	}
	spec := provbench.Spec{
		Name: fmt.Sprintf("routed-%d", cfg.seed), Seed: cfg.seed,
		Duration: provbench.Dur(horizon),
	}
	for _, tn := range routedTenants {
		spec.Classes = append(spec.Classes, provbench.ClientClass{
			Name: tn, Tenant: tn, Domain: "hiring", Clients: 4,
			RatePerSec: rate / float64(len(routedTenants)), Skew: 1,
			Arrival:  provbench.ArrivalSpec{Process: "gamma", Shape: 16},
			BatchMin: 4, BatchMax: 8, ViolationRate: 0.2,
		})
	}
	if r.sched, err = provbench.Generate(spec); err != nil {
		r.close()
		return nil, err
	}
	// One read after every routedReadEvery writes, halfway to the next
	// write, alternating the two read shapes.
	ops := r.sched.Ops
	lag := 2 * int(rate) // about two seconds of writes: long settled
	for i := routedReadEvery - 1; i+1 < len(ops); i += routedReadEvery {
		rd := routedRead{at: (ops[i].At + ops[i+1].At) / 2, id: fmt.Sprintf("r%d", i)}
		if (i/routedReadEvery)%2 == 0 && i >= lag {
			rd.path, rd.query = "/compliance", "?app="+url.QueryEscape(ops[i-lag].Events[0].AppID)+"&_b="+rd.id
		} else {
			rd.path, rd.query = "/dashboard", "?_b="+rd.id
		}
		r.reads = append(r.reads, rd)
	}
	return r, nil
}

func (r *routed) close() {
	if r.rsrv != nil {
		r.rsrv.Close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	for _, n := range r.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
		n.watch.stop()
		if n.sys != nil {
			_ = n.sys.Close() // scratch data, removed next
		}
		removeAll(n.dir)
	}
}

// routedResult is what one routed window measured.
type routedResult struct {
	mu                       sync.Mutex
	admit, ack, detect, read latency.Digest
	applyWait, feedToVerdict latency.Digest
	failed                   int
	events                   int
	slip                     latency.Digest
	acked                    map[string][]string
	lastErr                  string
}

// window dispatches the schedule open-loop: every operation starts at its
// scheduled offset whatever happened to the ones before it, and every
// latency is measured from that scheduled time, so a stall shows up in
// the operations queued behind it.
func (r *routed) window(tr *Tracer) *routedResult {
	res := &routedResult{acked: map[string][]string{}}
	// The dispatcher sleeps in the kernel on its own thread: the Go
	// runtime's timers wake an idle process through a poll with
	// millisecond granularity, which would make every operation about a
	// millisecond late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	var wg sync.WaitGroup
	wi, ri := 0, 0
	ops := r.sched.Ops
	for wi < len(ops) || ri < len(r.reads) {
		write := ri >= len(r.reads) || (wi < len(ops) && ops[wi].At <= r.reads[ri].at)
		var at time.Duration
		if write {
			at = ops[wi].At
		} else {
			at = r.reads[ri].at
		}
		if d := time.Until(start.Add(at)); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shows as no slip
		}
		res.slip.Add(time.Since(start) - at)
		wg.Add(1)
		if write {
			op := &ops[wi]
			wi++
			go func() {
				defer wg.Done()
				r.write(tr, res, start.Add(op.At), op)
			}()
		} else {
			rd := r.reads[ri]
			ri++
			go func() {
				defer wg.Done()
				r.readOp(tr, res, start.Add(rd.at), rd)
			}()
		}
	}
	wg.Wait()
	return res
}

func (res *routedResult) fail(err error) {
	res.mu.Lock()
	defer res.mu.Unlock()
	res.failed++
	if err != nil {
		res.lastErr = err.Error()
	}
}

// write offers one batch and follows it: admitted (the router answered),
// acked (every part durably applied, seen by polling the ack as a
// recorder does), detected (both shards' checkers have caught up with
// the commits and recorded the verdicts on the dashboard).
func (r *routed) write(tr *Tracer, res *routedResult, due time.Time, op *provbench.Op) {
	sp := tr.begin("provbench.call/events", op.Key, "")
	offer, err := r.target.Offer(op.Key, op.Events)
	sp.end()
	admit := time.Since(due)
	if err != nil || offer.Shed {
		res.fail(err)
		return
	}
	sp = tr.begin("provbench.ack_wait", op.Key, "")
	for applied := offer.Applied; !applied; {
		if time.Since(due) > 15*time.Second {
			sp.end()
			res.fail(fmt.Errorf("ack for %s timed out", op.Key))
			return
		}
		time.Sleep(routedAckPollMS * time.Millisecond)
		if applied, err = r.target.Applied(offer.Token); err != nil {
			sp.end()
			res.fail(err)
			return
		}
	}
	sp.end()
	ack := time.Since(due)
	sp = tr.begin("provbench.detect_wait", op.Key, "")
	var fv time.Duration
	for _, n := range r.nodes {
		// WaitFor, not the per-tenant WaitTenant: the latter can block
		// forever (README.md, "Findings").
		seq := n.sys.Store.Stats().Seq
		n.sys.Checker.WaitFor(seq)
		if d := n.watch.since(seq); d > fv {
			fv = d
		}
	}
	sp.end()
	detect := time.Since(due)

	res.mu.Lock()
	defer res.mu.Unlock()
	res.admit.Add(admit)
	res.ack.Add(ack)
	res.detect.Add(detect)
	res.applyWait.Add(ack - admit)
	if fv > 0 {
		res.feedToVerdict.Add(fv)
	}
	res.events += len(op.Events)
	for _, ev := range op.Events {
		res.acked[ev.AppID] = append(res.acked[ev.AppID], recordID(ev.AppID, ev.Payload["recordId"]))
	}
}

func (r *routed) readOp(tr *Tracer, res *routedResult, due time.Time, rd routedRead) {
	sp := tr.begin("provbench.call"+rd.path, rd.id, "")
	resp, err := r.client.Get(r.rsrv.URL + rd.path + rd.query)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s%s: status %d", rd.path, rd.query, resp.StatusCode)
		}
	}
	sp.end()
	if err != nil {
		res.fail(err)
		return
	}
	res.mu.Lock()
	res.read.Add(time.Since(due))
	res.mu.Unlock()
}

func runRoutedSteady(cfg runCfg, tr *Tracer) (*pass, error) {
	return runRouted(cfg, tr, routedRate)
}

func runRouted(cfg runCfg, tr *Tracer, rate float64) (*pass, error) {
	p := newPass()
	r, secs, err := timedSetups(cfg.setupReps,
		func() (*routed, error) { return setupRouted(cfg, tr, rate) },
		func(r *routed) { r.close() })
	if err != nil {
		return nil, err
	}
	defer r.close()
	p.setupS = secs

	var res *routedResult
	if err := measure(p, tr, func() error { res = r.window(tr); return nil }); err != nil {
		return nil, err
	}
	p.attempted = len(r.sched.Ops) + len(r.reads)
	p.failed = res.failed
	p.events, p.reads = res.events, res.read.Count()
	p.ops = p.events + p.reads
	p.verdict.Merge(&res.detect)
	p.read.Merge(&res.read)
	if res.lastErr != "" {
		p.info["last_error"] = res.lastErr
	}
	p.info["max_slip_us"] = us(res.slip.Max())
	p.slipP99 = res.slip.P99()
	p.info["slip_p99_us"] = us(p.slipP99)
	p.info["rate_batches_per_s"] = rate

	// Drain: at a rate below the knee nothing is left to do once the
	// schedule ends; a long drain means a backlog was growing.
	d0 := time.Now()
	var all verification
	var counters sysCounters
	var disk int64
	for _, n := range r.nodes {
		apps := n.sys.Store.AppIDs()
		if err := quiesce(n.sys, apps); err != nil {
			return nil, err
		}
	}
	p.info["drain_ms"] = ms(time.Since(d0))
	for _, n := range r.nodes {
		apps := n.sys.Store.AppIDs()
		v, err := verifyVerdicts(n.sys, apps)
		if err != nil {
			return nil, err
		}
		if bad := checkBoard(n.sys, v); bad > 0 {
			p.fail("%s: %d dashboard counters differ from the verified verdicts", n.name, bad)
		}
		mine := map[string][]string{}
		for _, app := range apps {
			if ids, ok := res.acked[app]; ok {
				mine[app] = ids
				delete(res.acked, app)
			}
		}
		p.addWrong(checkReadable(n.sys, mine))
		all.merge(v)
		counters.add(n.sys)
		disk += storeBytes(n.dir)
	}
	if len(res.acked) > 0 {
		p.fail("%d acked traces are on no shard", len(res.acked))
	}
	p.addWrong(all.wrong, all.firstWrong)
	p.digest = all.digest()
	p.heapMiB = liveHeapMiB()
	p.info["traces"], p.info["verdicts"] = all.traces, all.verdicts

	counters.report(p)
	p.latencyLayer("admit", &res.admit)
	p.latencyLayer("ack", &res.ack)
	p.latencyLayer("detect", &res.detect)
	p.latencyLayer("read", &res.read)
	p.layer["provbench.max_slip_us"] = us(res.slip.Max())
	p.layer["ingest.apply_wait_us"] = p50us(&res.applyWait)
	p.layer["store.disk_bytes_per_event"] = ratio(float64(disk), float64(p.events))
	if tr != nil {
		r.traceMetrics(p, tr, res)
	}
	return p, nil
}

// traceMetrics derives the per-layer metrics that need spans or the
// wrapped seams: handler self times, fan-out shape, bytes on the wire
// and the device's work.
func (r *routed) traceMetrics(p *pass, tr *Tracer, res *routedResult) {
	p.layer["controls.feed_to_verdict_us"] = p50us(&res.feedToVerdict)
	spans := tr.snapshot()
	self := selfTimes(spans)
	selfBy := byName(spans, self)
	durBy := byName(spans, nil)
	p.layer["cluster.router_self_us"] = p50us(digestOf(selfBy["cluster.router/events"]))
	p.layer["cluster.scatter_self_us"] = p50us(digestOf(selfBy["cluster.router/dashboard"]))
	p.layer["httpapi.events_handler_us"] = p50us(digestOf(durBy["httpapi.shard/events"]))
	p.layer["httpapi.read_handler_us"] = p50us(digestOf(append(durBy["httpapi.shard/compliance"], durBy["httpapi.shard/dashboard"]...)))

	// Fan-out: the parts of one ingest are the shard /events spans under
	// its router span; the slowest part sets the ack.
	parts := map[int64][]time.Duration{}
	for _, s := range spans {
		if s.Name == "httpapi.shard/events" && s.Parent != 0 {
			parts[s.Parent] = append(parts[s.Parent], time.Duration(s.End-s.Start))
		}
	}
	var nParts int
	var skews []float64
	for _, ds := range parts {
		nParts += len(ds)
		if len(ds) > 1 {
			var sum, max time.Duration
			for _, d := range ds {
				sum += d
				if d > max {
					max = d
				}
			}
			skews = append(skews, ratio(float64(max)*float64(len(ds)), float64(sum)))
		}
	}
	p.layer["cluster.parts_per_ingest"] = ratio(float64(nParts), float64(len(parts)))
	p.layer["cluster.shard_skew"] = median(skews)
	p.layer["cluster.shard_errors"] = float64(r.rs.status5xx.Load())

	var reqBytes, s429, s5xx int64
	var dev deviceStats
	for _, n := range r.nodes {
		reqBytes += n.hs.eventReqBytes.Load()
		s429 += n.hs.status429.Load()
		s5xx += n.hs.status5xx.Load()
		d := n.cfs.stats()
		dev.Writes += d.Writes
		dev.WriteBytes += d.WriteBytes
		dev.Syncs += d.Syncs
		dev.Reads += d.Reads
		dev.ReadBytes += d.ReadBytes
		dev.Busy += d.Busy
	}
	p.layer["httpapi.req_bytes_per_event"] = ratio(float64(reqBytes), float64(p.events))
	p.layer["httpapi.resp_bytes_per_read"] = ratio(float64(r.rs.readRespBytes.Load()), float64(r.rs.reads.Load()))
	p.layer["httpapi.status_429"] = float64(s429)
	p.layer["httpapi.status_5xx"] = float64(s5xx)
	p.layer["store.device_writes"] = float64(dev.Writes)
	p.layer["store.device_write_bytes"] = float64(dev.WriteBytes)
	p.layer["store.device_syncs"] = float64(dev.Syncs)
	p.layer["store.device_reads"] = float64(dev.Reads)
	p.layer["store.device_read_bytes"] = float64(dev.ReadBytes)
	p.layer["store.device_busy_us"] = us(dev.Busy)
	p.layer["store.events_per_sync"] = ratio(float64(p.events), float64(dev.Syncs))
	p.layer["store.write_amp"] = ratio(float64(dev.WriteBytes), float64(reqBytes))

	// Where an ack's time goes, per write: the HTTP layers' own time and
	// the device time of the commits it waited for.
	writes := float64(res.ack.Count())
	var httpSelf time.Duration
	for _, name := range []string{"cluster.router/events", "httpapi.shard/events", "provbench.call/events"} {
		for _, d := range selfBy[name] {
			httpSelf += d
		}
	}
	p.info["ack_mean_us"] = us(res.ack.Mean())
	p.info["http_self_per_write_us"] = ratio(us(httpSelf), writes)
	p.info["device_busy_per_write_us"] = ratio(us(dev.Busy), writes)
}
