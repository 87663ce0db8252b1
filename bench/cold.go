package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/latency"
	"repro/internal/provenance"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/store/slowfs"
	"repro/internal/workload"
)

// image is the on-disk store both cold workloads start from: hiring
// traces ingested, correlated and checked, then all but the last
// coldHotShare of them sealed into a segment several times the block
// cache. It remembers what every trace looked like while it was still
// hot, so reads of the sealed copy can be checked.
type image struct {
	dir string
	dom *workload.Domain
	// apps are the image's traces in ID order; hot marks those left in
	// the log.
	apps []string
	hot  map[string]bool
	// expect holds each trace's verdicts, in control order, as evaluated
	// hot at build time; nodes and rows are its record counts then.
	expect map[string][]rules.Verdict
	nodes  map[string]int
	rows   map[string]int
	// held is each trace's last event, kept back so cold_mixed has a
	// valid write for a sealed trace; fresh are whole traces the image
	// has never seen.
	held  map[string]events.AppEvent
	fresh []simTrace
	truth map[string]workload.TraceTruth

	events     int
	buildWrong int
	firstWrong string
}

func rowsDigest(rows []store.Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r.ID))
		h.Write([]byte{0})
		h.Write([]byte(r.XML))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// buildImage ingests traces+fresh simulated hiring traces' worth of input
// and seals the image. It runs on the plain filesystem without fsync:
// the image is an input, and the device model belongs to the window.
func buildImage(root string, seed int64, traces, fresh int) (*image, error) {
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(root, "image")
	if err != nil {
		return nil, err
	}
	img := &image{
		dir: dir, dom: d, hot: map[string]bool{},
		expect: map[string][]rules.Verdict{}, nodes: map[string]int{}, rows: map[string]int{},
		held: map[string]events.AppEvent{}, truth: map[string]workload.TraceTruth{},
	}
	all := simulate(d, seed, traces+fresh, 0.2)
	img.fresh = all[traces:]
	sys, err := core.New(d, core.Config{Dir: dir, SegmentCacheMB: coldCacheMB})
	if err != nil {
		removeAll(dir)
		return nil, err
	}
	fail := func(err error) (*image, error) {
		_ = sys.Close() // already failing; the directory is removed next
		removeAll(dir)
		return nil, err
	}
	var evs []events.AppEvent
	for _, t := range all[:traces] {
		n := len(t.events) - 1
		evs = append(evs, t.events[:n]...)
		img.held[t.app] = t.events[n]
		img.apps = append(img.apps, t.app)
		img.truth[t.app] = t.truth
	}
	for _, t := range img.fresh {
		img.truth[t.app] = t.truth
	}
	sort.Strings(img.apps)
	img.events = len(evs)
	if err := sys.Ingest(evs); err != nil {
		return fail(err)
	}
	if err := sys.CorrelateAll(); err != nil {
		return fail(err)
	}
	out, err := sys.CheckAll()
	if err != nil {
		return fail(err)
	}
	var v verification
	for _, o := range out {
		img.expect[o.Result.AppID] = append(img.expect[o.Result.AppID], o.Result.Verdict)
		v.lines = append(v.lines, verdictLine{o.Result.AppID, o.ControlID, o.Result.Verdict})
	}
	// The held-back event is each trace's closing notification, which no
	// control reads: the verdicts must already match the ground truth.
	complete := map[string]bool{}
	for _, app := range img.apps {
		complete[app] = true
	}
	img.buildWrong, img.firstWrong = checkTruth(d, v, img.truth, complete)
	before := map[string]uint64{}
	for i, app := range img.apps {
		rows := sys.Store.RowsForApp(app)
		img.rows[app] = len(rows)
		if i%25 == 0 {
			before[app] = rowsDigest(rows)
		}
		_ = sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
			img.nodes[app] = len(g.Nodes(provenance.NodeFilter{AppID: app}))
			return nil
		})
	}
	sealed := img.apps[:len(img.apps)-int(float64(len(img.apps))*coldHotShare)]
	for _, app := range img.apps[len(sealed):] {
		img.hot[app] = true
	}
	if err := sys.Store.DemoteTraces(sealed...); err != nil {
		return fail(err)
	}
	// Sampled sealed traces must read back exactly as they did hot.
	for app, want := range before {
		if got := rowsDigest(sys.Store.RowsForApp(app)); got != want {
			img.buildWrong++
			if img.firstWrong == "" {
				img.firstWrong = fmt.Sprintf("%s: rows read differently after demotion", app)
			}
		}
	}
	ti := sys.Store.Tiering()
	if ti.SealedTraces != len(sealed) {
		return fail(fmt.Errorf("image sealed %d traces, wanted %d", ti.SealedTraces, len(sealed)))
	}
	if err := sys.Close(); err != nil {
		removeAll(dir)
		return nil, err
	}
	return img, nil
}

// imageSize scales the image with short windows (the smoke test) and
// caps it at the pinned size.
func imageSize(seconds float64) int {
	n := int(float64(coldTraces) * seconds / runSeconds)
	if n > coldTraces {
		n = coldTraces
	}
	if n < 40 {
		n = 40
	}
	return n
}

// coldFS is the filesystem a cold window runs on: the device model, and
// around it the counting seam when traced.
func coldFS(tr *Tracer) (store.FS, *countFS) {
	dev := slowfs.New(nil, device)
	if tr == nil {
		return dev, nil
	}
	c := newCountFS(dev, tr)
	return c, c
}

// readKind is one kind of read in the cold read mix.
type readKind int

const (
	readCheck readKind = iota // sys.Check: the trace's verdicts
	readView                  // Store.ViewTrace: the trace's graph
	readRows                  // Store.RowsForApp: the trace's Table-1 rows
	readQuery                 // query.Run
	readAsOf                  // Store.TraceAsOf
)

// pickRead draws from the mix: 60 % verdict reads, 25 % graph or rows,
// 10 % queries, 5 % point-in-time reads.
func pickRead(rng *rand.Rand) readKind {
	switch x := rng.Intn(100); {
	case x < 60:
		return readCheck
	case x < 73:
		return readView
	case x < 85:
		return readRows
	case x < 95:
		return readQuery
	default:
		return readAsOf
	}
}

// coldReader performs and checks reads against an image, and keeps the
// per-kind latencies.
type coldReader struct {
	img *image
	tr  *Tracer
	// mutable is set by cold_mixed: traces gain records during the
	// window, so counts are lower bounds and hotness is looked up.
	mutable bool

	mu         sync.Mutex
	all        latency.Digest
	check      latency.Digest
	coldCheck  latency.Digest
	viewHot    latency.Digest
	viewCold   latency.Digest
	asOf       latency.Digest
	query      latency.Digest
	queries    int
	indexed    int
	wrong      int
	firstWrong string
	lines      map[verdictLine]bool
}

func newColdReader(img *image, tr *Tracer, mutable bool) *coldReader {
	return &coldReader{img: img, tr: tr, mutable: mutable, lines: map[verdictLine]bool{}}
}

func (c *coldReader) bad(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if c.firstWrong == "" {
		c.firstWrong = fmt.Sprintf(format, args...)
	}
}

func (c *coldReader) countOK(got, want int) bool {
	if c.mutable {
		return got >= want
	}
	return got == want
}

// isHot reports whether the trace is resident right now.
func (c *coldReader) isHot(sys *core.System, app string) bool {
	if !c.mutable {
		return c.img.hot[app]
	}
	hot := false
	_ = sys.Store.View(func(g *provenance.Graph) error {
		hot = g.TraceVersion(app) != 0
		return nil
	})
	return hot
}

// do performs one read, checks its answer and records its latency. n
// numbers the read for its span.
func (c *coldReader) do(sys *core.System, kind readKind, app string, n int) error {
	hot := c.isHot(sys, app)
	names := [...]string{"controls.check", "store.view_trace", "store.rows_for_app", "query.run", "store.trace_asof"}
	sp := c.tr.begin(names[kind], fmt.Sprintf("r%d", n), "")
	t0 := time.Now()
	var err error
	var lines []verdictLine
	switch kind {
	case readCheck:
		out, cerr := sys.Check(app)
		err = cerr
		want := c.img.expect[app]
		if cerr == nil && len(out) != len(want) {
			c.bad("%s: %d verdicts read, %d expected", app, len(out), len(want))
		} else if cerr == nil {
			for i, o := range out {
				lines = append(lines, verdictLine{app, o.ControlID, o.Result.Verdict})
				if o.Result.Verdict != want[i] {
					c.bad("%s/%s: read %v cold, was %v hot", app, o.ControlID, o.Result.Verdict, want[i])
				}
			}
		}
	case readView:
		err = sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
			if got := len(g.Nodes(provenance.NodeFilter{AppID: app})); !c.countOK(got, c.img.nodes[app]) {
				c.bad("%s: graph has %d nodes, image had %d", app, got, c.img.nodes[app])
			}
			return nil
		})
	case readRows:
		if got := len(sys.Store.RowsForApp(app)); !c.countOK(got, c.img.rows[app]) {
			c.bad("%s: %d rows, image had %d", app, got, c.img.rows[app])
		}
	case readQuery:
		// Queries run over the hot tier only: a sealed trace's
		// requisition is not there to be found.
		q := query.Query{Type: "jobRequisition", AppID: app}
		if n%2 == 0 {
			q = query.Query{Type: "jobRequisition", Preds: []query.Pred{{
				Field: "reqID", Op: query.Eq, Value: provenance.String("REQ-" + app)}}}
		}
		pl, perr := sys.Query.Plan(q)
		if perr != nil {
			return perr
		}
		res, qerr := pl.Run()
		err = qerr
		want := 0
		if hot {
			want = 1
		}
		if qerr == nil && !c.mutable && len(res) != want {
			c.bad("%s: query found %d requisitions, expected %d", app, len(res), want)
		}
		c.mu.Lock()
		c.queries++
		if pl.Indexed() {
			c.indexed++
		}
		c.mu.Unlock()
	case readAsOf:
		g, _, aerr := sys.Store.TraceAsOf(app, math.MaxUint64)
		err = aerr
		if aerr == nil {
			if got := len(g.Nodes(provenance.NodeFilter{AppID: app})); !c.countOK(got, c.img.nodes[app]) {
				c.bad("%s: as-of graph has %d nodes, image had %d", app, got, c.img.nodes[app])
			}
		}
	}
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("read %s of %s: %w", names[kind], app, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.all.Add(d)
	switch kind {
	case readCheck:
		c.check.Add(d)
		if !hot {
			c.coldCheck.Add(d)
		}
		for _, l := range lines {
			c.lines[l] = true
		}
	case readView:
		if hot {
			c.viewHot.Add(d)
		} else {
			c.viewCold.Add(d)
		}
	case readQuery:
		c.query.Add(d)
	case readAsOf:
		c.asOf.Add(d)
	}
	return nil
}

// merge folds another reader's measurements (one round's) into c.
func (c *coldReader) merge(o *coldReader) {
	for _, d := range []struct{ dst, src *latency.Digest }{
		{&c.all, &o.all}, {&c.check, &o.check}, {&c.coldCheck, &o.coldCheck},
		{&c.viewHot, &o.viewHot}, {&c.viewCold, &o.viewCold}, {&c.asOf, &o.asOf}, {&c.query, &o.query},
	} {
		d.dst.Merge(d.src)
	}
	c.queries += o.queries
	c.indexed += o.indexed
	c.wrong += o.wrong
	if c.firstWrong == "" {
		c.firstWrong = o.firstWrong
	}
	for l := range o.lines {
		c.lines[l] = true
	}
}

// report folds the reader's measurements into the pass.
func (c *coldReader) report(p *pass) {
	p.read.Merge(&c.all)
	p.reads += c.all.Count()
	p.addWrong(c.wrong, c.firstWrong)
	p.latencyLayer("read", &c.all)
	p.layer["controls.cold_check_us"] = p50us(&c.coldCheck)
	p.layer["store.view_trace_hot_us"] = p50us(&c.viewHot)
	p.layer["store.view_trace_cold_us"] = p50us(&c.viewCold)
	p.layer["store.trace_asof_us"] = p50us(&c.asOf)
	p.layer["query.run_us"] = p50us(&c.query)
	p.layer["query.indexed_share"] = ratio(float64(c.indexed), float64(c.queries))
	p.info["cold_check_n"], p.info["view_hot_n"], p.info["view_cold_n"] = c.coldCheck.Count(), c.viewHot.Count(), c.viewCold.Count()
}

// tierCounters sums the tiered store's counters over reopen rounds.
type tierCounters struct {
	lookups, probes, bloomSkips uint64
	hits, misses, evictions     uint64
	demoted, promoted           uint64
	reclaimed                   uint64
	resident                    int
	sealedBytes                 int64
	ixHits, ixAll               uint64
}

func (t *tierCounters) add(sys *core.System) {
	st := sys.Store.Stats()
	ti := st.Tiering
	t.lookups += ti.ColdLookups
	t.probes += ti.SegmentProbes
	t.bloomSkips += ti.BloomSkips
	t.hits += ti.Cache.Hits
	t.misses += ti.Cache.Misses
	t.evictions += ti.Cache.Evictions
	t.demoted += ti.DemotedTraces
	t.promoted += ti.PromotedTraces
	t.reclaimed += ti.SegmentsReclaimed
	t.resident = ti.ResidentTraces
	t.sealedBytes = ti.SealedBytes
	ix := st.RuleIndexes
	t.ixHits += ix.NodeHits + ix.EdgeHits
	t.ixAll += ix.NodeHits + ix.EdgeHits + ix.NodeScans + ix.EdgeScans
}

func (t *tierCounters) report(p *pass) {
	p.layer["store.probes_per_cold_read"] = ratio(float64(t.probes), float64(t.lookups))
	p.layer["store.bloom_skips"] = float64(t.bloomSkips)
	p.layer["store.block_cache_hit_ratio"] = ratio(float64(t.hits), float64(t.hits+t.misses))
	p.layer["store.block_cache_evictions"] = float64(t.evictions)
	p.layer["store.demoted_traces"] = float64(t.demoted)
	p.layer["store.promoted_traces"] = float64(t.promoted)
	p.layer["store.segments_reclaimed"] = float64(t.reclaimed)
	p.layer["store.resident_traces"] = float64(t.resident)
	p.layer["store.sealed_bytes"] = float64(t.sealedBytes)
	p.layer["rules.index_hit_ratio"] = ratio(float64(t.ixHits), float64(t.ixAll))
}

// reportDevice turns the counting filesystem's totals into metrics.
func reportDevice(p *pass, c *countFS, events int, payloadBytes int64) {
	if c == nil {
		return
	}
	d := c.stats()
	p.layer["store.device_writes"] = float64(d.Writes)
	p.layer["store.device_write_bytes"] = float64(d.WriteBytes)
	p.layer["store.device_syncs"] = float64(d.Syncs)
	p.layer["store.device_reads"] = float64(d.Reads)
	p.layer["store.device_read_bytes"] = float64(d.ReadBytes)
	p.layer["store.device_busy_us"] = us(d.Busy)
	p.layer["store.events_per_sync"] = ratio(float64(events), float64(d.Syncs))
	p.layer["store.write_amp"] = ratio(float64(d.WriteBytes), float64(payloadBytes))
	p.layer["store.compact_bytes_rewritten"] = float64(d.CompactBytes)
}

// runColdRead reads a sealed image in rounds. Each round reopens the
// image (timed: the restart a reader waits out), then closed-loop
// clients issue a fixed number of uniformly random reads. A reopened
// store starts with empty block and verdict caches and a round is short
// enough that most verdict reads are the first to touch their trace, so
// the cold path — bloom probe, block read, row decode, graph
// materialisation, evaluation — is what the medians show, however long
// the run is.
func runColdRead(cfg runCfg, tr *Tracer) (*pass, error) {
	p := newPass()
	size := imageSize(cfg.seconds)
	img, secs, err := timedSetups(cfg.setupReps,
		func() (*image, error) { return buildImage(cfg.tmp, cfg.seed, size, 0) },
		func(img *image) { removeAll(img.dir) })
	if err != nil {
		return nil, err
	}
	defer removeAll(img.dir)
	p.setupS = secs
	p.wrong, p.firstWrong = img.buildWrong, img.firstWrong

	rounds := scaled(coldRoundsPerSec, cfg.seconds, 1)
	perRound := coldReadsPerRound * size / coldTraces
	if perRound < 30 {
		perRound = 30
	}
	fsys, cfs := coldFS(tr)
	rd := newColdReader(img, tr, false)
	rng := rand.New(rand.NewSource(cfg.seed))
	var reopen latency.Digest
	var reopenTotal time.Duration
	var tiers tierCounters
	replayedRows := 0
	for r := 0; r < rounds; r++ {
		kinds := make([]readKind, perRound)
		apps := make([]string, perRound)
		for i := range kinds {
			kinds[i], apps[i] = pickRead(rng), img.apps[rng.Intn(len(img.apps))]
		}
		var sys *core.System
		round := newColdReader(img, tr, false)
		w0, c0 := p.window, p.cpu
		err := measure(p, tr, func() error {
			sp := tr.begin("store.reopen", fmt.Sprintf("o%d", r), "")
			t0 := time.Now()
			var oerr error
			sys, oerr = core.New(img.dom, core.Config{
				Dir: img.dir, Sync: true, FS: fsys, SegmentCacheMB: coldCacheMB,
			})
			d := time.Since(t0)
			reopen.Add(d)
			reopenTotal += d
			sp.end()
			if oerr != nil {
				return oerr
			}
			return closedLoop(perRound, func(i int) error {
				return round.do(sys, kinds[i], apps[i], r*perRound+i)
			})
		})
		p.addRound(perRound, p.window-w0, p.cpu-c0, &round.check, &round.all)
		rd.merge(round)
		if err != nil {
			if sys != nil {
				_ = sys.Close() // the read error is what gets reported
			}
			return nil, err
		}
		if r == 0 {
			if got := sys.Store.AppIDs(); !slices.Equal(got, img.apps) {
				p.fail("reopened store lists %d traces, image was built with %d", len(got), len(img.apps))
			}
		}
		if r == rounds-1 {
			p.heapMiB = liveHeapMiB()
		}
		tiers.add(sys)
		replayedRows += sys.Store.Stats().Rows
		if err := sys.Close(); err != nil {
			return nil, err
		}
	}
	p.attempted = rounds * perRound
	rd.report(p)
	p.verdict.Merge(&rd.check)
	p.ops = p.reads
	lines := make([]verdictLine, 0, len(rd.lines))
	for l := range rd.lines {
		lines = append(lines, l)
	}
	p.digest = digestLines(lines)
	p.info["rounds"], p.info["reads_per_round"], p.info["image_traces"] = rounds, perRound, size
	p.info["reopen_n"] = reopen.Count()

	tiers.report(p)
	p.layer["store.reopen_ms"] = ms(reopen.P50())
	p.layer["store.reopen_rows_per_s"] = ratio(float64(replayedRows), reopenTotal.Seconds())
	p.layer["store.disk_bytes_per_event"] = ratio(float64(storeBytes(img.dir)), float64(img.events))
	reportDevice(p, cfs, 0, 0)
	return p, nil
}

// closedLoop runs fn(0..n-1) from clients() goroutines, each taking the
// next index when its previous call returns; the first error stops it.
func closedLoop(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
