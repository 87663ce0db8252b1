package controls

import (
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/tenant"
)

// Checker runs continuous compliance checking (the paper's future-work
// item, experiment E6): it subscribes to the store's change feed and
// re-evaluates the registered controls for every trace a new record
// touches.
//
// The engine is sharded: a dispatcher goroutine routes each change-feed
// event to one of CheckerOptions.Workers workers by hashing the trace ID,
// so checks of the same trace always run on the same worker in order
// (per-trace ordering preserved) while different traces check in parallel.
// Each worker keeps a dirty set — a burst of N events on one trace
// collapses into a single re-check of the final state instead of N — and
// the registry's result cache skips traces whose version has not moved.
// Its own materialized control nodes and checks edges are filtered out of
// the feed to avoid feedback.
//
// A trace the store drops (shard handoff) is forgotten in feed order, on
// its worker: after the checks queued before the drop, before the writes
// after it, so a late verdict never outlives the drop.
type Checker struct {
	reg     *Registry
	obs     Observer
	opts    CheckerOptions
	windows *windowTracker

	mu      sync.Mutex
	cond    *sync.Cond // broadcast whenever pending/lastSeq move
	running bool
	sub     *store.Subscription
	done    chan struct{} // closed when the dispatcher exits
	workers []*ckWorker
	wg      *sync.WaitGroup
	latest  []*Outcome
	pending int    // dirty traces queued or being checked
	lastSeq uint64 // highest feed sequence the dispatcher has routed
	startAt time.Time
	busy    time.Duration // accumulated worker check time since Start

	tickerStop chan struct{} // non-nil while a ticker driver runs
	tickerDone chan struct{}

	stats         CheckerStats
	traceErrs     map[string]string
	tenantChecks  map[string]uint64
	tenantPending map[string]int
}

// CheckerOptions tunes the continuous engine.
type CheckerOptions struct {
	// Workers is the number of shard workers. Traces hash onto workers,
	// so this bounds cross-trace parallelism; per-trace order is always
	// serial. Zero or negative means GOMAXPROCS.
	Workers int
	// TenantWeight returns a tenant's fair-share weight; nil (or values
	// < 1) means weight 1. Each worker keeps one queue per tenant (the
	// trace ID's namespace, tenant.Owner) and serves them by stride
	// scheduling weighted with it.
	TenantWeight func(tenantID string) int
}

// CheckerStats is a snapshot of the engine's counters. All counters are
// cumulative across Start/Stop cycles.
type CheckerStats struct {
	// Workers is the configured shard count (resolved, never zero).
	Workers int
	// EventsSeen counts change-feed events the dispatcher consumed,
	// including filtered self-writes.
	EventsSeen uint64
	// ChecksRun counts trace re-checks executed by the workers.
	ChecksRun uint64
	// Coalesced counts events that were absorbed into an already-pending
	// re-check of the same trace instead of scheduling another one.
	Coalesced uint64
	// Errors counts failed re-checks (reg.Check returned an error).
	// The registry's result-cache, delta and binding counters are not
	// repeated here: Registry.CacheStats, DeltaStats and BindingStats
	// serve them ("cache", "delta" and "bindings" in /stats).
	Errors uint64
	// WindowsOpen / WindowsExpired / WindowsResolved summarize sliding-
	// window state across traces (see WindowStats).
	WindowsOpen     int
	WindowsExpired  int
	WindowsResolved int
	// TickerTicks counts wall-clock ticks delivered by the background
	// ticker driver (StartTicker), and TickerExpired the traces those
	// ticks re-marked for a re-check because a window deadline passed.
	TickerTicks   uint64
	TickerExpired uint64
	// QueueDepth is the number of dirty traces awaiting or undergoing a
	// re-check right now.
	QueueDepth int
	// TenantChecks counts re-checks per tenant, and TenantPending the
	// dirty traces queued or in flight per tenant right now — the
	// fair-share visibility surface (and what the cluster router's
	// scatter merge folds per tenant).
	TenantChecks  map[string]uint64
	TenantPending map[string]int
	// LastSeq is the highest change-feed sequence the dispatcher has
	// routed — compared against the store's commit sequence it tells an
	// observer (the /stats endpoint, the provbench harness) how far
	// continuous checking lags ingestion.
	LastSeq uint64
	// FeedDepth is the change-feed backlog behind the dispatcher, and
	// FeedMaxDepth its high-water mark — the backpressure signals.
	FeedDepth    int
	FeedMaxDepth int
	// Utilization is the fraction of worker capacity spent checking since
	// Start (1.0 = all workers busy the whole time). Zero when stopped.
	Utilization float64
	// LastError is the most recent re-check error, empty when none.
	LastError string
	// TraceErrors maps trace ID to its most recent re-check error; a
	// subsequent successful re-check clears the trace's entry.
	TraceErrors map[string]string
}

// Observer receives what the engine learns, on worker goroutines, one
// trace at a time per worker: Record the outcomes of every re-check that
// produced new ones, Forget the traces the store dropped, after the
// outcomes of their earlier checks. *dashboard.Board is one.
type Observer interface {
	Record(outcomes []*Outcome)
	Forget(apps ...string)
}

// ckWorker is one shard: per-tenant FIFOs of dirty traces, each trace
// carrying the write set accumulated while it waited. A nil write set
// means "anything may have changed" (a manual MarkDirty kick) and forces
// a full re-check. A queued trace in dropped is forgotten before any
// write set it holds is checked.
//
// The worker serves its tenant queues by stride scheduling: each tenant
// holds a pass value, the non-empty queue with the lowest pass is served
// next, and serving advances the pass by 1/weight. A tenant with a 10,000-trace backlog and a tenant with one
// dirty trace therefore alternate (weighted) instead of the single
// trace waiting behind the backlog — per-tenant detection latency stays
// bounded by the tenant's own load. Per-trace order is untouched: a
// trace still lives in exactly one queue of exactly one worker. A
// deployment with one tenant has one queue per worker: a plain FIFO.
type ckWorker struct {
	weightOf func(tenantID string) int

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]string
	pass    map[string]float64
	dirty   map[string]*store.WriteSet
	dropped map[string]bool
	closed  bool
}

// ckJob is one claimed trace: forget it first when a drop reached the
// feed, then check ws when a write (or kick) is pending.
type ckJob struct {
	app    string
	forget bool
	check  bool
	ws     *store.WriteSet
}

func newCkWorker(weightOf func(string) int) *ckWorker {
	w := &ckWorker{
		weightOf: weightOf,
		queues:   make(map[string][]string),
		pass:     make(map[string]float64),
		dirty:    make(map[string]*store.WriteSet),
		dropped:  make(map[string]bool),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// mark flags a trace dirty, taking ownership of ws (nil = full). It
// reports whether the trace was newly dirty; when it was already
// pending, the write sets merge losslessly under the worker lock — the
// coalesced re-check covers the union of both deltas (or degrades to
// full across a version gap, never silently narrower).
func (w *ckWorker) mark(app string, ws *store.WriteSet) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	if pending, ok := w.dirty[app]; ok {
		if pending != nil {
			if ws == nil {
				w.dirty[app] = nil
			} else {
				pending.Merge(ws)
			}
		}
		return false
	}
	w.dirty[app] = ws
	if w.dropped[app] {
		return false // queued behind its forget
	}
	w.enqueueLocked(app)
	return true
}

// drop queues a forget of the trace, discarding the write set queued
// before the drop. It reports whether the trace was newly queued.
func (w *ckWorker) drop(app string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	_, queued := w.dirty[app]
	queued = queued || w.dropped[app]
	delete(w.dirty, app)
	w.dropped[app] = true
	if !queued {
		w.enqueueLocked(app)
	}
	return !queued
}

// enqueueLocked appends a newly dirty trace to its tenant's queue.
func (w *ckWorker) enqueueLocked(app string) {
	tn := tenant.Owner(app)
	if len(w.queues[tn]) == 0 {
		// Reactivation forfeits idle credit: a tenant quiet for an hour
		// must not bank an hour of scheduling priority and then starve
		// everyone else — it rejoins at the head of the current round.
		if min, ok := w.minActivePassLocked(); ok && w.pass[tn] < min {
			w.pass[tn] = min
		}
	}
	w.queues[tn] = append(w.queues[tn], app)
	w.cond.Signal()
}

// minActivePassLocked returns the lowest pass among tenants with queued
// work (false when every queue is empty).
func (w *ckWorker) minActivePassLocked() (float64, bool) {
	min, found := 0.0, false
	for tn, q := range w.queues {
		if len(q) == 0 {
			continue
		}
		if p := w.pass[tn]; !found || p < min {
			min, found = p, true
		}
	}
	return min, found
}

// next blocks until a dirty trace is available and claims it, returning
// the trace's job. The last result is false once the worker is closed
// and drained. Claiming removes the trace from the dirty set, so events
// arriving during the re-check re-mark it with a fresh delta — the final
// state of a trace is never lost to coalescing.
func (w *ckWorker) next() (ckJob, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed {
		if tn, ok := w.pickLocked(); ok {
			return w.popLocked(tn)
		}
		w.cond.Wait()
	}
	if tn, ok := w.pickLocked(); ok {
		return w.popLocked(tn)
	}
	return ckJob{}, false
}

// pickLocked chooses the next tenant queue to serve: lowest pass wins,
// ties break by tenant ID for determinism.
func (w *ckWorker) pickLocked() (string, bool) {
	best, found := "", false
	for tn, q := range w.queues {
		if len(q) == 0 {
			continue
		}
		if !found || w.pass[tn] < w.pass[best] ||
			(w.pass[tn] == w.pass[best] && tn < best) {
			best, found = tn, true
		}
	}
	return best, found
}

func (w *ckWorker) popLocked(tn string) (ckJob, bool) {
	q := w.queues[tn]
	app := q[0]
	q = q[1:]
	if len(q) == 0 {
		delete(w.queues, tn) // let idle tenants vacate the scan
	} else {
		w.queues[tn] = q
	}
	weight := 1
	if w.weightOf != nil {
		if v := w.weightOf(tn); v > 0 {
			weight = v
		}
	}
	w.pass[tn] += 1.0 / float64(weight)
	j := ckJob{app: app, forget: w.dropped[app]}
	j.ws, j.check = w.dirty[app]
	delete(w.dirty, app)
	delete(w.dropped, app)
	return j, true
}

// close stops the worker after it drains its queues.
func (w *ckWorker) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// NewCheckerOpts builds a continuous checker over a registry. obs, when
// non-nil, observes its results (the dashboard hook).
func NewCheckerOpts(reg *Registry, obs Observer, opts CheckerOptions) *Checker {
	c := &Checker{
		reg: reg, obs: obs, opts: opts,
		traceErrs:     make(map[string]string),
		tenantChecks:  make(map[string]uint64),
		tenantPending: make(map[string]int),
	}
	c.windows = newWindowTracker(reg)
	c.cond = sync.NewCond(&c.mu)
	return c
}

// addTenantPendingLocked moves a tenant's pending count by d. A worker
// can finish a re-check before the dispatcher that marked the trace has
// counted it, so the count may pass through -1; like the plain pending
// int it must keep that value until the late increment lands, so an
// entry is dropped only at exactly zero. Caller holds c.mu.
func (c *Checker) addTenantPendingLocked(tenantID string, d int) {
	if c.tenantPending[tenantID] += d; c.tenantPending[tenantID] == 0 {
		delete(c.tenantPending, tenantID)
	}
}

// Start begins consuming the change feed. It is idempotent while running,
// safe to call concurrently, and safe to call again after Stop — the
// engine restarts cleanly on a fresh subscription.
func (c *Checker) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return
	}
	n := c.opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c.running = true
	c.stats.Workers = n
	c.sub = c.reg.st.Subscribe()
	// Events committed before this subscription are invisible, so the
	// quiescence watermark starts at the store's current sequence.
	c.lastSeq = c.reg.st.Stats().Seq
	c.startAt = time.Now()
	c.busy = 0
	c.done = make(chan struct{})
	c.workers = make([]*ckWorker, n)
	c.wg = &sync.WaitGroup{}
	for i := range c.workers {
		c.workers[i] = newCkWorker(c.opts.TenantWeight)
		c.wg.Add(1)
		go c.runWorker(c.workers[i])
	}
	go c.dispatch(c.sub, c.workers, c.done)
}

// dispatch routes feed events to shard workers until the feed closes,
// then closes the workers so they drain and exit.
func (c *Checker) dispatch(sub *store.Subscription, workers []*ckWorker, done chan struct{}) {
	defer close(done)
	for ev := range sub.C() {
		routed := false
		fresh := false
		app := ev.AppID()
		if ev.Kind == store.EventTraceDrop {
			// Window state moves here, in feed order; the rest of the
			// trace's state moves on its worker.
			c.windows.forget(app)
			routed = true
			fresh = workers[traceShard(app, len(workers))].drop(app)
		} else if app != "" && !c.isOwnWrite(ev) {
			c.windows.observe(ev)
			routed = true
			ws := store.NewWriteSet()
			ws.AddEvent(ev)
			fresh = workers[traceShard(app, len(workers))].mark(app, ws)
		}
		c.mu.Lock()
		c.stats.EventsSeen++
		if routed {
			if fresh {
				c.pending++
				c.addTenantPendingLocked(tenant.Owner(app), 1)
			} else {
				c.stats.Coalesced++
			}
		}
		if ev.Seq > c.lastSeq {
			c.lastSeq = ev.Seq
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	for _, w := range workers {
		w.close()
	}
}

// runWorker runs claimed jobs until the worker is closed and drained: a
// dropped trace's forget first, then its check.
func (c *Checker) runWorker(w *ckWorker) {
	defer c.wg.Done()
	for {
		j, ok := w.next()
		if !ok {
			return
		}
		if j.forget {
			c.reg.Forget(j.app)
			c.mu.Lock()
			delete(c.traceErrs, j.app)
			c.mu.Unlock()
			if c.obs != nil {
				c.obs.Forget(j.app)
			}
		}
		if j.check {
			c.check(j.app, j.ws)
		}
		c.mu.Lock()
		c.pending--
		c.addTenantPendingLocked(tenant.Owner(j.app), -1)
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// check re-checks one trace and delivers its outcomes.
func (c *Checker) check(app string, ws *store.WriteSet) {
	start := time.Now()
	outcomes, skipped, err := c.reg.CheckDelta(app, ws)
	elapsed := time.Since(start)

	c.mu.Lock()
	c.stats.ChecksRun++
	c.tenantChecks[tenant.Owner(app)]++
	c.busy += elapsed
	if err != nil {
		c.stats.Errors++
		c.stats.LastError = err.Error()
		c.traceErrs[app] = err.Error()
	} else {
		delete(c.traceErrs, app)
		if !skipped {
			c.latest = outcomes
		}
	}
	c.mu.Unlock()

	// A skipped check proved nothing changed: observers already hold
	// the exact outcomes, so there is nothing to deliver.
	if err == nil && !skipped && c.obs != nil {
		c.obs.Record(outcomes)
	}
}

// traceShard hashes a trace ID onto a worker index.
func traceShard(appID string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(appID))
	return int(h.Sum32() % uint32(n))
}

// isOwnWrite filters materialization records out of the feed.
func (c *Checker) isOwnWrite(ev store.Event) bool {
	if ev.Node != nil && ev.Node.Type == ControlTypeName {
		return true
	}
	if ev.Edge != nil && ev.Edge.Type == ChecksRelation {
		return true
	}
	return false
}

// Stop ends continuous checking and drains the dispatcher and every
// worker. Idempotent; Start may be called again afterwards.
func (c *Checker) Stop() {
	c.mu.Lock()
	if !c.running || c.sub == nil {
		c.mu.Unlock()
		return
	}
	sub, done, wg := c.sub, c.done, c.wg
	c.sub = nil // claimed: a concurrent Stop returns above
	c.mu.Unlock()

	sub.Cancel() // feed closes after delivering queued events
	<-done       // dispatcher exited and closed the workers
	wg.Wait()    // workers drained their queues

	c.mu.Lock()
	c.running = false
	c.done = nil
	c.workers = nil
	c.wg = nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

// MarkDirty schedules a full re-check of one trace exactly as if a
// change-feed event had touched it, without requiring a store write: the
// manual kick for out-of-band changes (vocabulary edits, evaluator
// hot-swaps) and the hook benchmarks use to drive the engine with a
// synthetic event stream. No-op while the engine is stopped.
func (c *Checker) MarkDirty(appID string) {
	c.markDirty(appID, nil)
}

// MarkDirtyDelta schedules a delta-driven re-check of one trace carrying
// an explicit write set; the checker takes ownership of ws (it may merge
// later deltas into it while the trace waits). A nil ws is equivalent to
// MarkDirty. No-op while the engine is stopped.
func (c *Checker) MarkDirtyDelta(appID string, ws *store.WriteSet) {
	c.markDirty(appID, ws)
}

func (c *Checker) markDirty(appID string, ws *store.WriteSet) {
	c.mu.Lock()
	if !c.running || len(c.workers) == 0 {
		c.mu.Unlock()
		return
	}
	workers := c.workers
	c.mu.Unlock()
	fresh := workers[traceShard(appID, len(workers))].mark(appID, ws)
	c.mu.Lock()
	c.stats.EventsSeen++
	if fresh {
		c.pending++
		c.addTenantPendingLocked(tenant.Owner(appID), 1)
	} else {
		c.stats.Coalesced++
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Tick advances wall-clock window tracking: traces holding a window
// whose deadline newly passed without its target event are re-marked for
// a re-check, so their outcomes re-surface to observers. Returns how
// many traces expired. Callers (the daemon, tests) own the cadence; the
// engine never consults the clock on its own, keeping verdicts
// reproducible.
func (c *Checker) Tick(now time.Time) int {
	expired := c.windows.expire(now)
	for _, app := range expired {
		c.MarkDirty(app)
	}
	return len(expired)
}

// StartTicker starts a background driver that calls Tick with the wall
// clock every interval — the daemon's cadence for surfacing expired
// windows without a triggering store write. Idempotent while a driver
// runs; a non-positive interval is a no-op. The driver is independent of
// Start/Stop (Tick on a stopped engine finds no workers and marks
// nothing), so the two lifecycles may be managed separately.
func (c *Checker) StartTicker(interval time.Duration) {
	if interval <= 0 {
		return
	}
	tk := time.NewTicker(interval)
	if !c.runTicker(tk.C, tk.Stop) {
		tk.Stop()
	}
}

// runTicker installs an arbitrary tick source — StartTicker hands it a
// time.Ticker, tests inject a channel they feed from a fake clock — and
// reports whether it was installed (false: a driver is already running).
// cleanup, when non-nil, runs as the driver goroutine exits.
func (c *Checker) runTicker(ticks <-chan time.Time, cleanup func()) bool {
	c.mu.Lock()
	if c.tickerStop != nil {
		c.mu.Unlock()
		return false
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.tickerStop, c.tickerDone = stop, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		if cleanup != nil {
			defer cleanup()
		}
		for {
			select {
			case now := <-ticks:
				n := c.Tick(now)
				c.mu.Lock()
				c.stats.TickerTicks++
				c.stats.TickerExpired += uint64(n)
				c.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
	return true
}

// StopTicker stops the ticker driver and waits for it to exit.
// Idempotent; a no-op when no driver is running.
func (c *Checker) StopTicker() {
	c.mu.Lock()
	stop, done := c.tickerStop, c.tickerDone
	c.tickerStop, c.tickerDone = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// WaitFor blocks until the engine has consumed every change-feed event up
// to seq (a store sequence number, e.g. Store.Stats().Seq after a batch
// of writes) and no re-check is queued or in flight — the quiescence
// barrier tests and benchmarks use. Returns immediately when stopped.
func (c *Checker) WaitFor(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.running && (c.lastSeq < seq || c.pending > 0) {
		c.cond.Wait()
	}
}

// WaitTenant blocks until the dispatcher has routed the change feed past
// seq and the given tenant has no re-check queued or in flight — the
// per-tenant quiescence barrier provbench's tenant-scoped classes measure
// detection lag with. Unlike WaitFor it does NOT wait for other tenants' backlogs,
// which is exactly what makes fair-share isolation observable: a quiet
// tenant's barrier clears as soon as its own traces are checked, however
// deep a noisy neighbour's queue is. Returns immediately when stopped.
func (c *Checker) WaitTenant(tenantID string, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.running && (c.lastSeq < seq || c.tenantPending[tenantID] > 0) {
		c.cond.Wait()
	}
}

// Running reports whether the engine is consuming the change feed (false
// from the moment Stop begins).
func (c *Checker) Running() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.running && c.sub != nil
}

// Checked reports how many re-checks have run.
func (c *Checker) Checked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.stats.ChecksRun)
}

// Latest returns the outcomes of the most recent successful re-check.
func (c *Checker) Latest() []*Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest
}

// Stats returns a snapshot of the engine counters.
func (c *Checker) Stats() CheckerStats {
	win := c.windows.stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.WindowsOpen = win.Open
	s.WindowsExpired = win.Expired
	s.WindowsResolved = win.Resolved
	s.QueueDepth = c.pending
	s.LastSeq = c.lastSeq
	if c.running && c.sub != nil {
		s.FeedDepth = c.sub.Depth()
		s.FeedMaxDepth = c.sub.MaxDepth()
		if elapsed := time.Since(c.startAt); elapsed > 0 && s.Workers > 0 {
			s.Utilization = float64(c.busy) / (float64(elapsed) * float64(s.Workers))
		}
	}
	s.TraceErrors = make(map[string]string, len(c.traceErrs))
	for k, v := range c.traceErrs {
		s.TraceErrors[k] = v
	}
	s.TenantChecks = make(map[string]uint64, len(c.tenantChecks))
	for k, v := range c.tenantChecks {
		s.TenantChecks[k] = v
	}
	s.TenantPending = make(map[string]int, len(c.tenantPending))
	for k, v := range c.tenantPending {
		s.TenantPending[k] = v
	}
	return s
}
