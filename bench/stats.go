package main

import (
	"sync"
	"time"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/store"
)

// sysCounters sums the counters the systems keep themselves — every
// layer's Stats() — over the systems of a run (shards, domains, rounds).
// Each system is fresh when its window starts, so its totals are the
// window's deltas.
type sysCounters struct {
	delta              controls.DeltaStats
	cache              controls.CacheStats
	bindHits, bindMiss uint64
	seen, coalesced    uint64
	checkerErrors      uint64
	feedMaxDepth       int
	runs, edges        int
	ingested, rejected int
	publishes, seq     uint64
	resident           int
	ixHits, ixAll      uint64
	snapshotUS         []float64

	flushes, flushed, shed, deduped uint64
	queueMax                        int64
}

func (a *sysCounters) add(sys *core.System) {
	d := sys.Registry.DeltaStats()
	a.delta.Checks += d.Checks
	a.delta.Skips += d.Skips
	a.delta.Partials += d.Partials
	a.delta.Fallbacks += d.Fallbacks
	a.delta.ControlsEvaluated += d.ControlsEvaluated
	c := sys.Registry.CacheStats()
	a.cache.Hits += c.Hits
	a.cache.Misses += c.Misses
	b := sys.Registry.BindingStats()
	a.bindHits += b.Hits
	a.bindMiss += b.Misses
	k := sys.Checker.Stats()
	a.seen += k.EventsSeen
	a.coalesced += k.Coalesced
	a.checkerErrors += k.Errors
	if k.FeedMaxDepth > a.feedMaxDepth {
		a.feedMaxDepth = k.FeedMaxDepth
	}
	cs := sys.Correlator.Stats()
	a.runs += cs.TracesProcessed
	a.edges += cs.EdgesDerived
	ps := sys.Pipeline.Stats()
	a.ingested += ps.Ingested
	a.rejected += ps.Errors + ps.Unmatched + ps.NoTrace
	st := sys.Store.Stats()
	a.publishes += st.Snapshots.Publishes
	a.seq += st.Seq
	a.resident += st.ResidentTraces
	ix := st.RuleIndexes
	a.ixHits += ix.NodeHits + ix.EdgeHits
	a.ixAll += ix.NodeHits + ix.EdgeHits + ix.NodeScans + ix.EdgeScans
	t0 := time.Now()
	sys.Board.Snapshot()
	a.snapshotUS = append(a.snapshotUS, us(time.Since(t0)))
	if sys.Gateway != nil {
		g := sys.Gateway.Stats()
		a.flushes += g.Flushes
		a.flushed += g.FlushedEvents
		a.shed += g.RejectedBatches
		a.deduped += g.DedupedBatches
		if g.MaxQueuedEvents > a.queueMax {
			a.queueMax = g.MaxQueuedEvents
		}
	}
}

// report turns the summed counters into per-layer metrics.
func (a *sysCounters) report(p *pass) {
	checks := float64(a.delta.Checks)
	p.layer["controls.skip_ratio"] = ratio(float64(a.delta.Skips), checks)
	p.layer["controls.partial_ratio"] = ratio(float64(a.delta.Partials), checks)
	p.layer["controls.fallback_ratio"] = ratio(float64(a.delta.Fallbacks), checks)
	p.layer["controls.controls_evaluated_per_check"] = ratio(float64(a.delta.ControlsEvaluated), checks)
	p.layer["controls.cache_hit_ratio"] = ratio(float64(a.cache.Hits), float64(a.cache.Hits+a.cache.Misses))
	p.layer["controls.binding_reuse_ratio"] = ratio(float64(a.bindHits), float64(a.bindHits+a.bindMiss))
	p.layer["controls.coalesced_ratio"] = ratio(float64(a.coalesced), float64(a.seen))
	p.layer["controls.checker_errors"] = float64(a.checkerErrors)
	p.layer["store.feed_max_depth"] = float64(a.feedMaxDepth)
	p.layer["correlate.runs"] = float64(a.runs)
	p.layer["correlate.edges_per_event"] = ratio(float64(a.edges), float64(a.ingested))
	p.layer["events.rejected"] = float64(a.rejected)
	p.layer["store.snapshot_publishes_per_commit"] = ratio(float64(a.publishes), float64(a.seq))
	p.layer["store.resident_traces"] = float64(a.resident)
	p.layer["rules.index_hit_ratio"] = ratio(float64(a.ixHits), float64(a.ixAll))
	p.layer["dashboard.snapshot_us"] = median(a.snapshotUS)
	p.layer["ingest.events_per_flush"] = ratio(float64(a.flushed), float64(a.flushes))
	p.layer["ingest.queue_max_events"] = float64(a.queueMax)
	p.layer["ingest.shed_batches"] = float64(a.shed)
	p.layer["ingest.deduped_batches"] = float64(a.deduped)
}

// systemStats reports one system's counters.
func systemStats(p *pass, sys *core.System) {
	var a sysCounters
	a.add(sys)
	a.report(p)
}

// feedWatch is the benchmark's own change-feed subscription on a store:
// it notes when each commit sequence reached a subscriber, so the time
// from "the feed delivered the commit" to "the checker has a verdict" can
// be told apart from the time the commit took to become durable. A nil
// *feedWatch (untraced passes) records nothing.
type feedWatch struct {
	sub *store.Subscription

	mu   sync.Mutex
	at   map[uint64]time.Time
	last uint64
}

func watchFeed(sys *core.System, tr *Tracer) *feedWatch {
	if tr == nil {
		return nil
	}
	w := &feedWatch{sub: sys.Store.Subscribe(), at: map[uint64]time.Time{}}
	go func() {
		for ev := range w.sub.C() {
			w.mu.Lock()
			w.at[ev.Seq] = time.Now()
			w.last = ev.Seq
			w.mu.Unlock()
		}
	}()
	return w
}

// since returns how long ago the feed delivered commit seq (0 when it
// has not, or the watch is off) and forgets everything at or below it
// that is older than the newest few thousand commits.
func (w *feedWatch) since(seq uint64) time.Duration {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.at[seq]
	if len(w.at) > 8192 {
		for s := range w.at {
			if s+4096 < w.last {
				delete(w.at, s)
			}
		}
	}
	if !ok {
		return 0
	}
	return time.Since(t)
}

// stop cancels the subscription; the drain goroutine ends with it.
func (w *feedWatch) stop() {
	if w != nil {
		w.sub.Cancel()
	}
}
