package controls

import (
	"unsafe"

	"repro/internal/store"
)

// The result cache remembers, per trace, the outcomes of its last
// evaluation, so a Check of an unchanged trace under an unchanged control
// set costs a version probe. What it keeps follows what the store holds:
//
//   - An entry of a trace resident in the hot tier stays until the trace
//     changes, leaves (Forget) or is demoted; the hot tier bounds them.
//   - An entry of a sealed trace (demoted by compaction, or only ever read
//     cold) stays in the same map but joins a byte-bounded LRU. Its budget
//     is the store's segment cache capacity, the bound the store already
//     puts on what it keeps of sealed traces, and each entry is charged an
//     estimate of what it keeps alive (entryCost). Evicting an entry costs
//     the next Check a re-evaluation, which returns the same outcomes:
//     they are a function of the trace version and the control set.
//
// An entry moves into the LRU when it is written for a trace the store
// does not hold in its hot tier, and when the store's demotion count has
// moved since the cache last looked (sweep); a promoted trace's entry
// leaves it at its next evaluation, as the write changed its version.

// cacheEntry is one cached per-trace result: the outcomes of evaluating
// every deployed control at one (trace version, registry generation).
type cacheEntry struct {
	version  uint64 // store trace version at evaluation time
	gen      uint64 // registry generation at evaluation time
	outcomes []*Outcome

	// Set while the entry is in the sealed LRU (prev != nil): the trace ID
	// it is filed under, the bytes it is charged, and its neighbours.
	app        string
	cost       int64
	prev, next *cacheEntry
}

// sealed reports whether the entry is in the sealed LRU.
func (e *cacheEntry) sealed() bool { return e.prev != nil }

// resultCache is the registry's result cache. Registry.cacheMu guards it.
type resultCache struct {
	entries map[string]*cacheEntry // appID -> last evaluation

	// lru is the sentinel of the sealed entries' ring: lru.next is the
	// most recently used one, lru.prev the next to go.
	lru           cacheEntry
	sealedEntries int
	sealedBytes   int64
	capBytes      int64
	// demotions is the store's demotion count at the last sweep.
	demotions uint64

	hits, misses, evictions uint64
}

func newResultCache(capBytes int64) *resultCache {
	c := &resultCache{entries: make(map[string]*cacheEntry), capBytes: capBytes}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// get returns the entry of app, nil if none, and marks a sealed one as
// just used.
func (c *resultCache) get(app string) *cacheEntry {
	e := c.entries[app]
	if e != nil && e.sealed() {
		c.unlink(e)
		c.pushFront(e)
	}
	return e
}

// put files e under app, replacing any entry there, in the sealed LRU
// unless the trace is resident.
func (c *resultCache) put(app string, e *cacheEntry, resident bool) {
	if old := c.entries[app]; old != nil {
		c.drop(old)
	}
	c.entries[app] = e
	if !resident {
		c.seal(app, e)
		c.evict()
	}
}

// remove forgets app's entry, from either part.
func (c *resultCache) remove(app string) {
	if e := c.entries[app]; e != nil {
		c.drop(e)
		delete(c.entries, app)
	}
}

// sweep moves the entries of traces that left the hot tier into the
// sealed LRU.
func (c *resultCache) sweep(res store.Residency) {
	c.demotions = res.Demotions
	for app, e := range c.entries {
		if !e.sealed() && !res.Resident(app) {
			c.seal(app, e)
		}
	}
	c.evict()
}

// seal charges e and puts it at the front of the LRU.
func (c *resultCache) seal(app string, e *cacheEntry) {
	e.app, e.cost = app, entryCost(app, e.outcomes)
	c.pushFront(e)
	c.sealedEntries++
	c.sealedBytes += e.cost
}

// drop takes e out of the LRU if it is there, refunding its charge.
func (c *resultCache) drop(e *cacheEntry) {
	if !e.sealed() {
		return
	}
	c.unlink(e)
	c.sealedEntries--
	c.sealedBytes -= e.cost
}

// evict forgets the least recently used sealed entries until the charge
// fits the budget. An entry larger than the whole budget is not kept.
func (c *resultCache) evict() {
	for c.sealedBytes > c.capBytes && c.sealedEntries > 0 {
		e := c.lru.prev
		c.drop(e)
		delete(c.entries, e.app)
		c.evictions++
	}
}

func (c *resultCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev = e
	c.lru.next = e
}

func (c *resultCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// entryCost estimates what a cached entry keeps alive: itself, its map
// slot and trace ID, the outcome slice, and each outcome's box with what
// its Result holds (rules.Result.RetainedBytes). Outcomes a partial
// re-evaluation shares with an older entry are charged to each.
func entryCost(app string, outcomes []*Outcome) int64 {
	const slot = int64(unsafe.Sizeof("")) + int64(unsafe.Sizeof((*cacheEntry)(nil)))
	n := int64(unsafe.Sizeof(cacheEntry{})) + slot + int64(len(app)) +
		int64(cap(outcomes))*int64(unsafe.Sizeof((*Outcome)(nil)))
	for _, o := range outcomes {
		n += int64(unsafe.Sizeof(outcomeBox{})) + o.Result.RetainedBytes()
	}
	return n
}

// lockCache takes cacheMu, first sweeping the cache when the store has
// demoted traces since it last looked: one atomic load otherwise.
func (r *Registry) lockCache() {
	if r.st.Demotions() == r.cacheDemotions.Load() {
		r.cacheMu.Lock()
		return
	}
	res := r.st.Residency()
	r.cacheMu.Lock()
	r.sweepLocked(res)
}

// sweepLocked runs resultCache.sweep once per move of the store's
// demotion count, publishing the count for lockCache's unlocked test. A
// view no newer than the last sweep's is skipped: an entry it would have
// misfiled is filed by the next sweep. Caller holds cacheMu.
func (r *Registry) sweepLocked(res store.Residency) {
	if res.Demotions > r.cache.demotions {
		r.cache.sweep(res)
		r.cacheDemotions.Store(res.Demotions)
	}
}

// cached returns the memoized outcomes for a trace when they are still
// current: same registry generation and same store trace version.
func (r *Registry) cached(appID string, gen uint64) ([]*Outcome, bool) {
	ver := r.st.TraceVersion(appID)
	r.lockCache()
	defer r.cacheMu.Unlock()
	e := r.cache.get(appID)
	if e == nil || e.gen != gen || e.version != ver {
		r.cache.misses++
		return nil, false
	}
	r.cache.hits++
	// Copy the slice header so callers appending to the result do not
	// alias the cache.
	return append([]*Outcome(nil), e.outcomes...), true
}

// remember stores a trace's outcomes, never replacing a newer entry with
// an older one (two concurrent checks may finish out of order).
func (r *Registry) remember(appID string, gen, version uint64, outcomes []*Outcome) {
	if version == 0 { // no tier holds the trace: made-up IDs must not grow the cache
		return
	}
	res := r.st.Residency()
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.sweepLocked(res)
	if e := r.cache.entries[appID]; e != nil && e.gen == gen && e.version > version {
		return
	}
	r.cache.put(appID, &cacheEntry{version: version, gen: gen, outcomes: outcomes}, res.Resident(appID))
}

// Forget drops the result-cache entries of traces the store dropped, so a
// trace that comes back (a handoff returning it to this node) is checked
// afresh rather than matched against verdicts from before it left.
func (r *Registry) Forget(apps ...string) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	for _, app := range apps {
		r.cache.remove(app)
	}
}

// CacheStats summarizes the incremental result cache.
type CacheStats struct {
	// Hits counts Check calls answered from cache without re-evaluation.
	Hits uint64
	// Misses counts Check calls that had to re-evaluate the trace.
	Misses uint64
	// Entries is the number of traces with a cached result.
	Entries int
	// SealedEntries is the part of Entries kept for traces the store does
	// not hold in its hot tier, and SealedBytes what they are charged.
	SealedEntries int
	SealedBytes   int64
	// CapBytes is the sealed entries' budget: the store's segment cache
	// capacity (zero for an in-memory store, which seals nothing).
	CapBytes int64
	// Evictions counts sealed entries dropped to keep SealedBytes within
	// CapBytes.
	Evictions uint64
}

// CacheStats returns a snapshot of the incremental result cache counters.
func (r *Registry) CacheStats() CacheStats {
	r.lockCache()
	defer r.cacheMu.Unlock()
	c := r.cache
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.entries),
		SealedEntries: c.sealedEntries, SealedBytes: c.sealedBytes,
		CapBytes: c.capBytes, Evictions: c.evictions,
	}
}
