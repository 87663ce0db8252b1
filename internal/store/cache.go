package store

import (
	"container/list"
	"sync"

	"repro/internal/provenance"
)

// blockCache is the byte-capped LRU fronting sealed-segment reads. It
// holds two kinds of values, distinguished by the key's app field:
//
//	app == ""  a data block's CRC-verified payload ([]byte), charged its
//	           exact length
//	app != ""  the materialized read-only graph of that trace, charged
//	           the heap its records hold (sealedTrace.heapBytes), whatever
//	           format they were decoded from
//
// Segment indexes are not here: they are pinned on the segment handles
// (segment.indexBytes), so hits and misses count data only. Capacity is
// in bytes, not entries, so one huge block cannot masquerade as one cheap
// slot. Counters feed TieringStats.
type blockCache struct {
	mu  sync.Mutex
	cap int64
	cur int64
	lru *list.List // front = most recent; values are *cacheEnt
	ent map[cacheKey]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheKey struct {
	seg uint64
	blk int
	app string // "" for the block itself
}

type cacheEnt struct {
	key  cacheKey
	val  any
	size int64
}

// defaultCacheBytes is the block cache's default capacity.
const defaultCacheBytes = 32 << 20

func newBlockCache(capBytes int64) *blockCache {
	if capBytes <= 0 {
		capBytes = defaultCacheBytes
	}
	return &blockCache{cap: capBytes, lru: list.New(), ent: make(map[cacheKey]*list.Element)}
}

// get returns the cached value for key, promoting it to most-recent.
func (c *blockCache) get(key cacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEnt).val, true
}

// put inserts (or replaces) key, evicting from the cold end until the
// byte budget holds. A value bigger than the whole cache is stored alone:
// callers get the caching they asked for and the next insert evicts it.
func (c *blockCache) put(key cacheKey, val any, size int64) {
	if size < 1 {
		size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[key]; ok {
		ce := el.Value.(*cacheEnt)
		c.cur += size - ce.size
		ce.val, ce.size = val, size
		c.lru.MoveToFront(el)
	} else {
		c.ent[key] = c.lru.PushFront(&cacheEnt{key: key, val: val, size: size})
		c.cur += size
	}
	for c.cur > c.cap && c.lru.Len() > 1 {
		back := c.lru.Back()
		ce := back.Value.(*cacheEnt)
		c.lru.Remove(back)
		delete(c.ent, ce.key)
		c.cur -= ce.size
		c.evictions++
	}
}

// dropSegment invalidates every entry belonging to segment id (used when
// a segment file is retired).
func (c *blockCache) dropSegment(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ce := el.Value.(*cacheEnt)
		if ce.key.seg == id {
			c.lru.Remove(el)
			delete(c.ent, ce.key)
			c.cur -= ce.size
		}
		el = next
	}
}

// CacheStats is the block cache's observable state. Hits and Misses count
// requests for data blocks and materialized traces only; segment indexes
// are resident from open and never go through the cache.
type CacheStats struct {
	CapBytes  int64  `json:"cap_bytes"`
	UsedBytes int64  `json:"used_bytes"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Heap costs of a materialized trace beyond its strings' bytes, measured
// with runtime.MemStats: a single-trace graph with its router and shard,
// and what each record and each attribute adds to it.
// TestCacheChargeTracksHeap holds the sum to the hiring image's heap.
const (
	traceHeapBytes  = 8 << 10
	recordHeapBytes = 640
	attrHeapBytes   = 256
)

// heapBytes is what the block cache charges for the trace's materialized
// graph: an estimate of the heap it holds, from its records.
func (st sealedTrace) heapBytes() int64 {
	n := int64(traceHeapBytes + recordHeapBytes*st.records())
	attrs := func(m map[string]provenance.Value) {
		for name, v := range m {
			n += int64(attrHeapBytes + len(name) + len(v.Str()))
		}
	}
	for _, nd := range st.nodes {
		n += int64(len(nd.ID) + len(nd.Type))
		attrs(nd.Attrs)
	}
	for _, e := range st.edges {
		n += int64(len(e.ID) + len(e.Type) + len(e.Source) + len(e.Target))
		attrs(e.Attrs)
	}
	return n
}

func (c *blockCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		CapBytes: c.cap, UsedBytes: c.cur, Entries: c.lru.Len(),
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
