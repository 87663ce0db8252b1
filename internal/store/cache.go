package store

import (
	"container/list"
	"sync"
)

// blockCache is the byte-capped LRU fronting sealed-segment reads. It
// holds one kind of value: a data block's CRC-verified payload, charged
// its exact length. A cold read builds the trace's graph from the cached
// block every time: a graph holds about twenty times its run's bytes, a
// random audit read seldom asks for the same trace twice, and a cached
// block serves every trace in it.
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
}

type cacheEnt struct {
	key cacheKey
	val []byte
}

// defaultCacheBytes is the block cache's default capacity.
const defaultCacheBytes = 32 << 20

func newBlockCache(capBytes int64) *blockCache {
	if capBytes <= 0 {
		capBytes = defaultCacheBytes
	}
	return &blockCache{cap: capBytes, lru: list.New(), ent: make(map[cacheKey]*list.Element)}
}

// get returns the cached block for key, promoting it to most-recent.
func (c *blockCache) get(key cacheKey) ([]byte, bool) {
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
// byte budget holds. A block bigger than the whole cache is stored alone:
// callers get the caching they asked for and the next insert evicts it.
func (c *blockCache) put(key cacheKey, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[key]; ok {
		ce := el.Value.(*cacheEnt)
		c.cur += int64(len(val) - len(ce.val))
		ce.val = val
		c.lru.MoveToFront(el)
	} else {
		c.ent[key] = c.lru.PushFront(&cacheEnt{key: key, val: val})
		c.cur += int64(len(val))
	}
	for c.cur > c.cap && c.lru.Len() > 1 {
		back := c.lru.Back()
		ce := back.Value.(*cacheEnt)
		c.lru.Remove(back)
		delete(c.ent, ce.key)
		c.cur -= int64(len(ce.val))
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
			c.cur -= int64(len(ce.val))
		}
		el = next
	}
}

// CacheStats is the block cache's observable state. Hits and Misses count
// requests for data blocks; segment indexes are resident from open and
// never go through the cache.
type CacheStats struct {
	CapBytes  int64  `json:"cap_bytes"`
	UsedBytes int64  `json:"used_bytes"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *blockCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		CapBytes: c.cap, UsedBytes: c.cur, Entries: c.lru.Len(),
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
