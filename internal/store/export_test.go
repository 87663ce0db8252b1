package store

import "sync"

// CaptureValueBuffers records every buffer the decoder copies a sealed
// run's string values into until restore is called; buffers returns those
// made so far.
func CaptureValueBuffers() (buffers func() [][]byte, restore func()) {
	var (
		mu   sync.Mutex
		bufs [][]byte
	)
	prev := valueBuffer
	valueBuffer = func(n int) []byte {
		b := prev(n)
		mu.Lock()
		bufs = append(bufs, b[:n])
		mu.Unlock()
		return b
	}
	buffers = func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), bufs...)
	}
	return buffers, func() { valueBuffer = prev }
}

// CachedBlocks returns the payloads the store's block cache holds: the
// buffers sealed runs are read out of.
func CachedBlocks(s *Store) [][]byte {
	c := s.tier.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	var blocks [][]byte
	for el := c.lru.Front(); el != nil; el = el.Next() {
		blocks = append(blocks, el.Value.(*cacheEnt).val)
	}
	return blocks
}
