package store

import (
	"runtime"
	"slices"
	"sync"
)

// Group commit: the store's synced write path. Per-append fsync serializes
// every writer behind a full disk round trip (~100µs+ each on ext4), so
// synced ingest throughput is flat no matter how many goroutines write.
// The committer batches concurrent Commit calls into one buffered write +
// one flush + one fsync, releasing every waiter on the shared fsync.
// Batching is opportunistic: whatever requests queued while the previous
// fsync was in flight form the next batch, adding no artificial latency.
//
// A request carries one or more entries: an ingest batch commits its nodes
// and the records derived from them as a single request (one enqueue, one
// wait, one shared fsync for the run, one commit frame in the log), so
// batch writers pay the pipeline's coordination cost once per batch
// instead of once per record.

// commitReq is one writer's pending append run: the entries plus the
// channel their per-entry commit errors are delivered on.
type commitReq struct {
	entries []entry
	done    chan []error
}

// committer is the group-commit pipeline. One goroutine drains the request
// channel, writes batches under the store's logMu (so log order always
// equals apply order), and releases waiters.
type committer struct {
	s    *Store
	reqs chan *commitReq

	mu      sync.RWMutex // guards stopped against concurrent enqueue/stop
	stopped bool
	wg      sync.WaitGroup

	// scratch is where process stages one request's frames before they go
	// to the log writer, and enc encodes its records; both are owned by the
	// run goroutine. idleBytes is the most either keeps while the queue is
	// empty: the log writer's own buffer size (trim).
	scratch   []byte
	enc       commitEnc
	idleBytes int
}

const (
	defaultMaxBatch  = 512
	committerBacklog = 1024
)

func newCommitter(s *Store) *committer {
	c := &committer{s: s, reqs: make(chan *commitReq, committerBacklog), idleBytes: s.log.buf.Size()}
	c.wg.Add(1)
	go c.run()
	return c
}

// enqueueAll submits a run of entries as one commit unit and blocks until
// the run is durable (or failed). The run shares a single flush+fsync —
// with whatever other requests joined the same batch — and the returned
// per-entry errors align with entries.
func (c *committer) enqueueAll(entries []entry) []error {
	req := &commitReq{entries: entries, done: make(chan []error, 1)}
	c.mu.RLock()
	if c.stopped {
		c.mu.RUnlock()
		return errsAll(len(entries), errClosed)
	}
	c.reqs <- req
	c.mu.RUnlock()
	return <-req.done
}

// errsAll fills a per-entry error slice with one shared error.
func errsAll(n int, err error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// stop drains every in-flight request and terminates the pipeline. Safe to
// call once; enqueue after stop fails with errClosed.
func (c *committer) stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.reqs)
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *committer) run() {
	defer c.wg.Done()
	batch := make([]*commitReq, 0, defaultMaxBatch)
	for {
		req, ok := <-c.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], req)
		// Writers made runnable by the same event as this one's sender (the
		// gateway workers sharing a client batch) may not have run yet:
		// yield once so they reach the queue and share this fsync. With
		// nobody runnable it returns at once.
		runtime.Gosched()
		batch = c.collect(batch)
		for rest := batch; len(rest) > 0; {
			rest = c.process(rest)
		}
	}
}

// trim drops the staging buffers a request grew past idleBytes. process
// runs it once the queue is empty: a burst keeps them for as long as it
// lasts, and the next large request grows them again to its own size.
// Requests smaller than the log writer's buffer never reallocate.
func (c *committer) trim() {
	if cap(c.scratch) > c.idleBytes {
		c.scratch = nil
	}
	// The records buffer is the encoder's largest part, and its table and
	// map grow with it: every string of a frame is named by its records.
	if cap(c.enc.recs) > c.idleBytes {
		c.enc = commitEnc{}
	}
}

// batchEntries counts the entries carried by the queued requests.
func batchEntries(batch []*commitReq) int {
	n := 0
	for _, req := range batch {
		n += len(req.entries)
	}
	return n
}

// collect grows the batch greedily with whatever is already queued, up to
// defaultMaxBatch entries. The entry cap is soft against multi-entry
// requests: a request is never split, so one oversized run forms its own
// batch. An empty or closed channel ends collection.
func (c *committer) collect(batch []*commitReq) []*commitReq {
	for n := batchEntries(batch); n < defaultMaxBatch; {
		select {
		case req, ok := <-c.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, req)
			n += len(req.entries)
		default:
			return batch
		}
	}
	return batch
}

// process makes one batch durable and applies it. Under logMu each
// request's frames are staged (stage) and handed to the log writer, then
// the batch is flushed once and fsynced once (sync mode); then the store's
// shared commit epilogue applies the requests in the same order, publishes
// one snapshot and emits the events (applyAndPublishLocked has the
// ordering argument), and finally the waiters are released. A request
// that cannot be staged fails alone, with none of its bytes in the log. A
// write/flush/fsync failure fails every request of the batch (nothing was
// applied) and every batch after it: the log writer keeps the error until
// Close (logWriter.err). Apply errors are per entry.
//
// A request carrying demotion markers ends the batch, and process returns
// the requests behind it for the next round. Staging judges residency
// before anything applies, so a write staged behind a marker that is about
// to evict its trace would skip the promotion and rebuild the trace from
// its late records alone; staged after the apply, it promotes as usual.
//
// The slots of the requests it answered are cleared, so their entries do
// not stay live until the next batch overwrites them, and with the queue
// empty the staging buffers are trimmed: both before logMu is released, so
// a writer answered here finds them done once it takes logMu again.
func (c *committer) process(batch []*commitReq) (rest []*commitReq) {
	s := c.s
	s.logMu.Lock()
	defer func() {
		clear(batch[:len(batch)-len(rest)])
		if len(rest) == 0 && len(c.reqs) == 0 {
			c.trim()
		}
		s.logMu.Unlock()
	}()
	var err error
	var promos []*pendingPromo
	var written []*commitReq // requests whose frames went to the log writer
	rest = batch             // requests not staged yet
	if s.log == nil {
		err = errClosed
	}
	staged := map[string]bool{}
	for err == nil && len(rest) > 0 {
		req := rest[0]
		rest = rest[1:]
		frames, reqPromos, serr := c.stage(req.entries, staged)
		if serr != nil {
			req.done <- errsAll(len(req.entries), serr)
			continue
		}
		written = append(written, req)
		promos = append(promos, reqPromos...)
		before := s.log.size
		err = s.log.write(frames)
		s.logBytes.Add(s.log.size - before)
		if slices.ContainsFunc(req.entries, func(e entry) bool { return e.op == opDemote }) {
			break
		}
	}
	if err == nil && len(written) > 0 {
		err = s.log.flush()
		if err == nil && s.log.sync {
			err = s.log.syncFile()
			s.stats.Fsyncs.Add(1)
			if err != nil {
				s.stats.SyncFailures.Add(1)
			}
			if err == nil {
				err = s.log.syncDir()
			}
		}
	}
	if err == nil {
		err = s.applyPromotionsLocked(promos)
	}
	if err != nil {
		for _, req := range append(written, rest...) {
			req.done <- errsAll(len(req.entries), err)
		}
		return nil
	}
	total := batchEntries(written)
	if total > 0 {
		s.stats.CommitBatches.Add(1)
		s.stats.GroupedCommits.Add(uint64(total))
	}
	for {
		max := s.stats.MaxCommitBatch.Load()
		if uint64(total) <= max || s.stats.MaxCommitBatch.CompareAndSwap(max, uint64(total)) {
			break
		}
	}
	runs := make([][]entry, len(written))
	for i, req := range written {
		runs[i] = req.entries
	}
	results := s.applyAndPublishLocked(runs, len(promos) > 0)
	for i, req := range written {
		req.done <- results[i]
	}
	return rest
}

// stage encodes one request's frames into the committer's scratch buffer:
// a promotion marker for every sealed trace its records land on that no
// earlier request of the batch promoted, then the records as one commit
// frame (a trace tombstone is a frame of its own; commitEnc cuts a request
// past commitFrameBytes). Nothing reaches the log writer until the whole
// request is staged, so a promotion that cannot be staged — an unreadable
// sealed block — or a record too large for a frame fails this request
// alone: its other records leave no bytes behind, and the apps it staged
// are unstaged for the requests after it. Caller holds logMu.
func (c *committer) stage(entries []entry, staged map[string]bool) ([]byte, []*pendingPromo, error) {
	buf := c.scratch[:0]
	var promos []*pendingPromo
	var err error
	for i := 0; i < len(entries) && err == nil; i++ {
		e := entries[i]
		if e.op.namesTrace() {
			if buf, err = c.enc.flush(buf); err == nil {
				buf = appendEntryFrame(buf, e)
			}
			continue
		}
		var promo *pendingPromo
		if promo, err = c.s.stagePromotionLocked(e.app, staged); err != nil {
			break
		}
		if promo != nil {
			promos = append(promos, promo)
			buf = appendEntryFrame(buf, promo.marker)
		}
		buf, err = c.enc.add(buf, e)
	}
	if err == nil {
		buf, err = c.enc.flush(buf)
	}
	c.scratch = buf
	if err != nil {
		c.enc.reset()
		for _, p := range promos {
			delete(staged, p.marker.app)
		}
		return nil, nil, err
	}
	return buf, promos, nil
}
