package ingest

import "sync"

// batchQueue is the gateway's FIFO of admitted batches. It holds the
// batches themselves and nothing more: admission bounds it in events
// (Config.QueueDepth), so it needs no slots of its own, and a push never
// blocks, which lets Offer enqueue under the admission lock. One taker at
// a time waits on it (Gateway.take serializes the workers).
type batchQueue struct {
	mu sync.Mutex
	// items[head:] are the queued batches, oldest first. The array is
	// reused from the start when the queue empties, and its live half
	// moves down rather than grow it when the taken half is the larger, so
	// it stays within twice the most batches queued at once.
	items  []batch
	head   int
	closed bool
	// ready holds a token while a push or the close may have gone
	// unnoticed by the taker.
	ready chan struct{}
}

func newBatchQueue() *batchQueue {
	return &batchQueue{ready: make(chan struct{}, 1)}
}

// push appends b. The queue must not be closed.
func (q *batchQueue) push(b batch) {
	q.mu.Lock()
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, b)
	q.mu.Unlock()
	q.signal()
}

// close lets the taker empty the queue and then see it closed.
func (q *batchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *batchQueue) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// tryPop takes the oldest batch, if there is one.
func (q *batchQueue) tryPop() (batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeLocked()
}

func (q *batchQueue) takeLocked() (b batch, ok bool) {
	if q.head == len(q.items) {
		return batch{}, false
	}
	b = q.items[q.head]
	q.items[q.head] = batch{}
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return b, true
}

// pop waits for the oldest batch. ok is false once stop is closed, which
// wins over queued batches, or once the queue is closed and empty.
func (q *batchQueue) pop(stop <-chan struct{}) (batch, bool) {
	for {
		select {
		case <-stop:
			return batch{}, false
		default:
		}
		q.mu.Lock()
		b, ok := q.takeLocked()
		closed := q.closed
		q.mu.Unlock()
		if ok || closed {
			return b, ok
		}
		select {
		case <-q.ready:
		case <-stop:
			return batch{}, false
		}
	}
}
