package events

import "sync"

// TraceLock keeps per-trace order: a FIFO ticket lock per trace. Runs on
// one trace run in the order they took their tickets, whoever runs them,
// and a release wakes only the next ticket of each trace. A run waits only
// for tickets taken before its own, so the waits form no cycle. The zero
// value is ready to use.
type TraceLock struct {
	mu   sync.Mutex
	last map[string]chan struct{} // per trace: the last ticket's release
}

// Take queues a run behind the tickets already taken on apps, the trace
// IDs it touches (repeats allowed), without blocking. wait blocks until
// those tickets are released; release, which must follow wait, hands each
// trace to its next ticket. A run that took a ticket must release it on
// every path, or its traces stay held.
func (l *TraceLock) Take(apps []string) (wait, release func()) {
	done := make(chan struct{})
	var after []chan struct{}
	l.mu.Lock()
	if l.last == nil {
		l.last = make(map[string]chan struct{})
	}
	for _, app := range apps {
		if prev := l.last[app]; prev != nil && prev != done { // done: a repeat
			after = append(after, prev)
		}
		l.last[app] = done
	}
	l.mu.Unlock()
	wait = func() {
		for _, prev := range after {
			<-prev
		}
	}
	release = func() {
		l.mu.Lock()
		for _, app := range apps {
			if l.last[app] == done {
				delete(l.last, app)
			}
		}
		l.mu.Unlock()
		close(done)
	}
	return wait, release
}
