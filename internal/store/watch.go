package store

import (
	"sync"

	"repro/internal/provenance"
)

// EventKind distinguishes the mutations the change feed reports.
type EventKind int

const (
	// EventNode reports a newly inserted node record.
	EventNode EventKind = iota + 1
	// EventNodeUpdate reports an enrichment of an existing node.
	EventNodeUpdate
	// EventEdge reports a newly inserted relation record.
	EventEdge
	// EventTraceDrop reports a trace dropped after a shard handoff
	// (DropTraces). It carries no record: App names the trace.
	EventTraceDrop
)

// String names the kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EventNode:
		return "node"
	case EventNodeUpdate:
		return "node-update"
	case EventEdge:
		return "edge"
	case EventTraceDrop:
		return "trace-drop"
	default:
		return "invalid"
	}
}

// Event is one change-feed notification. Exactly one of Node or Edge is
// set, according to Kind, except on EventTraceDrop, which sets neither.
// Records are clones: consumers may retain them.
type Event struct {
	Kind EventKind
	Seq  uint64
	// TraceVersion is the touched trace's monotonic version immediately
	// after this commit (zero when the record carries no trace ID).
	TraceVersion uint64
	Node         *provenance.Node
	Edge         *provenance.Edge
	// Prev is the node's pre-image on EventNodeUpdate (nil otherwise):
	// delta-driven control evaluation tests access-plan prefilters against
	// both the old and the new attributes, so an update that neither was
	// nor becomes a binder candidate is provably unable to affect it.
	Prev *provenance.Node
	// App is the dropped trace on EventTraceDrop (empty otherwise).
	App string
}

// AppID returns the trace the changed record belongs to, or the dropped
// trace.
func (e Event) AppID() string {
	if e.Node != nil {
		return e.Node.AppID
	}
	if e.Edge != nil {
		return e.Edge.AppID
	}
	return e.App
}

// Subscription is a change-feed consumer. Events are queued without bound
// between the store's commit path and the consumer, so a slow consumer
// never blocks writers and never loses events — the property continuous
// compliance checking (experiment E6) depends on.
type Subscription struct {
	ch       chan Event
	mu       sync.Mutex
	cond     *sync.Cond
	q        []Event
	maxDepth int
	done     bool
	cancel   func()
}

// Subscribe registers a change-feed consumer. Events committed after the
// call are delivered in commit order on C. Call Cancel when finished.
func (s *Store) Subscribe() *Subscription {
	sub := &Subscription{ch: make(chan Event)}
	sub.cond = sync.NewCond(&sub.mu)
	go sub.pump()

	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = sub
	s.subMu.Unlock()

	// Cancel removes the subscription from the store; stored as a closure
	// field to keep Subscription decoupled from Store.
	sub.cancel = func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
		sub.stop()
	}
	return sub
}

// C returns the event channel. It is closed after Cancel (or store Close)
// once every queued event has been delivered.
func (sub *Subscription) C() <-chan Event { return sub.ch }

// Cancel detaches the subscription. Pending events are still delivered,
// then C is closed.
func (sub *Subscription) Cancel() {
	if sub.cancel != nil {
		sub.cancel()
	}
}

// Depth reports the number of events queued behind the consumer right
// now — the backpressure signal a continuous checker surfaces in its
// stats so an overwhelmed deployment is visible before memory is.
func (sub *Subscription) Depth() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.q)
}

// MaxDepth reports the high-water mark of the queue since Subscribe.
func (sub *Subscription) MaxDepth() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.maxDepth
}

func (sub *Subscription) enqueue(e Event) {
	sub.mu.Lock()
	if !sub.done {
		sub.q = append(sub.q, e)
		if len(sub.q) > sub.maxDepth {
			sub.maxDepth = len(sub.q)
		}
		sub.cond.Signal()
	}
	sub.mu.Unlock()
}

func (sub *Subscription) stop() {
	sub.mu.Lock()
	if !sub.done {
		sub.done = true
		sub.cond.Signal()
	}
	sub.mu.Unlock()
}

// pump drains the queue to the channel, preserving order.
func (sub *Subscription) pump() {
	for {
		sub.mu.Lock()
		for len(sub.q) == 0 && !sub.done {
			sub.cond.Wait()
		}
		if len(sub.q) == 0 && sub.done {
			sub.mu.Unlock()
			close(sub.ch)
			return
		}
		batch := sub.q
		sub.q = nil
		sub.mu.Unlock()
		for _, e := range batch {
			sub.ch <- e
		}
	}
}

// publish clones the event payload and fans it out to every subscriber.
func (s *Store) publish(e Event) {
	if e.Node != nil {
		e.Node = e.Node.Clone()
	}
	if e.Edge != nil {
		e.Edge = e.Edge.Clone()
	}
	if e.Prev != nil {
		e.Prev = e.Prev.Clone()
	}
	s.subMu.Lock()
	for _, sub := range s.subs {
		sub.enqueue(e)
	}
	s.subMu.Unlock()
}
