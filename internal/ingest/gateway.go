// Package ingest is the asynchronous ingestion gateway sitting between
// recorder clients and the provenance store. Recorders in a partially
// managed environment are bursty and unreliable — a form-submit hook, a
// mail gateway, a nightly batch export — so the capture path must absorb
// bursts without losing admitted events and must say "not now" instead of
// silently dropping when it cannot keep up.
//
// The gateway provides:
//
//   - One bounded FIFO admission queue of whole client batches.
//   - Admission control: when the queue cannot hold a batch the WHOLE
//     batch is rejected with an Overload error carrying a Retry-After
//     hint, or, when no wait could ever make room for it (more events
//     than the whole queue, a tenant's burst or byte cap), with a
//     TooLargeError that must not be retried. Memory stays bounded;
//     nothing is silently dropped.
//   - Batcher workers that each take the next batches off the queue, up
//     to MaxBatch events, reserve the run's place on its traces while
//     still holding the queue, and apply it in parallel with the others:
//     one run is one store commit, and runs on one trace apply in
//     admission order whichever worker runs them.
//   - At-least-once delivery: each client batch carries an idempotency
//     key. Redelivered batches still in the in-memory dedup table are
//     answered with the original ack; past it (eviction, restart, crash)
//     the batch re-runs the sink, whose deterministic record IDs make the
//     rerun record nothing new and report the true per-event errors.
//   - Ack tokens: admission returns a token the client can poll for the
//     batch's terminal status, including per-event error indices, or
//     wait on (Wait) until the batch is applied.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/events"
	"repro/internal/tenant"
)

// QuotaProvider is the per-tenant admission authority — normally the
// node's tenant.Registry. Admit charges a batch's events and bytes
// against one tenant and answers nil on admission, a *TooLargeError for a
// batch past one of the tenant's fixed limits, and any other error with a
// tenant-specific Retry-After when the batch may fit later; Refund undoes
// a charge when the batch is rejected for another reason; Release returns
// queued bytes once batches flush.
type QuotaProvider interface {
	Admit(tenantID string, events int, size int64) (retryAfter time.Duration, err error)
	Refund(tenantID string, events int, size int64)
	Release(tenantID string, size int64)
}

// Sink consumes one coalesced run of keyed events in two phases —
// normally events.Pipeline.Reserve. The call fixes the run's place in
// per-trace order and must not block: a worker makes it under the queue's
// lock. The worker then always calls apply, which commits the run. An
// error from apply that holds an *events.BatchError reports per-position
// failures; any other error fails the whole run.
type Sink func(kevs []events.KeyedEvent) (apply func() error)

// Config sizes the gateway.
type Config struct {
	// Shards is the number of batcher workers, the runs the sink may have
	// in flight at once.
	Shards int
	// QueueDepth bounds the queue at Shards*QueueDepth events. Admission
	// reserves space for a batch's events up front and rejects the whole
	// batch when the reservation does not fit — the bounded-memory
	// guarantee.
	QueueDepth int
	// MaxBatch caps the events coalesced into one sink run. Sized to the
	// store's group-commit batch so one run rides one commit window.
	MaxBatch int
	// DedupWindow bounds the remembered applied idempotency keys. Older
	// keys are evicted oldest-first; redelivery past the window is still
	// safe (the pipeline absorbs it) but re-runs the sink.
	DedupWindow int
	// RetryAfter is the backoff hint attached to overload rejections.
	RetryAfter time.Duration
	// Quotas, when set, is consulted per tenant before queue space is
	// reserved: every tenant appearing in a batch must admit its share or
	// the whole batch is rejected with that tenant's Retry-After. Nil
	// admits everything (single-tenant deployments pay nothing). An
	// event's tenant is tenant.Owner of its trace ID.
	Quotas QuotaProvider
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 65536
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
}

// OverloadError rejects a batch the admission queue cannot hold, or
// that a tenant's quota refused.
type OverloadError struct {
	// RetryAfter is the server's backoff hint — tenant-specific (when the
	// bucket refills enough for this batch) for quota rejections.
	RetryAfter time.Duration
	// Tenant names the tenant whose quota rejected the batch; empty for a
	// shared-queue (whole-gateway) overload.
	Tenant string
}

func (e *OverloadError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("ingest: tenant %s over quota, retry after %v", e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("ingest: overloaded, retry after %v", e.RetryAfter)
}

// TooLargeError rejects a batch no wait can admit: it holds more events
// than the whole admission queue, or more than a tenant's burst or
// queued-byte cap. The error names the limit. Unlike *OverloadError it
// must not be retried as it is (HTTP answers 413, with no Retry-After);
// the client has to split the batch.
type TooLargeError = tenant.LimitError

// ErrDraining rejects batches offered to a gateway that is shutting down.
var ErrDraining = errors.New("ingest: gateway draining")

// ErrClosed rejects operations on a closed gateway.
var ErrClosed = errors.New("ingest: gateway closed")

// The ack a gateway hands out is answered verbatim over HTTP, so its
// definition lives with the wire contract.
type (
	// State is an ack's lifecycle position.
	State = api.State
	// EventErr reports one event's terminal ingestion failure, indexed by
	// the event's position in the CLIENT batch (not the coalesced run).
	EventErr = api.EventError
	// AckStatus is the externally visible state of one admitted batch.
	AckStatus = api.Ack
)

const (
	// StatePending: admitted, not yet flushed through the sink.
	StatePending = api.StatePending
	// StateApplied: flushed; per-event failures (if any) are final.
	StateApplied = api.StateApplied
)

// Stats is a point-in-time snapshot of the gateway counters.
type Stats struct {
	AdmittedBatches uint64 `json:"admittedBatches"`
	AdmittedEvents  uint64 `json:"admittedEvents"`
	RejectedBatches uint64 `json:"rejectedBatches"`
	DedupedBatches  uint64 `json:"dedupedBatches"`
	AppliedBatches  uint64 `json:"appliedBatches"`
	Flushes         uint64 `json:"flushes"`
	FlushedEvents   uint64 `json:"flushedEvents"`
	// MaxFlush is the largest coalesced run handed to the sink.
	MaxFlush uint64 `json:"maxFlush"`
	// QueuedEvents / MaxQueuedEvents track admitted-not-yet-flushed
	// events; MaxQueuedEvents never exceeds Shards*QueueDepth.
	QueuedEvents    int64 `json:"queuedEvents"`
	MaxQueuedEvents int64 `json:"maxQueuedEvents"`
	PendingBatches  int64 `json:"pendingBatches"`
	Shards          int   `json:"shards"`
	QueueDepth      int   `json:"queueDepth"`
	MaxBatch        int   `json:"maxBatch"`
	RetryAfterMS    int64 `json:"retryAfterMs"`
	Draining        bool  `json:"draining"`
	// TenantAdmittedEvents / TenantRejectedEvents break admission down per
	// tenant; rejections counted here are quota rejections (shared-queue
	// overloads are not attributable to one tenant).
	TenantAdmittedEvents map[string]uint64 `json:"tenantAdmittedEvents,omitempty"`
	TenantRejectedEvents map[string]uint64 `json:"tenantRejectedEvents,omitempty"`
}

// batch is the unit queued: one admitted client batch, whole.
type batch struct {
	a    *ack
	kevs []events.KeyedEvent
}

// ack tracks one admitted batch.
type ack struct {
	token  string
	key    string
	events int

	mu       sync.Mutex
	state    State
	failures []EventErr
	batchErr string
	// done is closed when the batch is applied. The first Wait allocates
	// it and finish drops it once closed, so the dedup window holds no
	// channel: only acks someone is waiting on carry one.
	done chan struct{}
}

func (a *ack) status(deduped bool) AckStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AckStatus{
		Token: a.token, Key: a.key, State: a.state, Events: a.events,
		Deduped: deduped, Error: a.batchErr,
	}
	if len(a.failures) > 0 {
		st.EventErrors = append([]EventErr(nil), a.failures...)
	}
	return st
}

// finish marks the batch applied with its failures, in batch order.
func (a *ack) finish(fails []EventErr, batchErr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failures, a.batchErr = fails, batchErr
	a.state = StateApplied
	if a.done != nil {
		close(a.done)
		a.done = nil
	}
}

// applied returns nil once the batch is applied, else the channel that
// closes when it is.
func (a *ack) applied() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == StateApplied {
		return nil
	}
	if a.done == nil {
		a.done = make(chan struct{})
	}
	return a.done
}

// Gateway is the async ingestion front door. Safe for concurrent use.
type Gateway struct {
	cfg   Config
	sink  Sink
	queue chan batch
	// take is held while a worker waits for, takes and reserves a run, so
	// runs reserve in queue order. No sender takes it.
	take sync.Mutex

	mu         sync.Mutex // admission + ack table + tenant counters
	byToken    map[string]*ack
	byKey      map[string]*ack
	tnAdmitted map[string]uint64
	tnRejected map[string]uint64
	ring       []string // applied keys, eviction order
	tokSeq     uint64

	draining atomic.Bool
	closed   atomic.Bool
	stopOnce sync.Once
	killed   chan struct{}
	halt     chan struct{} // closed when Drain starts: waits end
	haltOnce sync.Once
	wg       sync.WaitGroup

	queued    atomic.Int64
	maxQueued atomic.Int64
	pending   atomic.Int64

	admittedBatches atomic.Uint64
	admittedEvents  atomic.Uint64
	rejected        atomic.Uint64
	deduped         atomic.Uint64
	applied         atomic.Uint64
	flushes         atomic.Uint64
	flushedEvents   atomic.Uint64
	maxFlush        atomic.Uint64
}

// New starts a gateway delivering coalesced runs to sink.
func New(cfg Config, sink Sink) (*Gateway, error) {
	if sink == nil {
		return nil, fmt.Errorf("ingest: nil sink")
	}
	cfg.fill()
	g := &Gateway{
		cfg:        cfg,
		sink:       sink,
		byToken:    make(map[string]*ack),
		byKey:      make(map[string]*ack),
		tnAdmitted: make(map[string]uint64),
		tnRejected: make(map[string]uint64),
		killed:     make(chan struct{}),
		halt:       make(chan struct{}),
	}
	// One slot per event of capacity is always enough: admission reserves
	// event counts and every batch holds >= 1 event, so a send after the
	// reservation never blocks, which lets Offer enqueue under g.mu.
	g.queue = make(chan batch, g.capacity())
	g.wg.Add(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		go g.worker()
	}
	return g, nil
}

// capacity is the most events the queue holds.
func (g *Gateway) capacity() int64 { return int64(g.cfg.Shards) * int64(g.cfg.QueueDepth) }

// eventSize is the admission-accounting size of one event: its string
// fields plus payload, with a small fixed per-event overhead. It is pure,
// so the bytes charged at admission equal the bytes released at flush.
func eventSize(ev events.AppEvent) int64 {
	n := len(ev.Source) + len(ev.Type) + len(ev.AppID) + 48
	for k, v := range ev.Payload {
		n += len(k) + len(v)
	}
	return int64(n)
}

// charge accumulates one tenant's share of a batch.
type charge struct {
	events int
	bytes  int64
}

// Offer admits one client batch. key is the client's idempotency key
// (empty for fire-and-forget clients; the gateway assigns one). On
// success the returned status is the batch's ack — normally pending; for
// a redelivered key, the original batch's current status with Deduped
// set. A queue that cannot hold the batch now rejects it whole with
// *OverloadError; a batch larger than the queue, or than a tenant's
// fixed limits, with *TooLargeError.
func (g *Gateway) Offer(key string, evs []events.AppEvent) (AckStatus, error) {
	if len(evs) == 0 {
		return AckStatus{}, fmt.Errorf("ingest: empty batch")
	}
	if n := int64(len(evs)); n > g.capacity() {
		g.rejected.Add(1)
		return AckStatus{}, &TooLargeError{Limit: "queue capacity", Unit: "events", Size: n, Max: g.capacity()}
	}

	// Key the events by batch position and total up each tenant's share
	// for quota admission.
	kevs := make([]events.KeyedEvent, len(evs))
	charges := make(map[string]*charge)
	tenants := []string{}
	for i, ev := range evs {
		kevs[i] = events.KeyedEvent{Event: ev, Index: i}
		if g.cfg.Quotas == nil {
			continue
		}
		tn := tenant.Owner(ev.AppID)
		c := charges[tn]
		if c == nil {
			c = &charge{}
			charges[tn] = c
			tenants = append(tenants, tn)
		}
		c.events++
		c.bytes += eventSize(ev)
	}
	sort.Strings(tenants)

	g.mu.Lock()
	if g.closed.Load() {
		g.mu.Unlock()
		return AckStatus{}, ErrClosed
	}
	if g.draining.Load() {
		g.mu.Unlock()
		return AckStatus{}, ErrDraining
	}
	if key != "" {
		if a, ok := g.byKey[key]; ok {
			g.mu.Unlock()
			g.deduped.Add(1)
			return a.status(true), nil
		}
	}
	// Charge every tenant's quota before reserving queue space. Admission
	// is all-or-nothing: the first tenant to reject fails the whole batch
	// with its own error or Retry-After, and tenants already charged are
	// refunded — a rejected batch must not consume anyone's budget.
	if g.cfg.Quotas != nil {
		for i, tn := range tenants {
			c := charges[tn]
			ra, err := g.cfg.Quotas.Admit(tn, c.events, c.bytes)
			if err != nil {
				for _, prev := range tenants[:i] {
					pc := charges[prev]
					g.cfg.Quotas.Refund(prev, pc.events, pc.bytes)
				}
				g.tnRejected[tn] += uint64(c.events)
				g.mu.Unlock()
				g.rejected.Add(1)
				var tooLarge *TooLargeError
				if errors.As(err, &tooLarge) {
					return AckStatus{}, err
				}
				return AckStatus{}, &OverloadError{RetryAfter: ra, Tenant: tn}
			}
		}
	}
	// Workers only shrink the queue, so space seen free under g.mu stays
	// free until the batch is enqueued below.
	total := int64(len(evs))
	if g.queued.Load()+total > g.capacity() {
		for _, tn := range tenants {
			c := charges[tn]
			g.cfg.Quotas.Refund(tn, c.events, c.bytes)
		}
		g.mu.Unlock()
		g.rejected.Add(1)
		return AckStatus{}, &OverloadError{RetryAfter: g.cfg.RetryAfter}
	}
	g.tokSeq++
	token := fmt.Sprintf("ak-%d", g.tokSeq)
	if key == "" {
		key = token
	}
	a := &ack{token: token, key: key, events: len(evs), state: StatePending}
	g.byToken[token] = a
	g.byKey[key] = a
	// Count the batch as in flight BEFORE it is visible to a worker, so
	// WaitIdle can never observe a just-admitted batch as idle.
	g.admittedBatches.Add(1)
	g.admittedEvents.Add(uint64(total))
	for tn, c := range charges {
		g.tnAdmitted[tn] += uint64(c.events)
	}
	g.pending.Add(1)
	for now := g.queued.Add(total); ; {
		max := g.maxQueued.Load()
		if now <= max || g.maxQueued.CompareAndSwap(max, now) {
			break
		}
	}
	for i := range kevs {
		kevs[i].Key = key
	}
	g.queue <- batch{a: a, kevs: kevs} // never blocks: reserved
	g.mu.Unlock()
	return a.status(false), nil
}

// Ack returns the status of an admitted batch by its token.
func (g *Gateway) Ack(token string) (AckStatus, bool) {
	g.mu.Lock()
	a, ok := g.byToken[token]
	g.mu.Unlock()
	if !ok {
		return AckStatus{}, false
	}
	return a.status(false), true
}

// Wait blocks until the batch behind token is applied and returns its
// status, as Ack does. It returns earlier, with the batch still pending,
// when ctx ends or the gateway is drained, closed or killed, so a waiting
// caller never outlives a shutdown. ok is false for an unknown token.
func (g *Gateway) Wait(ctx context.Context, token string) (AckStatus, bool) {
	g.mu.Lock()
	a, ok := g.byToken[token]
	g.mu.Unlock()
	if !ok {
		return AckStatus{}, false
	}
	if done := a.applied(); done != nil {
		select {
		case <-done:
		case <-ctx.Done():
		case <-g.halt:
		case <-g.killed:
		}
	}
	return a.status(false), true
}

func (g *Gateway) worker() {
	defer g.wg.Done()
	for {
		run, kevs, apply := g.next()
		if apply == nil {
			return
		}
		g.flush(run, kevs, apply)
	}
}

// next takes the next consecutive batches off the queue, coalesced up to
// MaxBatch events, and calls the sink's phase 1 on them under the dequeue
// lock. A nil apply means the queue is closed or the gateway killed.
func (g *Gateway) next() (run []batch, kevs []events.KeyedEvent, apply func() error) {
	g.take.Lock()
	defer g.take.Unlock()
	select {
	case b, ok := <-g.queue:
		if !ok {
			return nil, nil, nil
		}
		run, kevs = append(run, b), b.kevs
	case <-g.killed:
		return nil, nil, nil
	}
greedy:
	for len(kevs) < g.cfg.MaxBatch {
		select {
		case b, ok := <-g.queue:
			if !ok {
				break greedy
			}
			run, kevs = append(run, b), append(kevs[:len(kevs):len(kevs)], b.kevs...)
		default:
			break greedy
		}
	}
	return run, kevs, g.sink(kevs)
}

// flush runs one coalesced run's apply and settles every batch's ack,
// mapping sink failure positions back to each client batch's own indices.
func (g *Gateway) flush(run []batch, kevs []events.KeyedEvent, apply func() error) {
	err := apply()

	// Flushed bytes leave each tenant's queued-bytes budget. eventSize is
	// pure, so this releases exactly what admission charged.
	if g.cfg.Quotas != nil {
		rel := make(map[string]int64)
		for _, kev := range kevs {
			rel[tenant.Owner(kev.Event.AppID)] += eventSize(kev.Event)
		}
		for tn, sz := range rel {
			g.cfg.Quotas.Release(tn, sz)
		}
	}

	fails, batchErr := sinkErrors(err)

	total := len(kevs)
	g.queued.Add(int64(-total))
	g.flushes.Add(1)
	g.flushedEvents.Add(uint64(total))
	for {
		max := g.maxFlush.Load()
		if uint64(total) <= max || g.maxFlush.CompareAndSwap(max, uint64(total)) {
			break
		}
	}

	end := 0
	for _, b := range run {
		// fails is in run order and the batches tile the run, so each
		// batch's failures are a prefix of what is left.
		var mine []EventErr
		for end += len(b.kevs); len(fails) > 0 && fails[0].Index < end; fails = fails[1:] {
			mine = append(mine, EventErr{Index: kevs[fails[0].Index].Index, Err: fails[0].Err})
		}
		b.a.finish(mine, batchErr)
		g.finalize(b.a)
	}
}

// sinkErrors maps a sink error onto an applied ack's failure fields: the
// failed events in order, indexed by position in what the sink was
// handed, or the message of an error that names no event.
func sinkErrors(err error) (fails []EventErr, batchErr string) {
	var be *events.BatchError
	switch {
	case errors.As(err, &be):
		for _, fe := range be.Failed {
			fails = append(fails, EventErr{Index: fe.Index, Err: fe.Err.Error()})
		}
	case err != nil:
		batchErr = err.Error()
	}
	return fails, batchErr
}

// finalize records a terminally applied batch: install it in the dedup
// window, evict past the window. The batch stops counting as pending only
// afterwards, so a WaitIdle that returns sees the window settled.
func (g *Gateway) finalize(a *ack) {
	g.mu.Lock()
	g.ring = append(g.ring, a.key)
	for len(g.ring) > g.cfg.DedupWindow {
		old := g.ring[0]
		g.ring = g.ring[1:]
		if ev, ok := g.byKey[old]; ok {
			delete(g.byKey, old)
			delete(g.byToken, ev.token)
		}
	}
	g.mu.Unlock()
	g.applied.Add(1)
	g.pending.Add(-1)
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	var tnAdm, tnRej map[string]uint64
	g.mu.Lock()
	if len(g.tnAdmitted) > 0 {
		tnAdm = make(map[string]uint64, len(g.tnAdmitted))
		for k, v := range g.tnAdmitted {
			tnAdm[k] = v
		}
	}
	if len(g.tnRejected) > 0 {
		tnRej = make(map[string]uint64, len(g.tnRejected))
		for k, v := range g.tnRejected {
			tnRej[k] = v
		}
	}
	g.mu.Unlock()
	return Stats{
		TenantAdmittedEvents: tnAdm,
		TenantRejectedEvents: tnRej,
		AdmittedBatches:      g.admittedBatches.Load(),
		AdmittedEvents:       g.admittedEvents.Load(),
		RejectedBatches:      g.rejected.Load(),
		DedupedBatches:       g.deduped.Load(),
		AppliedBatches:       g.applied.Load(),
		Flushes:              g.flushes.Load(),
		FlushedEvents:        g.flushedEvents.Load(),
		MaxFlush:             g.maxFlush.Load(),
		QueuedEvents:         g.queued.Load(),
		MaxQueuedEvents:      g.maxQueued.Load(),
		PendingBatches:       g.pending.Load(),
		Shards:               g.cfg.Shards,
		QueueDepth:           g.cfg.QueueDepth,
		MaxBatch:             g.cfg.MaxBatch,
		RetryAfterMS:         g.cfg.RetryAfter.Milliseconds(),
		Draining:             g.draining.Load(),
	}
}

// WaitIdle blocks until every admitted batch has been flushed (or ctx
// expires). New admissions during the wait extend it.
func (g *Gateway) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if g.pending.Load() == 0 && g.queued.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Drain stops admission (new Offers fail with ErrDraining), waits for the
// queued backlog to flush, then stops the workers. On ctx expiry the
// workers keep flushing in the background — admitted events are never
// abandoned by a graceful shutdown — but Drain returns the ctx error.
func (g *Gateway) Drain(ctx context.Context) error {
	g.draining.Store(true)
	g.haltOnce.Do(func() { close(g.halt) })
	err := g.WaitIdle(ctx)
	g.stopOnce.Do(func() {
		g.mu.Lock()    // no Offer is between its draining check and its send
		close(g.queue) // workers flush the remaining queued batches
		g.mu.Unlock()
	})
	if err != nil {
		return err
	}
	g.wg.Wait()
	return nil
}

// Close drains (bounded) and stops the workers. Idempotent.
func (g *Gateway) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.Drain(ctx)
	g.wg.Wait()
	return err
}

// kill simulates a crash: workers finish the run in hand and stop, and
// queued work is lost with the dedup table. Test hook for the
// redelivery-after-crash property.
func (g *Gateway) kill() {
	g.closed.Store(true)
	close(g.killed)
	g.wg.Wait()
}
