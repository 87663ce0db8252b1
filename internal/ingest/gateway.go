// Package ingest is the asynchronous ingestion gateway sitting between
// recorder clients and the provenance store. Recorders in a partially
// managed environment are bursty and unreliable — a form-submit hook, a
// mail gateway, a nightly batch export — so the capture path must absorb
// bursts without losing admitted events and must say "not now" instead of
// silently dropping when it cannot keep up.
//
// The gateway provides:
//
//   - A bounded, sharded admission queue hashed by trace (AppID), so
//     events of one process execution are delivered to the pipeline in
//     admission order while independent traces flow in parallel.
//   - Admission control: when a shard's queue is full the WHOLE client
//     batch is rejected with an Overload error carrying a Retry-After
//     hint. Memory stays bounded; nothing is silently dropped.
//   - Batcher workers that coalesce queued spans into pipeline runs of up
//     to MaxBatch events, sized to ride the store's group-commit window:
//     one coalesced run is one store commit (one flush, one shared fsync).
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
	"hash/fnv"
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
// against one tenant and answers with a tenant-specific Retry-After on
// rejection; Refund undoes a charge when the batch is rejected for
// another reason; Release returns queued bytes once spans flush.
type QuotaProvider interface {
	Admit(tenantID string, events int, size int64) (retryAfter time.Duration, ok bool)
	Refund(tenantID string, events int, size int64)
	Release(tenantID string, size int64)
}

// Sink consumes one coalesced run of keyed events — normally
// events.Pipeline.IngestKeyed, which commits the run together with the
// correlation records it causes. A returned error that holds an
// *events.BatchError reports per-position failures; any other error fails
// the whole run.
type Sink func(kevs []events.KeyedEvent) error

// Config sizes the gateway.
type Config struct {
	// Shards is the number of admission queues and batcher workers.
	// Events hash to shards by AppID, preserving per-trace order.
	Shards int
	// QueueDepth bounds each shard's queued events. Admission reserves
	// space for a batch's events up front and rejects the whole batch
	// when the reservation does not fit — the bounded-memory guarantee.
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

// OverloadError rejects a batch the admission queues cannot hold, or
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

// span is the unit queued on a shard: the slice of one admitted batch's
// events that hashed to the shard, in batch order.
type span struct {
	a    *ack
	kevs []events.KeyedEvent
}

type shard struct {
	ch     chan span
	queued atomic.Int64 // reserved events not yet flushed
}

// ack tracks one admitted batch across the shards it was split over.
type ack struct {
	token  string
	key    string
	events int

	mu        sync.Mutex
	remaining int // spans not yet flushed
	state     State
	failures  []EventErr
	batchErr  string
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

// finish folds one flushed span into the ack; reports terminal.
func (a *ack) finish(fails []EventErr, batchErr string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failures = append(a.failures, fails...)
	if batchErr != "" {
		a.batchErr = batchErr
	}
	a.remaining--
	if a.remaining > 0 {
		return false
	}
	sort.Slice(a.failures, func(i, j int) bool { return a.failures[i].Index < a.failures[j].Index })
	a.state = StateApplied
	if a.done != nil {
		close(a.done)
		a.done = nil
	}
	return true
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
	cfg    Config
	sink   Sink
	shards []*shard

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
	g.shards = make([]*shard, cfg.Shards)
	for i := range g.shards {
		// Capacity QueueDepth spans is always enough: admission reserves
		// event counts, every span holds >= 1 event, so a shard can never
		// owe more than QueueDepth sends. Post-reservation sends never
		// block, which lets Offer enqueue while holding g.mu.
		g.shards[i] = &shard{ch: make(chan span, cfg.QueueDepth)}
	}
	g.wg.Add(len(g.shards))
	for _, sh := range g.shards {
		go g.worker(sh)
	}
	return g, nil
}

// shardOf hashes a trace ID to its shard, pinning each trace's events to
// one worker so per-trace admission order survives coalescing.
func (g *Gateway) shardOf(appID string) int {
	h := fnv.New32a()
	h.Write([]byte(appID))
	return int(h.Sum32() % uint32(len(g.shards)))
}

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
// set. A full shard rejects the whole batch with *OverloadError and no
// partial admission.
func (g *Gateway) Offer(key string, evs []events.AppEvent) (AckStatus, error) {
	if g.closed.Load() {
		return AckStatus{}, ErrClosed
	}
	if g.draining.Load() {
		return AckStatus{}, ErrDraining
	}
	if len(evs) == 0 {
		return AckStatus{}, fmt.Errorf("ingest: empty batch")
	}

	// Split into per-shard spans preserving batch order within each shard,
	// and total up each tenant's share for quota admission.
	spans := make(map[int][]events.KeyedEvent)
	order := make([]int, 0, len(g.shards))
	charges := make(map[string]*charge)
	tenants := []string{}
	for i, ev := range evs {
		si := g.shardOf(ev.AppID)
		if _, ok := spans[si]; !ok {
			order = append(order, si)
		}
		spans[si] = append(spans[si], events.KeyedEvent{Event: ev, Index: i})
		if g.cfg.Quotas != nil {
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
	}
	sort.Ints(order)
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
	// with its own Retry-After, and tenants already charged are refunded —
	// a rejected batch must not consume anyone's budget.
	if g.cfg.Quotas != nil {
		for i, tn := range tenants {
			c := charges[tn]
			ra, ok := g.cfg.Quotas.Admit(tn, c.events, c.bytes)
			if !ok {
				for _, prev := range tenants[:i] {
					pc := charges[prev]
					g.cfg.Quotas.Refund(prev, pc.events, pc.bytes)
				}
				g.tnRejected[tn] += uint64(c.events)
				g.mu.Unlock()
				g.rejected.Add(1)
				return AckStatus{}, &OverloadError{RetryAfter: ra, Tenant: tn}
			}
		}
	}
	// Reserve queue space for every span before enqueueing anything; on
	// any full shard roll the reservation back and reject the whole batch.
	for i, si := range order {
		sh := g.shards[si]
		n := int64(len(spans[si]))
		if sh.queued.Load()+n > int64(g.cfg.QueueDepth) {
			for _, prev := range order[:i] {
				g.shards[prev].queued.Add(-int64(len(spans[prev])))
			}
			if g.cfg.Quotas != nil {
				for _, tn := range tenants {
					c := charges[tn]
					g.cfg.Quotas.Refund(tn, c.events, c.bytes)
				}
			}
			g.mu.Unlock()
			g.rejected.Add(1)
			return AckStatus{}, &OverloadError{RetryAfter: g.cfg.RetryAfter}
		}
		sh.queued.Add(n)
	}
	g.tokSeq++
	token := fmt.Sprintf("ak-%d", g.tokSeq)
	if key == "" {
		key = token
	}
	a := &ack{token: token, key: key, events: len(evs), remaining: len(order), state: StatePending}
	g.byToken[token] = a
	g.byKey[key] = a
	// Count the batch as in flight BEFORE the first span is visible to a
	// worker, so WaitIdle can never observe a just-admitted batch as idle.
	total := int64(len(evs))
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
	for _, si := range order {
		kevs := spans[si]
		for j := range kevs {
			kevs[j].Key = key
		}
		g.shards[si].ch <- span{a: a, kevs: kevs} // never blocks: reserved
	}
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

func (g *Gateway) worker(sh *shard) {
	defer g.wg.Done()
	for {
		var first span
		var ok bool
		select {
		case first, ok = <-sh.ch:
			if !ok {
				return
			}
		case <-g.killed:
			return
		}
		run := []span{first}
		n := len(first.kevs)
		closed := false
	greedy:
		for n < g.cfg.MaxBatch {
			select {
			case next, more := <-sh.ch:
				if !more {
					closed = true
					break greedy
				}
				run = append(run, next)
				n += len(next.kevs)
			default:
				break greedy
			}
		}
		select {
		case <-g.killed:
			return
		default:
		}
		g.flush(sh, run)
		if closed {
			return
		}
	}
}

// flush hands one coalesced run to the sink and settles every span's ack,
// mapping sink failure positions back to each client batch's own indices.
func (g *Gateway) flush(sh *shard, run []span) {
	total := 0
	for _, sp := range run {
		total += len(sp.kevs)
	}
	kevs := make([]events.KeyedEvent, 0, total)
	offs := make([]int, len(run))
	for i, sp := range run {
		offs[i] = len(kevs)
		kevs = append(kevs, sp.kevs...)
	}
	err := g.sink(kevs)

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

	sh.queued.Add(int64(-total))
	g.queued.Add(int64(-total))
	g.flushes.Add(1)
	g.flushedEvents.Add(uint64(total))
	for {
		max := g.maxFlush.Load()
		if uint64(total) <= max || g.maxFlush.CompareAndSwap(max, uint64(total)) {
			break
		}
	}

	for i, sp := range run {
		// fails is in run order and the spans tile the run, so each span's
		// failures are a prefix of what is left.
		var mine []EventErr
		for end := offs[i] + len(sp.kevs); len(fails) > 0 && fails[0].Index < end; fails = fails[1:] {
			mine = append(mine, EventErr{Index: sp.kevs[fails[0].Index-offs[i]].Index, Err: fails[0].Err})
		}
		if sp.a.finish(mine, batchErr) {
			g.finalize(sp.a)
		}
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
		for _, sh := range g.shards {
			close(sh.ch) // workers flush the remaining buffered spans
		}
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

// kill simulates a crash: workers stop where they stand, and queued and
// in-flight work is lost with the dedup table. Test hook for the
// redelivery-after-crash property.
func (g *Gateway) kill() {
	g.closed.Store(true)
	close(g.killed)
	g.wg.Wait()
}
