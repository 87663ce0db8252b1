package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
)

// collectSink records every flushed run; optionally gated so tests can
// hold the pipeline busy and fill the admission queues.
type collectSink struct {
	mu   sync.Mutex
	runs [][]events.KeyedEvent
	gate chan struct{} // non-nil: each flush waits for one token
	fail func(kevs []events.KeyedEvent) error
}

func (c *collectSink) sink(kevs []events.KeyedEvent) error {
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	run := make([]events.KeyedEvent, len(kevs))
	copy(run, kevs)
	c.runs = append(c.runs, run)
	c.mu.Unlock()
	if c.fail != nil {
		return c.fail(kevs)
	}
	return nil
}

func (c *collectSink) events() []events.KeyedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []events.KeyedEvent
	for _, run := range c.runs {
		out = append(out, run...)
	}
	return out
}

func ev(app, seq string) events.AppEvent {
	return events.AppEvent{
		Source: "t", Type: "e", AppID: app,
		Payload: map[string]string{"seq": seq},
	}
}

func drain(t *testing.T, g *Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
}

func TestGatewayOfferAppliesBatch(t *testing.T) {
	cs := &collectSink{}
	g, err := New(Config{Shards: 2, QueueDepth: 64, MaxBatch: 8}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	st, err := g.Offer("k1", []events.AppEvent{ev("A", "0"), ev("B", "1"), ev("A", "2")})
	if err != nil {
		t.Fatal(err)
	}
	if st.Token == "" || st.Key != "k1" || st.Events != 3 {
		t.Fatalf("ack = %+v", st)
	}
	drain(t, g)
	got := cs.events()
	if len(got) != 3 {
		t.Fatalf("sink saw %d events, want 3", len(got))
	}
	for _, kev := range got {
		if kev.Key != "k1" {
			t.Fatalf("event key = %q, want k1", kev.Key)
		}
	}
	ack, ok := g.Ack(st.Token)
	if !ok || ack.State != StateApplied {
		t.Fatalf("ack by token = %+v ok=%v", ack, ok)
	}
	if s := g.Stats(); s.AdmittedBatches != 1 || s.AdmittedEvents != 3 || s.AppliedBatches != 1 || s.QueuedEvents != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGatewayDedupByKey(t *testing.T) {
	cs := &collectSink{}
	g, err := New(Config{Shards: 1, QueueDepth: 64, MaxBatch: 8}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	batch := []events.AppEvent{ev("A", "0")}
	first, err := g.Offer("dup", batch)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, g)
	again, err := g.Offer("dup", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.Token != first.Token || again.State != StateApplied {
		t.Fatalf("redelivery ack = %+v", again)
	}
	drain(t, g)
	if got := len(cs.events()); got != 1 {
		t.Fatalf("sink saw %d events after redelivery, want 1", got)
	}
	if s := g.Stats(); s.DedupedBatches != 1 {
		t.Fatalf("DedupedBatches = %d", s.DedupedBatches)
	}
}

func TestGatewayOverloadRejectsWholeBatch(t *testing.T) {
	cs := &collectSink{gate: make(chan struct{})}
	g, err := New(Config{Shards: 1, QueueDepth: 4, MaxBatch: 2, RetryAfter: 123 * time.Millisecond}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue while the sink is gated shut. The worker takes some
	// events into its coalescing buffer, so offer until rejection.
	admitted := 0
	var oe *OverloadError
	for i := 0; i < 100; i++ {
		_, err := g.Offer(fmt.Sprintf("k%d", i), []events.AppEvent{ev("A", "0"), ev("A", "1")})
		if err == nil {
			admitted++
			continue
		}
		if !errors.As(err, &oe) {
			t.Fatalf("offer %d: %v, want *OverloadError", i, err)
		}
		break
	}
	if oe == nil {
		t.Fatal("queue never filled")
	}
	if oe.RetryAfter != 123*time.Millisecond {
		t.Fatalf("RetryAfter = %v", oe.RetryAfter)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted before overload")
	}
	// Partial admission must not happen: a rejected batch reserves nothing,
	// so the same rejection repeats while the queue stays full.
	if _, err := g.Offer("again", []events.AppEvent{ev("A", "2"), ev("A", "3")}); !errors.As(err, &oe) {
		t.Fatalf("second offer = %v, want *OverloadError", err)
	}
	stats := g.Stats()
	if stats.RejectedBatches != 2 {
		t.Fatalf("RejectedBatches = %d", stats.RejectedBatches)
	}
	// Open the gate; the backlog flushes and admission recovers.
	close(cs.gate)
	drain(t, g)
	if _, err := g.Offer("after", []events.AppEvent{ev("A", "9")}); err != nil {
		t.Fatalf("offer after recovery: %v", err)
	}
	drain(t, g)
	g.Close()
	if got, want := len(cs.events()), admitted*2+1; got != want {
		t.Fatalf("sink saw %d events, want %d", got, want)
	}
}

func TestGatewayPerEventErrorsSurviveAsyncPath(t *testing.T) {
	// The sink rejects every event whose seq payload is "bad", reporting
	// positions in the COALESCED run; the ack must translate them back to
	// the client batch's own indices.
	cs := &collectSink{}
	cs.fail = func(kevs []events.KeyedEvent) error {
		var failed []events.EventError
		for i, kev := range kevs {
			if kev.Event.Payload["seq"] == "bad" {
				failed = append(failed, events.EventError{Index: i, Err: errors.New("rejected")})
			}
		}
		if failed == nil {
			return nil
		}
		return &events.BatchError{Failed: failed, Total: len(kevs)}
	}
	g, err := New(Config{Shards: 2, QueueDepth: 64, MaxBatch: 16}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Indices 1 and 3 are bad; events spread over both shards.
	st, err := g.Offer("k", []events.AppEvent{
		ev("A", "ok"), ev("B", "bad"), ev("A", "ok"), ev("A", "bad"), ev("B", "ok"),
	})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, g)
	ack, ok := g.Ack(st.Token)
	if !ok || ack.State != StateApplied {
		t.Fatalf("ack = %+v ok=%v", ack, ok)
	}
	if len(ack.EventErrors) != 2 || ack.EventErrors[0].Index != 1 || ack.EventErrors[1].Index != 3 {
		t.Fatalf("event errors = %+v, want indices 1 and 3", ack.EventErrors)
	}
}

func TestGatewayDrainFlushesBacklogAndStopsAdmission(t *testing.T) {
	cs := &collectSink{}
	g, err := New(Config{Shards: 2, QueueDepth: 256, MaxBatch: 8}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := g.Offer(fmt.Sprintf("k%d", i), []events.AppEvent{ev("A", "0"), ev("B", "1")}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := len(cs.events()); got != 40 {
		t.Fatalf("drained %d events, want 40", got)
	}
	if _, err := g.Offer("late", []events.AppEvent{ev("A", "9")}); !errors.Is(err, ErrDraining) {
		t.Fatalf("offer while draining = %v, want ErrDraining", err)
	}
	if !g.Stats().Draining {
		t.Fatal("stats not draining")
	}
	g.Close()
}

func TestGatewayDedupWindowEviction(t *testing.T) {
	cs := &collectSink{}
	g, err := New(Config{Shards: 1, QueueDepth: 64, MaxBatch: 8, DedupWindow: 2}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, key := range []string{"k1", "k2", "k3"} {
		if _, err := g.Offer(key, []events.AppEvent{ev("A", key)}); err != nil {
			t.Fatal(err)
		}
		drain(t, g)
	}
	// k1 fell out of the window: redelivery re-runs the sink (safe — the
	// pipeline dedups by record ID) instead of answering from the table.
	st, err := g.Offer("k1", []events.AppEvent{ev("A", "k1")})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deduped {
		t.Fatal("evicted key still deduped")
	}
	drain(t, g)
	if got := len(cs.events()); got != 4 {
		t.Fatalf("sink saw %d events, want 4", got)
	}
}

// TestGatewayOverloadStress hammers the gateway from many writers at well
// past capacity and asserts the two load-shedding invariants: queued
// memory never exceeds Shards*QueueDepth events, and every ADMITTED event
// is delivered to the sink exactly once, in per-trace admission order.
// Run under -race this doubles as the concurrency check.
func TestGatewayOverloadStress(t *testing.T) {
	const (
		writers   = 8
		perWriter = 400
		batchSize = 4
	)
	type seen struct {
		mu   sync.Mutex
		last map[string]int // trace -> last seq delivered
		n    int
	}
	sn := &seen{last: make(map[string]int)}
	sink := func(kevs []events.KeyedEvent) error {
		sn.mu.Lock()
		defer sn.mu.Unlock()
		for _, kev := range kevs {
			app := kev.Event.AppID
			var seq int
			fmt.Sscanf(kev.Event.Payload["seq"], "%d", &seq)
			if last, ok := sn.last[app]; ok && seq <= last {
				return fmt.Errorf("trace %s: seq %d after %d (order violated or duplicate)", app, seq, last)
			}
			sn.last[app] = seq
			sn.n++
		}
		return nil
	}
	g, err := New(Config{Shards: 4, QueueDepth: 32, MaxBatch: 16}, sink)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(4 * 32)

	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := fmt.Sprintf("T%d", w) // one trace per writer: total order
			seq := 0
			for i := 0; i < perWriter; i++ {
				batch := make([]events.AppEvent, batchSize)
				for j := range batch {
					batch[j] = ev(trace, fmt.Sprintf("%d", seq+j))
				}
				_, err := g.Offer(fmt.Sprintf("w%d-b%d", w, i), batch)
				var oe *OverloadError
				switch {
				case err == nil:
					admitted.Add(int64(batchSize))
					seq += batchSize
				case errors.As(err, &oe):
					rejected.Add(1)
					// Shed: the whole batch was refused; drop it (the
					// recorder client would retry; here we move on).
				default:
					t.Errorf("offer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	drain(t, g)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	stats := g.Stats()
	if stats.MaxQueuedEvents > bound {
		t.Fatalf("queued events peaked at %d, bound %d", stats.MaxQueuedEvents, bound)
	}
	if rejected.Load() == 0 {
		t.Fatal("overload never triggered — raise the load")
	}
	if int64(sn.n) != admitted.Load() {
		t.Fatalf("sink saw %d events, admitted %d (loss or duplication)", sn.n, admitted.Load())
	}
	if stats.AdmittedEvents != uint64(admitted.Load()) || stats.FlushedEvents != stats.AdmittedEvents {
		t.Fatalf("stats admitted=%d flushed=%d, want %d", stats.AdmittedEvents, stats.FlushedEvents, admitted.Load())
	}
}
