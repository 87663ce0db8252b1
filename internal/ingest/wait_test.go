package ingest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/events"
)

// gatedGateway is a one-shard gateway whose sink holds every flush until
// the test sends on gate.
func gatedGateway(t *testing.T) (*Gateway, chan struct{}) {
	t.Helper()
	cs := &collectSink{gate: make(chan struct{})}
	g, err := New(Config{Shards: 1, QueueDepth: 64, MaxBatch: 8}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	return g, cs.gate
}

// waitAsync runs Wait on its own goroutine and hands back its answer.
func waitAsync(ctx context.Context, g *Gateway, token string) <-chan AckStatus {
	out := make(chan AckStatus, 1)
	go func() {
		st, ok := g.Wait(ctx, token)
		if !ok {
			st.Error = "unknown token"
		}
		out <- st
	}()
	return out
}

// mustNotReturn fails if the wait answered while its batch was still held.
func mustNotReturn(t *testing.T, ch <-chan AckStatus) {
	t.Helper()
	select {
	case st := <-ch:
		t.Fatalf("Wait returned %+v while the batch was still in the sink", st)
	case <-time.After(20 * time.Millisecond):
	}
}

func mustReturn(t *testing.T, ch <-chan AckStatus, want State) AckStatus {
	t.Helper()
	select {
	case st := <-ch:
		if st.State != want {
			t.Fatalf("Wait answered %+v, want state %s", st, want)
		}
		return st
	case <-time.After(5 * time.Second):
		t.Fatalf("Wait never returned (want %s)", want)
	}
	return AckStatus{}
}

// TestGatewayWaitReturnsWhenApplied: Wait holds until the sink has run
// the batch and answers the applied ack, per-event errors included.
func TestGatewayWaitReturnsWhenApplied(t *testing.T) {
	cs := &collectSink{gate: make(chan struct{}), fail: func(kevs []events.KeyedEvent) error {
		return &events.BatchError{Failed: []events.EventError{{Index: 1, Err: fmt.Errorf("bad")}}}
	}}
	g, err := New(Config{Shards: 1, QueueDepth: 64, MaxBatch: 8}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	st, err := g.Offer("k1", []events.AppEvent{ev("A", "0"), ev("A", "1")})
	if err != nil {
		t.Fatal(err)
	}
	done := waitAsync(context.Background(), g, st.Token)
	mustNotReturn(t, done)
	cs.gate <- struct{}{}
	got := mustReturn(t, done, StateApplied)
	if got.Token != st.Token || len(got.EventErrors) != 1 || got.EventErrors[0].Index != 1 {
		t.Fatalf("applied ack = %+v, want token %s with event 1 rejected", got, st.Token)
	}
	// An applied batch answers at once, and an unknown token says so.
	if again, ok := g.Wait(context.Background(), st.Token); !ok || again.State != StateApplied {
		t.Fatalf("Wait after apply = %+v %v", again, ok)
	}
	if _, ok := g.Wait(context.Background(), "ak-nope"); ok {
		t.Fatal("Wait found an unknown token")
	}
}

// TestGatewayWaitPendingOnContextEnd: a wait whose context ends first
// answers the batch as pending; the batch still applies afterwards.
func TestGatewayWaitPendingOnContextEnd(t *testing.T) {
	g, gate := gatedGateway(t)
	defer g.Close()
	st, err := g.Offer("k1", []events.AppEvent{ev("A", "0")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	mustReturn(t, waitAsync(ctx, g, st.Token), StatePending)
	gate <- struct{}{}
	mustReturn(t, waitAsync(context.Background(), g, st.Token), StateApplied)
}

// TestGatewayWaitEndsOnKillAndDrain: a wait never outlives the gateway.
// A crash (kill) and the start of a drain each release every waiter with
// the batch still pending — while the sink still holds it — so a shutdown
// is not held by its own waiting requests.
func TestGatewayWaitEndsOnKillAndDrain(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(g *Gateway)
	}{
		{"kill", func(g *Gateway) { g.kill() }},
		{"drain", func(g *Gateway) { _ = g.Drain(context.Background()) }},
		{"close", func(g *Gateway) { _ = g.Close() }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			g, gate := gatedGateway(t)
			st, err := g.Offer("k1", []events.AppEvent{ev("A", "0")})
			if err != nil {
				t.Fatal(err)
			}
			done := waitAsync(context.Background(), g, st.Token)
			mustNotReturn(t, done)
			stopped := make(chan struct{})
			go func() {
				stop.fn(g)
				close(stopped)
			}()
			mustReturn(t, done, StatePending)
			close(gate) // let the held flush finish so the stop can complete
			<-stopped
			g.Close()
		})
	}
}

// TestGatewayWaitRedeliveredKey: a redelivered key is answered with the
// original batch's token, and waiting on it waits on the original batch.
func TestGatewayWaitRedeliveredKey(t *testing.T) {
	g, gate := gatedGateway(t)
	defer g.Close()
	first, err := g.Offer("k1", []events.AppEvent{ev("A", "0")})
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.Offer("k1", []events.AppEvent{ev("A", "0")})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.Token != first.Token {
		t.Fatalf("redelivery = %+v, want the deduped ack of %s", again, first.Token)
	}
	done := waitAsync(context.Background(), g, again.Token)
	mustNotReturn(t, done)
	gate <- struct{}{}
	mustReturn(t, done, StateApplied)
	if s := g.Stats(); s.AdmittedBatches != 1 || s.AppliedBatches != 1 {
		t.Fatalf("stats = %+v, want one admitted and applied batch", s)
	}
}

// TestGatewayWaitKeepsNoChannel: an ack nobody waits on never gets a
// completion channel, and one that was waited on drops it when it fires,
// so the dedup window holds none.
func TestGatewayWaitKeepsNoChannel(t *testing.T) {
	g, gate := gatedGateway(t)
	defer g.Close()
	close(gate)
	held := func(g *Gateway, token string) bool {
		g.mu.Lock()
		a := g.byToken[token]
		g.mu.Unlock()
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.done != nil
	}
	var tokens []string
	for i := 0; i < 50; i++ {
		st, err := g.Offer(fmt.Sprintf("k%d", i), []events.AppEvent{ev("A", fmt.Sprint(i))})
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, st.Token)
		if i%2 == 0 {
			if _, ok := g.Wait(context.Background(), st.Token); !ok {
				t.Fatal("unknown token")
			}
		}
	}
	drain(t, g)
	for _, tok := range tokens {
		if held(g, tok) {
			t.Fatalf("applied ack %s still holds its completion channel", tok)
		}
	}

	// A wait that gave up leaves the channel only until the batch applies.
	g2, gate2 := gatedGateway(t)
	defer g2.Close()
	st, err := g2.Offer("k", []events.AppEvent{ev("A", "0")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, _ := g2.Wait(ctx, st.Token); got.State != StatePending {
		t.Fatalf("cancelled wait = %+v", got)
	}
	if !held(g2, st.Token) {
		t.Fatal("a pending ack that was waited on has no completion channel")
	}
	gate2 <- struct{}{}
	drain(t, g2)
	if held(g2, st.Token) {
		t.Fatal("applied ack still holds its completion channel")
	}
}
