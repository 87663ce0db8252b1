package ingest

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
)

// TestGatewayAppliesOneTraceInAdmissionOrder: behind a 4-worker gateway,
// the second batch on a trace is taken by another worker while the first
// run is still held, and it still applies second. Nothing but the
// pipeline's ticket lock orders the two runs.
func TestGatewayAppliesOneTraceInAdmissionOrder(t *testing.T) {
	st, p := propPipeline(t)
	sub := st.Subscribe()
	defer sub.Cancel()
	gate := make(chan struct{})
	taken := make(chan struct{}, 2)
	sink := func(kevs []events.KeyedEvent) func() error {
		apply := p.Reserve(kevs)
		taken <- struct{}{}
		if kevs[0].Key != "b1" {
			return apply
		}
		return func() error {
			<-gate // the first run blocks
			return apply()
		}
	}
	g, err := New(Config{Shards: 4, QueueDepth: 64, MaxBatch: 8}, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the held run
	first, err := g.Offer("b1", []events.AppEvent{stepEvent("T", "1")})
	if err != nil {
		t.Fatal(err)
	}
	<-taken
	second, err := g.Offer("b2", []events.AppEvent{stepEvent("T", "2")})
	if err != nil {
		t.Fatal(err)
	}
	<-taken // another worker holds b2's run: the first is still gated
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if ack, _ := g.Wait(ctx, second.Token); ack.State != StatePending {
		t.Fatalf("b2 = %+v while b1, admitted before it, was held", ack)
	}
	release()
	for _, tok := range []string{first.Token, second.Token} {
		if ack, _ := g.Wait(context.Background(), tok); ack.State != StateApplied || ack.Error != "" || len(ack.EventErrors) > 0 {
			t.Fatalf("ack %s = %+v", tok, ack)
		}
	}
	var order []string
	for len(order) < 2 {
		order = append(order, (<-sub.C()).Node.ID)
	}
	if order[0] != "PE-b1-0" || order[1] != "PE-b2-0" {
		t.Fatalf("commit order %v, want b1's event before b2's", order)
	}
}
