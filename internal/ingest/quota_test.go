package ingest

import (
	"errors"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/tenant"
)

// newQuotaGateway builds a gateway whose admission consults a tenant
// registry under a fake clock.
func newQuotaGateway(t *testing.T, reg *tenant.Registry) (*Gateway, *collectSink) {
	t.Helper()
	sink := &collectSink{}
	g, err := New(Config{Shards: 2, QueueDepth: 64, MaxBatch: 16, Quotas: reg}, sink.sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, sink
}

// TestQuotaRejectsOverRate pins the token bucket at the gateway: a
// tenant over its events/sec rate is rejected with a tenant-naming
// OverloadError and a refill-derived Retry-After, while other tenants
// keep flowing.
func TestQuotaRejectsOverRate(t *testing.T) {
	reg := tenant.NewRegistry()
	now := time.Unix(1000, 0)
	reg.SetClock(func() time.Time { return now })
	if err := reg.Create(tenant.Tenant{ID: "acme", Quota: tenant.Quota{EventsPerSec: 10, Burst: 5}}); err != nil {
		t.Fatal(err)
	}
	g, _ := newQuotaGateway(t, reg)

	batch := func(app string, n int) []events.AppEvent {
		evs := make([]events.AppEvent, n)
		for i := range evs {
			evs[i] = ev(app, "s")
		}
		return evs
	}

	// Burst of 5 admits; the 6th event is over.
	if _, err := g.Offer("", batch("acme::T-1", 5)); err != nil {
		t.Fatal(err)
	}
	_, err := g.Offer("", batch("acme::T-1", 1))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("expected overload, got %v", err)
	}
	if oe.Tenant != "acme" || oe.RetryAfter <= 0 {
		t.Fatalf("overload = %+v", oe)
	}
	// The deficit is 1 event at 10/sec = 100ms.
	if oe.RetryAfter != 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 100ms", oe.RetryAfter)
	}

	// The default tenant is unlimited and unaffected by acme's rejection.
	if _, err := g.Offer("", batch("JR-1", 50)); err != nil {
		t.Fatal(err)
	}

	// After the hinted backoff the bucket has refilled one token.
	now = now.Add(100 * time.Millisecond)
	if _, err := g.Offer("", batch("acme::T-1", 1)); err != nil {
		t.Fatal(err)
	}

	drain(t, g)
	st := g.Stats()
	if st.TenantAdmittedEvents["acme"] != 6 || st.TenantAdmittedEvents[tenant.DefaultID] != 50 {
		t.Fatalf("tenant admitted = %+v", st.TenantAdmittedEvents)
	}
	if st.TenantRejectedEvents["acme"] != 1 {
		t.Fatalf("tenant rejected = %+v", st.TenantRejectedEvents)
	}
}

// TestQuotaRefundOnMixedBatch pins all-or-nothing admission: when one
// tenant of a mixed batch rejects, tenants already charged get their
// tokens back — the failed batch consumes nobody's budget.
func TestQuotaRefundOnMixedBatch(t *testing.T) {
	reg := tenant.NewRegistry()
	now := time.Unix(1000, 0)
	reg.SetClock(func() time.Time { return now })
	// "aa" sorts before "zz", so aa is charged first and must be refunded
	// when zz rejects.
	if err := reg.Create(tenant.Tenant{ID: "aa", Quota: tenant.Quota{EventsPerSec: 10, Burst: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Create(tenant.Tenant{ID: "zz", Quota: tenant.Quota{EventsPerSec: 10, Burst: 2}}); err != nil {
		t.Fatal(err)
	}
	g, _ := newQuotaGateway(t, reg)

	mixed := []events.AppEvent{
		ev("aa::T-1", "1"), ev("aa::T-1", "2"), ev("aa::T-1", "3"), ev("aa::T-1", "4"),
		ev("zz::T-1", "1"), ev("zz::T-1", "2"), ev("zz::T-1", "3"), // over zz's burst of 2
	}
	// Three events can never fit zz's burst of two, so the rejection is
	// the permanent one; it refunds exactly as an overload does.
	_, err := g.Offer("", mixed)
	var tooLarge *TooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Tenant != "zz" {
		t.Fatalf("expected zz too large, got %v", err)
	}

	// aa's full burst must still be available: the rejected batch did not
	// consume it.
	if _, err := g.Offer("", []events.AppEvent{
		ev("aa::T-1", "1"), ev("aa::T-1", "2"), ev("aa::T-1", "3"), ev("aa::T-1", "4"),
	}); err != nil {
		t.Fatalf("aa burst not refunded: %v", err)
	}
	drain(t, g)

	stats := reg.Stats()
	if s := stats["aa"]; s.AdmittedEvents != 4 || s.RejectedEvents != 0 {
		t.Fatalf("aa stats = %+v", s)
	}
	if s := stats["zz"]; s.RejectedEvents != 3 {
		t.Fatalf("zz stats = %+v", s)
	}
}

// TestQuotaQueuedBytesReleased pins the byte gauge lifecycle: admitted
// bytes stay charged while queued, block admission at the cap, and drain
// as the sink flushes.
func TestQuotaQueuedBytesReleased(t *testing.T) {
	reg := tenant.NewRegistry()
	one := eventSize(ev("acme::T-1", "s"))
	if err := reg.Create(tenant.Tenant{ID: "acme", Quota: tenant.Quota{MaxQueuedBytes: 2 * one}}); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{gate: make(chan struct{})}
	g, err := New(Config{Shards: 1, QueueDepth: 64, MaxBatch: 16, Quotas: reg}, sink.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Two events fill the byte budget while the gated sink holds them.
	if _, err := g.Offer("", []events.AppEvent{ev("acme::T-1", "s"), ev("acme::T-2", "s")}); err != nil {
		t.Fatal(err)
	}
	_, err = g.Offer("", []events.AppEvent{ev("acme::T-3", "s")})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Tenant != "acme" {
		t.Fatalf("expected byte-cap overload, got %v", err)
	}

	// Release the sink; flushed bytes return to the budget.
	close(sink.gate)
	drain(t, g)
	if _, err := g.Offer("", []events.AppEvent{ev("acme::T-3", "s")}); err != nil {
		t.Fatalf("bytes not released after flush: %v", err)
	}
	drain(t, g)
	if qb := reg.Stats()["acme"].QueuedBytes; qb != 0 {
		t.Fatalf("queued bytes after drain = %d", qb)
	}
}

// TestTooLargeBatchFailsAtOnce pins the batches no wait can admit: one of
// more events than the whole queue (Shards × QueueDepth = 8, offered 9)
// and one past a tenant's burst (2, offered 3). Each is refused with a
// *TooLargeError naming the limit, on an idle gateway and again after the
// bucket had hours to refill, never with the retryable *OverloadError;
// and neither charges the tenant nor blocks a batch that fits.
func TestTooLargeBatchFailsAtOnce(t *testing.T) {
	reg := tenant.NewRegistry()
	now := time.Unix(1000, 0)
	reg.SetClock(func() time.Time { return now })
	if err := reg.Create(tenant.Tenant{ID: "acme", Quota: tenant.Quota{EventsPerSec: 1, Burst: 2}}); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	g, err := New(Config{Shards: 2, QueueDepth: 4, MaxBatch: 16, Quotas: reg}, sink.sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	batch := func(app string, n int) []events.AppEvent {
		evs := make([]events.AppEvent, n)
		for i := range evs {
			evs[i] = ev(app, "s")
		}
		return evs
	}
	for _, tc := range []struct {
		evs    []events.AppEvent
		tenant string
		want   string
	}{
		{batch("T-1", 9), "", "batch of 9 events exceeds the queue capacity of 8 events"},
		{batch("acme::T-1", 3), "acme", "tenant acme: batch of 3 events exceeds the burst of 2 events"},
	} {
		for try := 0; try < 2; try++ {
			_, err := g.Offer("", tc.evs)
			var tooLarge *TooLargeError
			var oe *OverloadError
			if !errors.As(err, &tooLarge) || errors.As(err, &oe) {
				t.Fatalf("offer of %d events = %v, want *TooLargeError", len(tc.evs), err)
			}
			if tooLarge.Tenant != tc.tenant || err.Error() != tc.want {
				t.Fatalf("error = %q (tenant %q), want %q (tenant %q)", err, tooLarge.Tenant, tc.want, tc.tenant)
			}
			now = now.Add(time.Hour)
		}
	}
	if _, err := g.Offer("", batch("acme::T-1", 2)); err != nil {
		t.Fatalf("a batch at the burst must admit: %v", err)
	}
	if _, err := g.Offer("", batch("T-2", 6)); err != nil {
		t.Fatalf("a batch that fits must admit: %v", err)
	}
	drain(t, g)
	if st := g.Stats(); st.RejectedBatches != 4 || st.TenantAdmittedEvents["acme"] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
