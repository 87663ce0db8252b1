package ingest

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/events"
)

// fakeClock auto-advances: After records the requested duration and fires
// immediately, so retry loops run at full speed while the test inspects
// the exact delays the recorder asked for.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
	fire := c.now
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- fire
	return ch
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// scriptSender replays a fixed sequence of verdicts, then applies.
type scriptSender struct {
	mu    sync.Mutex
	steps []func() (SendResult, error)
	calls []string // key per attempt
}

func (s *scriptSender) Send(key string, evs []events.AppEvent) (SendResult, error) {
	s.mu.Lock()
	s.calls = append(s.calls, key)
	var step func() (SendResult, error)
	if len(s.steps) > 0 {
		step = s.steps[0]
		s.steps = s.steps[1:]
	}
	s.mu.Unlock()
	if step == nil {
		return SendResult{State: StateApplied}, nil
	}
	return step()
}

func overloaded(after time.Duration) func() (SendResult, error) {
	return func() (SendResult, error) {
		return SendResult{Overloaded: true, RetryAfter: after}, nil
	}
}

func transportDown() (SendResult, error) { return SendResult{}, errors.New("connection refused") }

func pending() (SendResult, error) { return SendResult{State: StatePending}, nil }

func recorderConfig(clock Clock) RecorderConfig {
	return RecorderConfig{
		MaxBatch: 4, FlushInterval: 10 * time.Millisecond, SpoolLimit: 64,
		BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second,
		Jitter: 0.2, Seed: 42, KeyPrefix: "t", Clock: clock,
	}
}

// TestRecorderBackoffSchedule drives one batch through overloads, a
// transport failure and a pending poll, asserting every delay the
// recorder chose: exponential growth, jitter bounds, the server's
// Retry-After floor, and the flush-interval poll cadence.
func TestRecorderBackoffSchedule(t *testing.T) {
	clock := newFakeClock()
	sender := &scriptSender{steps: []func() (SendResult, error){
		overloaded(0),                      // attempt 0: backoff ~100ms
		overloaded(500 * time.Millisecond), // attempt 1: ~200ms floored to 500ms
		transportDown,                      // attempt 2: ~400ms
		pending,                            // admitted: poll at FlushInterval
	}}
	r := NewRecorder(recorderConfig(clock), sender)
	if err := r.Record(ev("A", "0")); err != nil {
		t.Fatal(err)
	}
	// Wait for delivery before Close so the schedule is complete (Close
	// during delivery would skip the flush wait).
	for deadline := time.Now().Add(5 * time.Second); r.Stats().Applied == 0; {
		if time.Now().After(deadline) {
			t.Fatal("batch never applied")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	sleeps := clock.recorded()
	// First recorded sleep is the undersized-batch flush wait; drop it.
	if len(sleeps) < 5 {
		t.Fatalf("recorded %d sleeps: %v", len(sleeps), sleeps)
	}
	if sleeps[0] != 10*time.Millisecond {
		t.Fatalf("flush wait = %v, want 10ms", sleeps[0])
	}
	within := func(d, base time.Duration) bool {
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		return d >= lo && d <= hi
	}
	if !within(sleeps[1], 100*time.Millisecond) {
		t.Fatalf("backoff(0) = %v, want 100ms ±20%%", sleeps[1])
	}
	if sleeps[2] != 500*time.Millisecond {
		t.Fatalf("backoff(1) = %v, want exactly the 500ms Retry-After floor", sleeps[2])
	}
	if !within(sleeps[3], 400*time.Millisecond) {
		t.Fatalf("backoff(2) = %v, want 400ms ±20%%", sleeps[3])
	}
	if sleeps[4] != 10*time.Millisecond {
		t.Fatalf("pending poll = %v, want FlushInterval", sleeps[4])
	}
	// Every attempt redelivered under the SAME idempotency key.
	for i, key := range sender.calls {
		if key != sender.calls[0] {
			t.Fatalf("attempt %d used key %q, first used %q", i, key, sender.calls[0])
		}
	}
	st := r.Stats()
	if st.Overloads != 2 || st.TransportErrors != 1 || st.Polls != 1 || st.Applied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecorderBackoffBounds samples the raw schedule: exponential within
// jitter bounds, capped at MaxBackoff, floored at Retry-After, and — with
// a fixed seed — reproducible.
func TestRecorderBackoffBounds(t *testing.T) {
	mk := func(seed int64) *Recorder {
		cfg := recorderConfig(newFakeClock())
		cfg.Seed = seed
		return NewRecorder(cfg, &scriptSender{})
	}
	r := mk(7)
	defer r.Close()
	base := 100 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		want := base << attempt
		if want > time.Second || want <= 0 {
			want = time.Second // MaxBackoff cap
		}
		for i := 0; i < 50; i++ {
			d := r.backoff(attempt, 0)
			lo := time.Duration(float64(want) * 0.8)
			hi := time.Duration(float64(want) * 1.2)
			if d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	if d := r.backoff(0, 3*time.Second); d != 3*time.Second {
		t.Fatalf("floor ignored: %v", d)
	}
	a, b := mk(7), mk(7)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 20; i++ {
		if da, db := a.backoff(i%6, 0), b.backoff(i%6, 0); da != db {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, da, db)
		}
	}
}

// TestRecorderFlushOnClose: everything recorded before Close is delivered
// by the time Close returns, in order, under distinct batch keys.
func TestRecorderFlushOnClose(t *testing.T) {
	var mu sync.Mutex
	var got []string
	keys := map[string]bool{}
	sender := SenderFunc(func(key string, evs []events.AppEvent) (SendResult, error) {
		mu.Lock()
		defer mu.Unlock()
		keys[key] = true
		for _, e := range evs {
			got = append(got, e.Payload["seq"])
		}
		return SendResult{State: StateApplied}, nil
	})
	r := NewRecorder(recorderConfig(newFakeClock()), sender)
	const n = 10
	for i := 0; i < n; i++ {
		if err := r.Record(ev("A", fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != fmt.Sprintf("%d", i) {
			t.Fatalf("event %d = seq %s (order lost)", i, seq)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("expected multiple batches (MaxBatch=4, %d events), got keys %v", n, keys)
	}
	if err := r.Record(ev("A", "late")); !errors.Is(err, ErrRecorderClosed) {
		t.Fatalf("record after close = %v", err)
	}
}

// TestRecorderStopsOnTooLarge: a batch the server answers 413 can never
// be admitted, so the recorder sends it once and reports each of its
// events rejected instead of retrying it forever; later batches still go.
func TestRecorderStopsOnTooLarge(t *testing.T) {
	const msg = "batch exceeds the queue capacity"
	var mu sync.Mutex
	sends, rejected, applied := 0, 0, 0
	sender := SenderFunc(func(key string, evs []events.AppEvent) (SendResult, error) {
		mu.Lock()
		defer mu.Unlock()
		if sends++; sends == 1 {
			rejected = len(evs)
			return SendResult{}, &api.Error{Status: http.StatusRequestEntityTooLarge, Message: msg}
		}
		applied += len(evs)
		return SendResult{State: StateApplied}, nil
	})
	r := NewRecorder(recorderConfig(newFakeClock()), sender)
	for i := 0; i < 6; i++ { // MaxBatch 4: at least two batches
		if err := r.Record(ev("A", fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if rejected+applied != 6 || st.Retries != 0 || st.EventErrors != uint64(rejected) || st.BatchesSent != uint64(sends) {
		t.Fatalf("%d sends (%d events rejected, %d applied), stats %+v; want the 413 batch sent once", sends, rejected, applied, st)
	}
	errs := r.EventErrors()
	if len(errs) != rejected {
		t.Fatalf("event errors = %+v, want one per rejected event", errs)
	}
	for i, e := range errs {
		if e.Index != i || e.Err != "server: "+msg {
			t.Fatalf("event error %d = %+v", i, e)
		}
	}
}

// TestRecorderSpoolBound: a stalled server fills the spool; Record then
// fails fast with ErrSpoolFull instead of growing memory.
func TestRecorderSpoolBound(t *testing.T) {
	release := make(chan struct{})
	sender := SenderFunc(func(key string, evs []events.AppEvent) (SendResult, error) {
		<-release
		return SendResult{State: StateApplied}, nil
	})
	cfg := recorderConfig(newFakeClock())
	cfg.SpoolLimit = 8
	cfg.MaxBatch = 2
	r := NewRecorder(cfg, sender)
	// The loop takes up to MaxBatch events out of the spool before
	// blocking in Send, so overfill by more than SpoolLimit+MaxBatch.
	full := 0
	for i := 0; i < cfg.SpoolLimit+cfg.MaxBatch+8; i++ {
		if err := r.Record(ev("A", fmt.Sprintf("%d", i))); errors.Is(err, ErrSpoolFull) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("spool never filled")
	}
	st := r.Stats()
	if st.Dropped != uint64(full) || st.SpoolDepth > cfg.SpoolLimit {
		t.Fatalf("stats = %+v (rejected %d)", st, full)
	}
	close(release)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
