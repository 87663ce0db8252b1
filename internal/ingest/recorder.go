package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/events"
)

// Clock is the recorder's time source; tests substitute a fake to drive
// backoff schedules deterministically.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SendResult is a sender's verdict on one delivery attempt that reached
// the server.
type SendResult struct {
	// State is the batch's ack state: StateApplied is terminal;
	// StatePending means admitted but not applied within the server's
	// wait: send again with the same key.
	State State
	// Token addresses the server-side ack for polling.
	Token string
	// Overloaded marks an admission-control rejection; retry later.
	Overloaded bool
	// RetryAfter is the server's backoff hint (overload only).
	RetryAfter time.Duration
	// EventErrors lists per-event terminal failures (applied only).
	EventErrors []EventErr
}

// Sender delivers one keyed batch attempt. Transport failures return an
// error; server verdicts (including overload) return a SendResult.
// Redelivering with the same key must be safe — the gateway dedups.
type Sender interface {
	Send(key string, evs []events.AppEvent) (SendResult, error)
}

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(key string, evs []events.AppEvent) (SendResult, error)

func (f SenderFunc) Send(key string, evs []events.AppEvent) (SendResult, error) {
	return f(key, evs)
}

// RecorderConfig tunes the client.
type RecorderConfig struct {
	// MaxBatch caps events per delivered batch.
	MaxBatch int
	// FlushInterval bounds how long a non-full batch waits for company
	// before being sent, and paces the re-send of a batch the server
	// answered as still pending.
	FlushInterval time.Duration
	// SpoolLimit bounds the in-memory spool (events). Record fails with
	// ErrSpoolFull beyond it — backpressure surfaces at the source
	// instead of growing memory without bound.
	SpoolLimit int
	// BaseBackoff/MaxBackoff bound the exponential retry schedule.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter spreads retries: each delay is scaled by a uniform factor in
	// [1-Jitter, 1+Jitter] so synchronized clients don't retry in phase.
	Jitter float64
	// Seed makes the jitter sequence reproducible; 0 derives one from the
	// wall clock.
	Seed int64
	// KeyPrefix namespaces this recorder's idempotency keys; defaults to
	// a random prefix so independent recorders never collide.
	KeyPrefix string
	// Clock substitutes the time source (tests); nil means real time.
	Clock Clock
}

func (c *RecorderConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 25 * time.Millisecond
	}
	if c.SpoolLimit <= 0 {
		c.SpoolLimit = 8192
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
}

// ErrSpoolFull rejects Record calls when the spool is at SpoolLimit.
var ErrSpoolFull = errors.New("ingest: recorder spool full")

// ErrRecorderClosed rejects Record calls after Close.
var ErrRecorderClosed = errors.New("ingest: recorder closed")

// SpoolStats snapshots the recorder's counters.
type SpoolStats struct {
	// Enqueued/Dropped count Record calls accepted into / rejected by the
	// spool.
	Enqueued uint64 `json:"enqueued"`
	Dropped  uint64 `json:"dropped"`
	// BatchesSent counts delivery attempts; Applied counts batches
	// confirmed terminal.
	BatchesSent uint64 `json:"batchesSent"`
	Applied     uint64 `json:"applied"`
	// Retries counts re-sends after overload or transport failure;
	// Overloads and TransportErrors split them by cause. Polls counts
	// re-sends of a batch answered pending (admitted, not applied within
	// the server's wait).
	Retries         uint64 `json:"retries"`
	Overloads       uint64 `json:"overloads"`
	TransportErrors uint64 `json:"transportErrors"`
	Polls           uint64 `json:"polls"`
	// EventErrors counts events the server terminally rejected.
	EventErrors uint64 `json:"eventErrors"`
	// SpoolDepth is the current spool size.
	SpoolDepth int `json:"spoolDepth"`
}

// Recorder is the client half of the gateway: a spooling, retrying
// at-least-once event shipper. Record never blocks on the network — events
// enter an in-memory spool and a background loop cuts batches, delivers
// them under fresh idempotency keys, and retries with exponential backoff
// plus jitter (honoring server Retry-After hints) until each batch is
// applied. Close flushes the spool before returning.
type Recorder struct {
	cfg   RecorderConfig
	send  Sender
	clock Clock
	rng   *rand.Rand // loop goroutine only

	mu      sync.Mutex
	spool   []events.AppEvent
	closing bool
	seq     uint64
	stats   SpoolStats
	evErrs  []EventErr

	wake    chan struct{}
	closeCh chan struct{}
	done    chan struct{}
}

// NewRecorder starts the delivery loop.
func NewRecorder(cfg RecorderConfig, send Sender) *Recorder {
	cfg.fill()
	r := &Recorder{
		cfg:     cfg,
		send:    send,
		clock:   cfg.Clock,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		wake:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if r.cfg.KeyPrefix == "" {
		r.cfg.KeyPrefix = fmt.Sprintf("rc-%08x", r.rng.Uint32())
	}
	go r.run()
	return r
}

// Record spools one event for asynchronous delivery.
func (r *Recorder) Record(ev events.AppEvent) error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return ErrRecorderClosed
	}
	if len(r.spool) >= r.cfg.SpoolLimit {
		r.stats.Dropped++
		r.mu.Unlock()
		return ErrSpoolFull
	}
	r.spool = append(r.spool, ev)
	r.stats.Enqueued++
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return nil
}

// Close stops accepting events, delivers everything spooled, and returns
// once the last batch is applied.
func (r *Recorder) Close() error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closing = true
	r.mu.Unlock()
	close(r.closeCh)
	<-r.done
	return nil
}

// Stats snapshots the recorder counters.
func (r *Recorder) Stats() SpoolStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.SpoolDepth = len(r.spool)
	return st
}

// EventErrors drains the terminal per-event rejections collected so far.
func (r *Recorder) EventErrors() []EventErr {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.evErrs
	r.evErrs = nil
	return out
}

func (r *Recorder) run() {
	defer close(r.done)
	for {
		r.mu.Lock()
		n := len(r.spool)
		closing := r.closing
		r.mu.Unlock()
		if n == 0 {
			if closing {
				return
			}
			select {
			case <-r.wake:
			case <-r.closeCh:
			}
			continue
		}
		// Undersized batch: wait one flush interval for company unless
		// closing (then drain as fast as possible).
		if n < r.cfg.MaxBatch && !closing {
			select {
			case <-r.clock.After(r.cfg.FlushInterval):
			case <-r.closeCh:
			}
		}
		r.mu.Lock()
		take := len(r.spool)
		if take > r.cfg.MaxBatch {
			take = r.cfg.MaxBatch
		}
		batch := make([]events.AppEvent, take)
		copy(batch, r.spool)
		r.spool = r.spool[:copy(r.spool, r.spool[take:])]
		r.seq++
		key := fmt.Sprintf("%s-%d", r.cfg.KeyPrefix, r.seq)
		r.mu.Unlock()
		r.deliver(key, batch)
	}
}

// deliver retries one batch under one idempotency key until applied.
func (r *Recorder) deliver(key string, batch []events.AppEvent) {
	attempt := 0
	for {
		r.mu.Lock()
		r.stats.BatchesSent++
		r.mu.Unlock()
		res, err := r.send.Send(key, batch)
		switch {
		case err != nil:
			r.count(func(s *SpoolStats) { s.TransportErrors++; s.Retries++ })
			r.sleep(r.backoff(attempt, 0))
			attempt++
		case res.Overloaded:
			r.count(func(s *SpoolStats) { s.Overloads++; s.Retries++ })
			r.sleep(r.backoff(attempt, res.RetryAfter))
			attempt++
		case res.State == StateApplied:
			r.mu.Lock()
			r.stats.Applied++
			r.stats.EventErrors += uint64(len(res.EventErrors))
			r.evErrs = append(r.evErrs, res.EventErrors...)
			r.mu.Unlock()
			return
		default: // pending: admitted, not yet applied; ask again under the same key
			attempt = 0
			r.count(func(s *SpoolStats) { s.Polls++ })
			r.sleep(r.cfg.FlushInterval)
		}
	}
}

func (r *Recorder) count(fn func(*SpoolStats)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}

// backoff computes the attempt's delay: exponential from BaseBackoff,
// capped at MaxBackoff, jittered by ±Jitter, floored at the server's
// Retry-After hint.
func (r *Recorder) backoff(attempt int, floor time.Duration) time.Duration {
	d := r.cfg.BaseBackoff
	for i := 0; i < attempt && d < r.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	jittered := time.Duration(float64(d) * (1 - r.cfg.Jitter + 2*r.cfg.Jitter*r.rng.Float64()))
	if jittered < floor {
		jittered = floor
	}
	return jittered
}

func (r *Recorder) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-r.clock.After(d)
}
