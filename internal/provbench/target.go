package provbench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/ingest"
)

// OfferResult is a target's verdict on one dispatched op.
type OfferResult struct {
	// Token addresses the ack when the admission was asynchronous.
	Token string
	// Applied marks a terminal admission: a gateway that had flushed the
	// batch when it answered (over HTTP, whenever the batch applied
	// within the server's wait).
	Applied bool
	// Shed marks an admission-control rejection (429/Retry-After). The
	// open-loop runner counts it and moves on — it never retries, so
	// overload can not back-pressure the schedule.
	Shed bool
	// RetryAfter is the server's backoff hint on shed.
	RetryAfter time.Duration
}

// Target accepts offered batches. Offer may block (that is the
// latency being measured); the runner dispatches every op on its own
// goroutine so a slow target never delays the arrival schedule.
type Target interface {
	Offer(key string, evs []events.AppEvent) (OfferResult, error)
}

// AckPoller is implemented by targets whose admission is asynchronous:
// the runner polls Applied to measure ack latency.
type AckPoller interface {
	// Applied reports whether the admitted batch has reached its
	// terminal state.
	Applied(token string) (bool, error)
}

// DetectionSampler is implemented by in-process targets that can
// report continuous-checker progress: Seq snapshots the store commit
// sequence and WaitChecked blocks until the checker has consumed the
// change feed up to it. The runner samples detection lag through it.
type DetectionSampler interface {
	Seq() uint64
	WaitChecked(seq uint64)
}

// TenantDetectionSampler narrows the barrier to one tenant: the wait
// clears when the tenant's own traces are checked, regardless of other
// tenants' backlogs. The runner uses it for ops of tenant-scoped classes
// — it is what makes fair-share isolation measurable per class.
type TenantDetectionSampler interface {
	DetectionSampler
	WaitTenantChecked(tenantID string, seq uint64)
}

// GatewayStatser is implemented by targets that can snapshot the
// ingestion gateway counters for the report.
type GatewayStatser interface {
	GatewayStats() (ingest.Stats, bool)
}

// --- in-process target ---------------------------------------------------

// SystemTarget drives a core.System directly, through its ingestion
// gateway. Unit tests use it; cmd/provbench uses it in in-process mode.
type SystemTarget struct {
	Sys *core.System
}

func (t *SystemTarget) Offer(key string, evs []events.AppEvent) (OfferResult, error) {
	st, err := t.Sys.Gateway.Offer(key, evs)
	if err == nil {
		return OfferResult{Token: st.Token, Applied: st.State == ingest.StateApplied}, nil
	}
	var oe *ingest.OverloadError
	if errors.As(err, &oe) {
		return OfferResult{Shed: true, RetryAfter: oe.RetryAfter}, nil
	}
	if errors.Is(err, ingest.ErrDraining) {
		return OfferResult{Shed: true}, nil
	}
	return OfferResult{}, err
}

func (t *SystemTarget) Applied(token string) (bool, error) {
	st, ok := t.Sys.Gateway.Ack(token)
	if !ok {
		return false, fmt.Errorf("provbench: unknown ack token %q", token)
	}
	return st.State == ingest.StateApplied, nil
}

func (t *SystemTarget) Seq() uint64 { return t.Sys.Store.Stats().Seq }

func (t *SystemTarget) WaitChecked(seq uint64) { t.Sys.Checker.WaitFor(seq) }

func (t *SystemTarget) WaitTenantChecked(tenantID string, seq uint64) {
	t.Sys.Checker.WaitTenant(tenantID, seq)
}

func (t *SystemTarget) GatewayStats() (ingest.Stats, bool) {
	return t.Sys.Gateway.Stats(), true
}

// --- HTTP target ---------------------------------------------------------

// HTTPTarget drives a provd server over its /events protocol, the
// production-shaped load path. Offer sends through ingest.HTTPSender, so
// the server answers once the batch is applied ("Prefer: wait"); Applied
// asks /ingest/ack the same way for a batch whose wait ran out.
type HTTPTarget struct {
	// Base is the server base URL, e.g. "http://localhost:8341".
	Base string
	// Client is the HTTP client; nil uses the shared api.Timeout default.
	Client *http.Client
}

func (t *HTTPTarget) api() api.Client { return api.Client{Base: t.Base, HTTP: t.Client} }

func (t *HTTPTarget) Offer(key string, evs []events.AppEvent) (OfferResult, error) {
	res, err := (&ingest.HTTPSender{API: t.api()}).Send(key, evs)
	if err != nil {
		return OfferResult{}, err
	}
	if res.Overloaded {
		return OfferResult{Shed: true, RetryAfter: res.RetryAfter}, nil
	}
	return OfferResult{Token: res.Token, Applied: res.State == ingest.StateApplied}, nil
}

func (t *HTTPTarget) Applied(token string) (bool, error) {
	hdr := http.Header{}
	api.SetPreferWait(hdr)
	// The AckPoller interface carries no context; api.Timeout bounds the call.
	resp, data, err := t.api().Fetch(context.TODO(), http.MethodGet, "/ingest/ack?token="+url.QueryEscape(token), hdr, nil, api.MaxEventBody)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = api.DecodeError(resp, data)
	}
	var ack api.Ack
	if err == nil {
		err = json.Unmarshal(data, &ack)
	}
	if err != nil {
		return false, fmt.Errorf("provbench: ack poll: %v", err)
	}
	return ack.State == api.StateApplied, nil
}

// GatewayStats scrapes /ingest/stats for the report's gateway snapshot.
func (t *HTTPTarget) GatewayStats() (ingest.Stats, bool) {
	var st ingest.Stats
	err := t.api().JSON(context.TODO(), http.MethodGet, "/ingest/stats", nil, &st)
	if err != nil || st.Shards == 0 {
		return ingest.Stats{}, false
	}
	return st, true
}

// --- null target ---------------------------------------------------------

// NullTarget is a configurable in-memory sink for unit tests and dry
// runs: it can admit instantly, shed everything, or park offers on a
// gate to simulate a wedged server — all without touching a store.
type NullTarget struct {
	// ShedAll rejects every offer with a shed verdict.
	ShedAll bool
	// Gate, when non-nil, blocks every Offer until the channel is
	// closed: the wedged-target mode of the open-loop invariant test.
	Gate chan struct{}
	// PendingPolls > 0 makes admissions asynchronous: each batch
	// reports applied only after that many Applied polls.
	PendingPolls int

	mu      sync.Mutex
	offers  int
	events  int
	sheds   int
	nextTok int
	pending map[string]int
}

func (t *NullTarget) Offer(key string, evs []events.AppEvent) (OfferResult, error) {
	if t.Gate != nil {
		<-t.Gate
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.offers++
	if t.ShedAll {
		t.sheds++
		return OfferResult{Shed: true, RetryAfter: 250 * time.Millisecond}, nil
	}
	t.events += len(evs)
	if t.PendingPolls <= 0 {
		return OfferResult{Applied: true}, nil
	}
	t.nextTok++
	tok := fmt.Sprintf("nt-%d", t.nextTok)
	if t.pending == nil {
		t.pending = make(map[string]int)
	}
	t.pending[tok] = t.PendingPolls
	return OfferResult{Token: tok}, nil
}

func (t *NullTarget) Applied(token string) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	left, ok := t.pending[token]
	if !ok {
		return false, fmt.Errorf("provbench: unknown null ack %q", token)
	}
	left--
	if left <= 0 {
		delete(t.pending, token)
		return true, nil
	}
	t.pending[token] = left
	return false, nil
}

// Offers reports how many offers the target has seen.
func (t *NullTarget) Offers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.offers
}

// EventsSeen reports how many events the target admitted.
func (t *NullTarget) EventsSeen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}
