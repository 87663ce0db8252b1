// Package tenant is the multi-tenant control plane: a registry of
// namespaces sharing one cluster, each with its own traces, controls,
// admission quota and fair-share weight. "Millions of users" means many
// organizations on one deployment; the paper's business-user-authored
// controls only scale to that shape when each organization's vocabulary,
// controls and verdicts are invisible to every other.
//
// Tenancy is carried in the trace ID itself: a trace owned by tenant
// "acme" is stored as "acme::JR-1001". The default tenant is the
// identity mapping — "JR-1001" stays "JR-1001" — so every pre-tenancy
// trace, test and tool keeps working unchanged. Because the namespace
// is part of the key, cross-tenant reads are impossible by construction:
// a query scoped to one tenant cannot even name another tenant's rows.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultID is the implicit tenant every unqualified trace belongs to.
const DefaultID = "default"

// sep joins a tenant ID and a trace ID into a qualified trace ID.
const sep = "::"

// Qualify namespaces a trace ID under a tenant. The default tenant (and
// the empty tenant) is the identity, so single-tenant deployments never
// see qualified IDs.
func Qualify(tenantID, appID string) string {
	if tenantID == "" || tenantID == DefaultID || appID == "" {
		return appID
	}
	return tenantID + sep + appID
}

// Split breaks a qualified trace ID into its tenant and bare trace ID.
// Unqualified IDs belong to the default tenant.
func Split(qualified string) (tenantID, appID string) {
	if i := strings.Index(qualified, sep); i > 0 {
		return qualified[:i], qualified[i+len(sep):]
	}
	return DefaultID, qualified
}

// Owner returns the tenant a qualified trace ID belongs to.
func Owner(qualified string) string {
	t, _ := Split(qualified)
	return t
}

// IsBare reports whether a trace or control name is free of the
// namespace separator. Scoped requests may only use bare names: under
// the default tenant Qualify is the identity, so a smuggled qualified
// name would alias another tenant's keys — the one hole in "cannot even
// name another tenant's rows", closed by rejecting such names at every
// scoped boundary.
func IsBare(name string) bool { return !strings.Contains(name, sep) }

// ValidID reports whether id is usable as a tenant namespace: non-empty,
// free of the separator, and free of whitespace.
func ValidID(id string) bool {
	if id == "" || strings.Contains(id, sep) {
		return false
	}
	return !strings.ContainsAny(id, " \t\r\n/")
}

// Quota bounds one tenant's admission rate. Zero values mean unlimited
// on that axis — the default tenant starts unlimited, so tenancy is
// opt-in pressure, never a silent regression.
type Quota struct {
	// EventsPerSec is the token-bucket refill rate over admitted events.
	EventsPerSec float64 `json:"eventsPerSec,omitempty"`
	// Burst is the bucket capacity; zero defaults to one second of rate
	// (minimum 1) so short bursts ride through.
	Burst int `json:"burst,omitempty"`
	// MaxQueuedBytes caps the tenant's admitted-not-yet-flushed bytes in
	// the ingestion gateway.
	MaxQueuedBytes int64 `json:"maxQueuedBytes,omitempty"`
}

// Tenant is one namespace of the control plane.
type Tenant struct {
	// ID is the namespace key carried in qualified trace IDs.
	ID string `json:"id"`
	// Name is the human-readable organization name.
	Name string `json:"name,omitempty"`
	// Weight is the fair-share scheduling weight of the tenant's checker
	// queue; zero or negative normalizes to 1.
	Weight int `json:"weight,omitempty"`
	// Quota is the tenant's admission bound.
	Quota Quota `json:"quota"`
}

func (t Tenant) weight() int {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// bucket is one tenant's admission state: a token bucket over events
// plus a gauge of queued (admitted, unflushed) bytes.
type bucket struct {
	tokens      float64
	last        time.Time
	queuedBytes int64
}

// AdmissionStats snapshots one tenant's quota counters.
type AdmissionStats struct {
	AdmittedEvents uint64 `json:"admittedEvents"`
	RejectedEvents uint64 `json:"rejectedEvents"`
	QueuedBytes    int64  `json:"queuedBytes"`
}

// Registry holds the tenants of one node. Safe for concurrent use; the
// default tenant always exists and cannot be removed.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	buckets map[string]*bucket
	stats   map[string]*AdmissionStats
	now     func() time.Time
}

// NewRegistry builds a registry holding only the default tenant
// (unlimited quota, weight 1).
func NewRegistry() *Registry {
	r := &Registry{
		tenants: make(map[string]*Tenant),
		buckets: make(map[string]*bucket),
		stats:   make(map[string]*AdmissionStats),
		now:     time.Now,
	}
	r.tenants[DefaultID] = &Tenant{ID: DefaultID, Name: "default tenant", Weight: 1}
	return r
}

// SetClock injects a clock for tests; nil restores the wall clock.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	r.now = now
}

// Create registers a tenant. Creating an existing ID updates its name,
// weight and quota in place (an upsert — the operator's pctl flow).
func (r *Registry) Create(t Tenant) error {
	if !ValidID(t.ID) {
		return fmt.Errorf("tenant: invalid tenant ID %q", t.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.tenants[t.ID]
	if !ok {
		cp := t
		r.tenants[t.ID] = &cp
		return nil
	}
	if t.Name != "" {
		cur.Name = t.Name
	}
	if t.Weight > 0 {
		cur.Weight = t.Weight
	}
	cur.Quota = t.Quota
	// A changed rate must not strand a bucket filled under the old one.
	delete(r.buckets, t.ID)
	return nil
}

// SetQuota replaces one tenant's quota.
func (r *Registry) SetQuota(id string, q Quota) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("tenant: unknown tenant %q", id)
	}
	t.Quota = q
	delete(r.buckets, id)
	return nil
}

// Get returns a tenant by ID.
func (r *Registry) Get(id string) (Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		return Tenant{}, false
	}
	return *t, true
}

// Exists reports whether a tenant is registered.
func (r *Registry) Exists(id string) bool {
	_, ok := r.Get(id)
	return ok
}

// List returns every tenant sorted by ID.
func (r *Registry) List() []Tenant {
	r.mu.Lock()
	out := make([]Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, *t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Weight returns a tenant's fair-share weight (1 for unknown tenants, so
// schedulers never divide by zero on a race with tenant creation).
func (r *Registry) Weight(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[id]; ok {
		return t.weight()
	}
	return 1
}

// ErrOverQuota is Admit's answer to a batch the tenant's quota cannot
// take yet; Admit's retryAfter says when it can.
var ErrOverQuota = errors.New("tenant: over quota")

// LimitError rejects a batch larger than a fixed admission limit, which
// no wait lifts: a tenant's burst (tokens never refill past it) or
// queued-byte cap, or, with Tenant empty, a node's whole admission
// queue. A client must split such a batch, not retry it.
type LimitError struct {
	// Tenant names the tenant whose quota set the limit; empty for a
	// node-wide limit.
	Tenant string
	// Limit names the limit: the quota field ("burst", "maxQueuedBytes")
	// or the node's ("queue capacity").
	Limit string
	// Unit is what Size and Max count: "events" or "bytes".
	Unit      string
	Size, Max int64
}

func (e *LimitError) Error() string {
	msg := fmt.Sprintf("batch of %d %s exceeds the %s of %d %s", e.Size, e.Unit, e.Limit, e.Max, e.Unit)
	if e.Tenant != "" {
		return "tenant " + e.Tenant + ": " + msg
	}
	return msg
}

// Admit charges a batch of n events totalling size bytes against the
// tenant's quota and answers nil on admission. A batch larger than the
// tenant's burst or queued-byte cap gets a *LimitError; one the quota
// cannot take yet gets ErrOverQuota and the tenant-specific backoff: how
// long until the token bucket will have refilled enough for the batch.
// Unknown tenants admit freely (the HTTP layer rejects them before quota
// is consulted). Admitted bytes stay charged until Release.
func (r *Registry) Admit(id string, n int, size int64) (retryAfter time.Duration, err error) {
	if n <= 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, known := r.tenants[id]
	if !known {
		return 0, nil
	}
	st := r.statsLocked(id)
	q := t.Quota
	if err := q.limit(id, n, size); err != nil {
		st.RejectedEvents += uint64(n)
		return 0, err
	}
	if q.MaxQueuedBytes > 0 {
		if b := r.buckets[id]; b != nil && b.queuedBytes+size > q.MaxQueuedBytes {
			st.RejectedEvents += uint64(n)
			// Bytes drain as the gateway flushes; the bucket rate is the
			// best available backoff hint, else a short fixed one.
			if q.EventsPerSec > 0 {
				return backoff(float64(n) / q.EventsPerSec), ErrOverQuota
			}
			return 100 * time.Millisecond, ErrOverQuota
		}
	}
	if q.EventsPerSec > 0 {
		b := r.bucketLocked(id, q)
		now := r.now()
		b.tokens += now.Sub(b.last).Seconds() * q.EventsPerSec
		b.last = now
		if cap := float64(burstOf(q)); b.tokens > cap {
			b.tokens = cap
		}
		if b.tokens < float64(n) {
			st.RejectedEvents += uint64(n)
			return backoff((float64(n) - b.tokens) / q.EventsPerSec), ErrOverQuota
		}
		b.tokens -= float64(n)
	}
	if q.MaxQueuedBytes > 0 {
		r.bucketLocked(id, q).queuedBytes += size
	}
	st.AdmittedEvents += uint64(n)
	return 0, nil
}

// limit reports a batch of n events and size bytes that the quota can
// never admit, however long the tenant waits.
func (q Quota) limit(id string, n int, size int64) error {
	if burst := burstOf(q); q.EventsPerSec > 0 && n > burst {
		return &LimitError{Tenant: id, Limit: "burst", Unit: "events", Size: int64(n), Max: int64(burst)}
	}
	if q.MaxQueuedBytes > 0 && size > q.MaxQueuedBytes {
		return &LimitError{Tenant: id, Limit: "maxQueuedBytes", Unit: "bytes", Size: size, Max: q.MaxQueuedBytes}
	}
	return nil
}

// Refund undoes an earlier Admit — tokens and queued bytes return to the
// bucket, the admitted-event count rolls back. The gateway uses it when a
// multi-tenant batch is rejected after some of its tenants were already
// charged: a rejected batch must not consume anyone's quota.
func (r *Registry) Refund(id string, n int, size int64) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, known := r.tenants[id]
	if !known {
		return
	}
	q := t.Quota
	if b := r.buckets[id]; b != nil {
		if q.EventsPerSec > 0 {
			b.tokens += float64(n)
			if cap := float64(burstOf(q)); b.tokens > cap {
				b.tokens = cap
			}
		}
		b.queuedBytes -= size
		if b.queuedBytes < 0 {
			b.queuedBytes = 0
		}
	}
	if st := r.stats[id]; st != nil {
		if st.AdmittedEvents >= uint64(n) {
			st.AdmittedEvents -= uint64(n)
		} else {
			st.AdmittedEvents = 0
		}
	}
}

// Release returns queued bytes to the tenant's budget once the gateway
// has flushed them.
func (r *Registry) Release(id string, size int64) {
	if size <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.buckets[id]; b != nil {
		b.queuedBytes -= size
		if b.queuedBytes < 0 {
			b.queuedBytes = 0
		}
	}
}

// Stats returns per-tenant admission counters keyed by tenant ID.
func (r *Registry) Stats() map[string]AdmissionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]AdmissionStats, len(r.stats))
	for id, st := range r.stats {
		s := *st
		if b := r.buckets[id]; b != nil {
			s.QueuedBytes = b.queuedBytes
		}
		out[id] = s
	}
	return out
}

func (r *Registry) bucketLocked(id string, q Quota) *bucket {
	b := r.buckets[id]
	if b == nil {
		b = &bucket{tokens: float64(burstOf(q)), last: r.now()}
		r.buckets[id] = b
	}
	return b
}

func (r *Registry) statsLocked(id string) *AdmissionStats {
	st := r.stats[id]
	if st == nil {
		st = &AdmissionStats{}
		r.stats[id] = st
	}
	return st
}

// burstOf resolves a quota's bucket capacity: explicit burst, else one
// second of rate, floored at 1.
func burstOf(q Quota) int {
	if q.Burst > 0 {
		return q.Burst
	}
	if b := int(q.EventsPerSec); b > 0 {
		return b
	}
	return 1
}

// backoff rounds a fractional-second deficit up to a millisecond floor so
// Retry-After never degenerates to zero.
func backoff(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
