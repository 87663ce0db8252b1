// Package api is provd's HTTP contract, written down once: the JSON shapes
// the service answers with and the small client every in-repo caller
// reaches it through. internal/httpapi encodes with these types; cmd/pctl,
// ingest.HTTPSender, provbench.HTTPTarget and cluster.Router send through
// Client and decode with the same types. An application event travels as
// events.AppEvent itself (its JSON tags are the wire form). The package
// imports only the standard library, so every layer may depend on it.
//
// A client that sends the RFC 7240 request header "Prefer: wait=N" on
// POST /events or GET /ingest/ack asks the server to hold its answer until
// the admitted batch is applied, for at most N seconds and never longer
// than MaxAckWait; the answer is the usual Ack, "applied" or, when the wait
// ran out first, "pending". SetPreferWait asks for the longest wait and
// PreferWait reads what a request asked for.
//
// NewServer builds the http.Server both provd and provrouter listen with,
// so the limits a peer meets are declared here beside MaxAckWait.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Timeout bounds one whole call (connect, request, response body) of the
// default HTTP client. Callers cut a call shorter through its context.
const Timeout = 30 * time.Second

// MaxEventBody caps one POST /events request body, and the replies sized
// like one (acks, error envelopes, broadcast answers).
const MaxEventBody = 8 << 20

// MaxReplyBody caps any answer a client buffers whole — a cluster-wide
// /compliance or /stats document at the largest.
const MaxReplyBody = 64 << 20

// MaxAckWait caps how long the server holds an ingest answer for a
// client that sent "Prefer: wait=N". It stays well under Timeout, so a
// held answer arrives before the client gives up on it.
const MaxAckWait = 10 * time.Second

// The limits NewServer puts on every connection of provd and provrouter.
const (
	// ReadHeaderTimeout drops a client that does not finish its header.
	ReadHeaderTimeout = 10 * time.Second
	// WriteTimeout bounds a request from its header to its answer. It
	// exceeds Timeout, so it only ends answers no client still waits for,
	// and so MaxAckWait, so a held ingest answer always gets out.
	WriteTimeout = Timeout + MaxAckWait
	// ReadTimeout bounds reading a whole request, a MaxEventBody batch
	// included. Go cancels a request's context once it passes, handler
	// running or not, so it is no shorter than WriteTimeout.
	ReadTimeout = WriteTimeout
	// IdleTimeout closes a keep-alive connection left unused.
	IdleTimeout = 2 * time.Minute
	// MaxHeaderBytes caps a request's header; the service reads a few
	// short headers (X-Tenant, Ingest-Key, Prefer).
	MaxHeaderBytes = 64 << 10
)

// NewServer returns the http.Server provd and provrouter listen with:
// h served on addr under the limits above.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		WriteTimeout:      WriteTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
}

var defaultHTTP = &http.Client{Timeout: Timeout}

// SetPreferWait asks, on h, for the longest wait the server grants:
// "Prefer: wait=N" with N = MaxAckWait in RFC 7240's whole seconds.
func SetPreferWait(h http.Header) {
	h.Set("Prefer", "wait="+strconv.Itoa(int(MaxAckWait/time.Second)))
}

// PreferWait reads the wait preference of a request's Prefer headers
// (RFC 7240): how long the client asked the server to hold its answer,
// capped at MaxAckWait, or 0 when it asked for no wait.
func PreferWait(h http.Header) time.Duration {
	for _, line := range h.Values("Prefer") {
		for _, pref := range strings.Split(line, ",") {
			pref, _, _ = strings.Cut(pref, ";") // preference parameters do not apply to wait
			name, val, ok := strings.Cut(pref, "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(name), "wait") {
				continue
			}
			secs, err := strconv.Atoi(strings.Trim(strings.TrimSpace(val), `"`))
			if err != nil || secs <= 0 {
				return 0
			}
			return min(time.Duration(secs)*time.Second, MaxAckWait)
		}
	}
	return 0
}

// Client reaches one provd (or provrouter) base URL.
type Client struct {
	// Base is the server base URL, e.g. "http://localhost:8341".
	Base string
	// Tenant, when set, scopes every request with the X-Tenant header;
	// empty is the operator's global view.
	Tenant string
	// HTTP is the transport; nil uses a shared client bounded by Timeout.
	HTTP *http.Client
}

// Do sends one request and returns the raw response; the caller closes
// its body. uri is the path and query. hdr, when non-nil, becomes the
// request's header map (Do owns it from here on).
func (c Client) Do(ctx context.Context, method, uri string, hdr http.Header, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+uri, body)
	if err != nil {
		return nil, err
	}
	if hdr != nil {
		req.Header = hdr
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	hc := c.HTTP
	if hc == nil {
		hc = defaultHTTP
	}
	return hc.Do(req)
}

// Fetch is Do for an answer small enough to buffer: it reads at most
// limit bytes of the body and closes it.
func (c Client) Fetch(ctx context.Context, method, uri string, hdr http.Header, body io.Reader, limit int64) (*http.Response, []byte, error) {
	resp, err := c.Do(ctx, method, uri, hdr, body)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

// JSON sends in as a JSON body (none when in is nil) and decodes a 200
// answer into out (discarded when out is nil). Any other status comes
// back as an *Error carrying the server's envelope.
func (c Client) JSON(ctx context.Context, method, uri string, in, out any) error {
	var hdr http.Header
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		hdr, body = JSONHeader(), bytes.NewReader(raw)
	}
	resp, data, err := c.Fetch(ctx, method, uri, hdr, body, MaxReplyBody)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// JSONHeader returns a fresh header map declaring a JSON body.
func JSONHeader() http.Header {
	return http.Header{"Content-Type": {"application/json"}}
}

// Error is the envelope of every non-2xx JSON answer, and the Go error a
// client returns for one. Fields beyond Message are set only by the
// answers that document them.
type Error struct {
	// Status is the HTTP status code.
	Status int `json:"-"`
	// RetryAfter is the backoff hint: the Retry-After header (whole
	// seconds, rounded up when written), else RetryAfterMs.
	RetryAfter time.Duration `json:"-"`

	Message string `json:"error"`
	// RetryAfterMs is the millisecond-precision hint of a 429.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
	// Shard names the unreachable shard of a router 503.
	Shard string `json:"shard,omitempty"`
	// ShardErrors maps shard to failure when no shard answered a scatter.
	ShardErrors map[string]string `json:"shardErrors,omitempty"`
	// Tenant names the tenant whose quota refused the batch (429, or 413
	// for a batch past the tenant's burst or byte cap).
	Tenant string `json:"tenant,omitempty"`
}

func (e *Error) Error() string {
	if e.Message != "" {
		return "server: " + e.Message
	}
	return fmt.Sprintf("server returned %d %s", e.Status, http.StatusText(e.Status))
}

// DecodeError reads the envelope of a non-2xx answer. A body that is not
// the envelope leaves Message empty; the status still tells the story.
func DecodeError(resp *http.Response, body []byte) *Error {
	e := &Error{}
	_ = json.Unmarshal(body, e) // not every answer is JSON; see above
	e.Status = resp.StatusCode
	e.RetryAfter = time.Duration(e.RetryAfterMs) * time.Millisecond
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// Write answers with the envelope, and with a Retry-After header when
// the error carries a backoff hint.
func (e *Error) Write(w http.ResponseWriter) {
	if e.RetryAfter > 0 {
		secs := (e.RetryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	WriteJSON(w, e.Status, e)
}

// WriteError answers status with the bare {"error": ...} envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	(&Error{Status: status, Message: err.Error()}).Write(w)
}

// WriteJSON answers status with v as an indented JSON document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; a broken connection has no one to tell
}

// WriteRaw answers status with an already encoded JSON body (a shard's
// answer passed through).
func WriteRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // as WriteJSON
}

// State is an ingest ack's lifecycle position.
type State string

const (
	// StatePending: admitted, not yet flushed through the sink.
	StatePending State = "pending"
	// StateApplied: flushed; per-event failures (if any) are final.
	StateApplied State = "applied"
)

// EventError reports one event's terminal ingestion failure, indexed by
// the event's position in the CLIENT batch.
type EventError struct {
	Index int    `json:"index"`
	Err   string `json:"error"`
}

// Ack is the externally visible state of one admitted batch: the 202
// answer of POST /events and the answer of GET /ingest/ack. A request that
// sent "Prefer: wait=N" gets it once the batch is applied or the wait ran
// out, whichever came first.
type Ack struct {
	// Token addresses the ack for polling.
	Token string `json:"token,omitempty"`
	// Key is the batch's idempotency key (server-assigned when the client
	// sent none).
	Key string `json:"key"`
	// State is pending until every span of the batch has been flushed.
	State State `json:"state"`
	// Events is the batch size.
	Events int `json:"events"`
	// Deduped marks a response to a redelivered batch: the work was
	// already admitted (or applied) under the same key.
	Deduped bool `json:"deduped,omitempty"`
	// EventErrors lists per-event terminal failures, in batch order.
	EventErrors []EventError `json:"eventErrors,omitempty"`
	// Error is a batch-level sink failure message (rare: the pipeline
	// reports per-event errors; this covers wholesale failures).
	Error string `json:"error,omitempty"`
}

// Control is a control deployment. Shadow=true on POST deploys the text
// as the shadow candidate of an existing control instead of replacing its
// live version.
type Control struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Text    string `json:"text,omitempty"`
	Version int    `json:"version,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Shadow  bool   `json:"shadow,omitempty"`
	// ShadowVersion reports the attached candidate's version (responses).
	ShadowVersion int `json:"shadowVersion,omitempty"`
}

// Outcome is one control's verdict on one trace (/compliance).
type Outcome struct {
	Control string              `json:"control"`
	AppID   string              `json:"appId"`
	Verdict string              `json:"verdict"`
	Alerts  []string            `json:"alerts,omitempty"`
	Notes   []string            `json:"notes,omitempty"`
	Binds   map[string][]string `json:"bindings,omitempty"`
}

// KPI summarizes one control across every checked trace (/dashboard).
// The counts of one control add up exactly across shards — each shard
// counts a disjoint trace population — and the rates follow from the
// counts, so SetRates is the one place they are computed.
type KPI struct {
	ControlID     string
	Name          string
	Total         int
	Satisfied     int
	Violated      int
	Indeterminate int
	NotApplicable int
	// ComplianceRate is Satisfied / (Satisfied + Violated); NaN-free: 0
	// when no definite verdict exists.
	ComplianceRate float64
	// DefiniteRate is (Satisfied + Violated) / Total: how often the
	// control could decide at all — the visibility signal of E3.
	DefiniteRate float64
}

// SetRates recomputes the two rates from the verdict counts.
func (k *KPI) SetRates() {
	k.ComplianceRate, k.DefiniteRate = 0, 0
	def := k.Satisfied + k.Violated
	if def > 0 {
		k.ComplianceRate = float64(k.Satisfied) / float64(def)
	}
	if k.Total > 0 {
		k.DefiniteRate = float64(def) / float64(k.Total)
	}
}

// Graph is one trace's provenance subgraph (/graph).
type Graph struct {
	AppID string `json:"appId"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// Node is one provenance node (/graph, /query).
type Node struct {
	ID    string            `json:"id"`
	Class string            `json:"class"`
	Type  string            `json:"type"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Edge is one provenance edge (/graph).
type Edge struct {
	ID     string `json:"id"`
	Type   string `json:"type"`
	Source string `json:"source"`
	Target string `json:"target"`
}

// Apps is a handoff trace list (POST /handoff/export, /handoff/release).
type Apps struct {
	Apps []string `json:"apps"`
}

// Imported is the answer of POST /handoff/import.
type Imported struct {
	Inserted int `json:"inserted"`
	Skipped  int `json:"skipped"`
}
