package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/tenant"
)

// Router is the stateless front door of a sharded provd cluster: it owns
// the consistent-hash ring, splits ingest batches by trace owner, proxies
// single-trace reads to the owning shard, and scatter-gathers cross-trace
// queries with the merge layer in merge.go. "Stateless" means no durable
// state — the ring and the bounded composite-ack table rebuild from
// configuration and client retries; a restarted router serves the next
// request correctly.
//
// Every path a shard serves is listed once in routes, with the shape the
// router gives it; every request to a shard goes through call, under the
// inbound request's context.
//
// Failure semantics: the router does not health-check shards out of band.
// A dead shard is discovered by the failing request itself and surfaces
// as 503 + Retry-After — but only for operations that touch that shard's
// key range. Traces owned by live shards keep flowing; this is the
// cluster-level analogue of the single-node gateway shedding one
// admission queue.
type Router struct {
	// http carries the shard calls; nil is the shared api.Timeout client
	// (tests shorten it).
	http *http.Client
	mux  *http.ServeMux

	mu     sync.RWMutex
	ring   *Ring
	urls   map[string]string // shard name -> base URL
	moving map[string]bool   // traces mid-handoff: writes shed with 503

	// ingestMu is held shared for the lifetime of every /events request
	// (shed check through fan-out) and exclusively by the handoff cutover:
	// after setMoving, acquiring it waits out every ingest that passed the
	// shed check before it went up, so none is still forwarding via the
	// old ring when the tail export runs.
	ingestMu sync.RWMutex

	ackMu    sync.Mutex
	acks     map[string]*compositeAck
	ackOrder []string // FIFO eviction
	ackSeq   uint64
	ackCap   int

	handoffMu sync.Mutex // serializes Join/Leave/ForceRemove

	// testHookPreSwap, when set, runs after the tail export and before the
	// ring swap — the window where the cutover shed must still be up
	// (tests only).
	testHookPreSwap func()
}

// Shard names one cluster member and its base URL.
type Shard struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// compositeAck maps one router ack token to the per-shard acks a split
// batch produced, with each part remembering which client batch indices
// it carried so event errors can be mapped back.
type compositeAck struct {
	events int
	parts  []ackPart
}

type ackPart struct {
	shard string
	token string
	idx   []int // client batch positions of this part's events
	// final is the part's ack when its shard answered it applied: a poll
	// answers from it and asks the shard nothing (token is then unset).
	final *api.Ack
}

// DefaultAckCap bounds the composite-ack table. Evicted tokens answer
// 404 on poll, exactly like a restarted single-node gateway.
const DefaultAckCap = 4096

// handler serves one request in one of the router's shapes.
type handler func(*Router, http.ResponseWriter, *http.Request)

// route gives one mux pattern its shape. dispatch reads the columns left
// to right: the first that applies serves the request.
type route struct {
	pattern string
	// write serves every non-GET request (a mutation that must reach all
	// shards); nil means the method does not change the shape.
	write handler
	// byApp sends a request naming one trace (?app=) to that trace's owner.
	byApp bool
	// anyIf names a query parameter that makes any one shard's answer
	// representative.
	anyIf string
	// read serves everything else.
	read handler
}

// routes is the router's whole surface: every pattern a provd node serves
// (see the route-coverage test for the deliberate omissions) plus the
// router's own /cluster endpoints.
var routes = []route{
	{pattern: "/events", read: (*Router).handleEvents},
	{pattern: "/ingest/ack", read: (*Router).handleAck},
	{pattern: "/ingest/stats", read: scatterFold("stats", foldStats)},
	{pattern: "/stats", read: scatterFold("stats", foldStats)},
	{pattern: "/segments", read: scatterFold("array", foldConcat)},
	{pattern: "/violations", read: scatterFold("array", foldConcat)},
	{pattern: "/traces", read: scatterFold("array", foldConcat)},
	// Each shard checks its own traces; every node lives on exactly one
	// shard, so concatenation is a disjoint union.
	{pattern: "/compliance", byApp: true, read: scatterFold("array", foldConcat)},
	{pattern: "/query", byApp: true, anyIf: "explain", read: scatterFold("array", foldConcat)},
	{pattern: "/graph", byApp: true, read: (*Router).needApp},
	{pattern: "/graph.dot", byApp: true, read: (*Router).needApp},
	{pattern: "/rows", byApp: true, read: (*Router).needApp},
	// Deployments go everywhere, so any live shard's list is authoritative.
	{pattern: "/controls", write: (*Router).broadcast, read: (*Router).anyShard},
	{pattern: "/controls/", read: (*Router).broadcast},
	// Quotas and weights are admission state, enforced where the traces live.
	{pattern: "/tenants", write: (*Router).broadcast, read: scatterFold("tenant", foldTenants)},
	{pattern: "/dashboard", read: scatterFold("KPI", foldKPIs)},
	{pattern: "/cluster", read: (*Router).handleCluster},
	{pattern: "/cluster/join", read: (*Router).handleJoin},
	{pattern: "/cluster/leave", read: (*Router).handleLeave},
}

// NewRouter builds a router over the given shards. vnodes tunes ring
// granularity (<=0 uses DefaultVnodes).
func NewRouter(shards []Shard, vnodes int) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	names := make([]string, len(shards))
	urls := make(map[string]string, len(shards))
	for i, sh := range shards {
		if sh.URL == "" {
			return nil, fmt.Errorf("cluster: shard %q has no URL", sh.Name)
		}
		names[i] = sh.Name
		urls[sh.Name] = strings.TrimRight(sh.URL, "/")
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		mux:    http.NewServeMux(),
		ring:   ring,
		urls:   urls,
		moving: map[string]bool{},
		acks:   map[string]*compositeAck{},
		ackCap: DefaultAckCap,
	}
	for _, rte := range routes {
		rt.mux.HandleFunc(rte.pattern, func(w http.ResponseWriter, r *http.Request) { rt.dispatch(rte, w, r) })
	}
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) dispatch(rte route, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case rte.write != nil && r.Method != http.MethodGet:
		rte.write(rt, w, r)
	case rte.byApp && q.Get("app") != "":
		rt.ownerProxy(w, r, q.Get("app"))
	case rte.anyIf != "" && q.Get(rte.anyIf) != "":
		rt.anyShard(w, r)
	default:
		rte.read(rt, w, r)
	}
}

// topology returns a consistent (ring, urls) pair for one request.
func (rt *Router) topology() (*Ring, map[string]string) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring, rt.urls
}

// call is the one way the router reaches a shard. Every call runs under
// the inbound request's context — a client that hangs up stops paying for
// its fan-out — and is bounded by api.Timeout whatever the context says,
// so a shard that accepts the connection and never answers costs one
// deadline, not a goroutine. The caller closes the response body.
func (rt *Router) call(ctx context.Context, shardURL, method, uri string, hdr http.Header, body io.Reader) (*http.Response, error) {
	return api.Client{Base: shardURL, HTTP: rt.http}.Do(ctx, method, uri, hdr, body)
}

// fetch is call for an answer the router buffers: status and at most
// limit bytes of body.
func (rt *Router) fetch(ctx context.Context, shardURL, method, uri string, hdr http.Header, body io.Reader, limit int64) (int, []byte, error) {
	resp, err := rt.call(ctx, shardURL, method, uri, hdr, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp.StatusCode, data, err
}

// shardHeader builds the headers of a request the router originates: the
// caller's tenant scope, so a scoped fan-out gathers scoped answers, and
// the content type of a JSON body.
func shardHeader(scope string, jsonBody bool) http.Header {
	hdr := http.Header{}
	if jsonBody {
		hdr = api.JSONHeader()
	}
	if scope != "" {
		hdr.Set("X-Tenant", scope)
	}
	return hdr
}

// statusErr turns a shard's non-200 answer into an error naming it.
func statusErr(status int, body []byte) error {
	s := strings.Join(strings.Fields(string(body)), " ")
	if len(s) > 300 {
		s = s[:300]
	}
	return fmt.Errorf("status %d: %s", status, s)
}

// shardUnavailable answers for a shard the router could not reach: 503
// with a short Retry-After, scoped to the key range the request touched.
func shardUnavailable(w http.ResponseWriter, shard string, err error) {
	(&api.Error{
		Status: http.StatusServiceUnavailable, RetryAfter: time.Second,
		Message: fmt.Sprintf("shard %s unavailable: %v", shard, err), Shard: shard,
	}).Write(w)
}

// handleEvents splits one client batch by ring owner and fans the parts
// to their shards concurrently. Per-trace ordering is preserved: all
// events of a trace land in one part (owner is a pure function of the
// trace ID), the part keeps client batch order, and the shard's gateway
// pins each trace to one admission queue.
//
// The client's Prefer header goes to every part, so with "Prefer: wait=N"
// each shard answers once its part is applied (or N runs out) and the
// composite answer is pushed, not polled for.
//
// Response mapping:
//   - every part admitted        -> 202 with a composite ack token and the
//     parts' states folded as /ingest/ack folds them: a client that polls
//     by re-sending its Ingest-Key sees "applied" once every shard's part
//     is, exactly as it would from a single node. A part answered
//     applied is kept, so its poll asks the shard nothing
//   - any part 429               -> 429, Retry-After = max over parts
//   - any part 503 / unreachable -> 503 for this batch only (its traces
//     touch the dead range); batches for live shards are unaffected
//   - any part 4xx               -> that status propagated
//
// A rejected part decides the answer, so it cuts short the parts still
// waiting for their batches to apply (fanOut): admission control answers
// at once, never after a wait. A mixed outcome (some parts admitted, then
// a 429/503) is safe: the client retries the whole batch under the same
// Ingest-Key and the already-admitted shards dedup their parts.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	// Shared with the cutover drain barrier; see Router.ingestMu.
	rt.ingestMu.RLock()
	defer rt.ingestMu.RUnlock()
	r.Body = http.MaxBytesReader(w, r.Body, api.MaxEventBody)
	var raw []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			api.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(raw) == 0 {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	// A tenant-scoped batch is qualified by the SHARD's httpapi layer, so
	// the router must hash the same qualified ID the shard will store —
	// otherwise scoped writes and operator reads would land on different
	// ring members.
	scope := r.Header.Get("X-Tenant")
	apps := make([]string, len(raw))
	for i, ev := range raw {
		var meta struct {
			AppID string `json:"appId"`
		}
		if err := json.Unmarshal(ev, &meta); err != nil {
			api.WriteError(w, http.StatusBadRequest, fmt.Errorf("event %d: %v", i, err))
			return
		}
		apps[i] = tenant.Qualify(scope, meta.AppID)
		if rt.isMoving(apps[i]) {
			// Cutover shed: this trace is mid-handoff; admitting the write
			// on either side would race the tail export.
			(&api.Error{
				Status: http.StatusServiceUnavailable, RetryAfter: time.Second,
				Message: fmt.Sprintf("trace %s is being rebalanced", apps[i]),
			}).Write(w)
			return
		}
	}
	// The ring is read only after every shed check passed. A cutover lifts
	// its shed after swapping the ring, so a request that found the shed
	// down either got in before it went up (the drain barrier then waits
	// for this fan-out) or sees the swapped ring here — never the old ring
	// with the shed already lifted, which would route an acked write to a
	// source about to tombstone it.
	ring, urls := rt.topology()

	type part struct {
		shard string
		idx   []int
		evs   []json.RawMessage
		partCall
	}
	byOwner := map[string]*part{}
	var parts []*part // deterministic fan-out order
	for i, ev := range raw {
		owner := ring.OwnerName(apps[i])
		p := byOwner[owner]
		if p == nil {
			p = &part{shard: owner}
			byOwner[owner] = p
			parts = append(parts, p)
		}
		p.idx = append(p.idx, i)
		p.evs = append(p.evs, ev)
	}

	key := r.Header.Get("Ingest-Key")
	res := fanOut(r.Context(), len(parts), func(ctx context.Context, i int) partCall {
		p := parts[i]
		body, _ := json.Marshal(p.evs) // raw messages the decoder just validated
		hdr := shardHeader(scope, true)
		forwardPrefer(hdr, r)
		if key != "" {
			// Derived key: same client key + same split -> same part key,
			// so a client retry dedups on shards that already admitted.
			hdr.Set("Ingest-Key", key+"#"+p.shard)
		}
		return rt.fetchPart(ctx, urls[p.shard], http.MethodPost, "/events", hdr, bytes.NewReader(body))
	}, admitted)
	for i, p := range parts {
		p.partCall = res[i]
	}

	// Order of precedence: unreachable/503 (dead range), then 429 (back
	// off), then other errors, then success. A part cut short by another
	// part's rejection has no answer of its own.
	var retryAfterMs int64
	for _, p := range parts {
		if errors.Is(p.err, errAbandoned) {
			continue
		}
		if p.err != nil {
			shardUnavailable(w, p.shard, p.err)
			return
		}
		if p.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
			api.WriteRaw(w, p.status, p.body)
			return
		}
		if p.status == http.StatusTooManyRequests {
			var hint api.Error
			_ = json.Unmarshal(p.body, &hint) // no hint reads as zero: the 429 passes through below
			retryAfterMs = max(retryAfterMs, hint.RetryAfterMs)
		}
	}
	if retryAfterMs > 0 {
		(&api.Error{
			Status: http.StatusTooManyRequests, Message: "cluster overloaded: a shard shed this batch",
			RetryAfter: time.Duration(retryAfterMs) * time.Millisecond, RetryAfterMs: retryAfterMs,
		}).Write(w)
		return
	}
	for _, p := range parts {
		if p.err == nil && !admitted(p.status) {
			api.WriteRaw(w, p.status, p.body)
			return
		}
	}
	comp := &compositeAck{events: len(raw)}
	var fold ackFold
	deduped := true
	for _, p := range parts {
		part := ackPart{shard: p.shard, idx: p.idx}
		var ack api.Ack
		if err := json.Unmarshal(p.body, &ack); err != nil {
			api.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: bad ack: %v", p.shard, err))
			return
		}
		if ack.State == api.StateApplied {
			// A poll folds only the failures: it never reports deduped.
			part.final = &api.Ack{State: api.StateApplied, EventErrors: ack.EventErrors, Error: ack.Error}
		} else {
			part.token = ack.Token
		}
		deduped = deduped && ack.Deduped
		comp.parts = append(comp.parts, part)
		fold.add(part, ack)
	}
	api.WriteJSON(w, http.StatusAccepted, fold.into(map[string]any{
		"token": rt.storeAck(comp), "key": key, "events": len(raw),
		"deduped": deduped, "shards": len(comp.parts),
	}))
}

// ackFold folds the shard acks behind one split batch into the composite
// answer — the 202 of POST /events and GET /ingest/ack alike: applied only
// when every part is applied, deduped event counts summed, per-event
// errors mapped back to client batch positions.
type ackFold struct {
	pending  bool // some part is not applied yet
	deduped  int
	evErrs   []map[string]any
	batchErr string // the first part's batch-level failure
}

func (f *ackFold) add(p ackPart, ack api.Ack) {
	f.pending = f.pending || ack.State != api.StateApplied
	if ack.Deduped {
		f.deduped += ack.Events
	}
	if ack.Error != "" && f.batchErr == "" {
		f.batchErr = "shard " + p.shard + ": " + ack.Error
	}
	for _, ee := range ack.EventErrors {
		idx := ee.Index
		if idx >= 0 && idx < len(p.idx) {
			idx = p.idx[idx] // part position -> client batch position
		}
		f.evErrs = append(f.evErrs, map[string]any{"index": idx, "error": ee.Err, "shard": p.shard})
	}
}

// into writes the folded fields onto the answer and returns it.
func (f *ackFold) into(out map[string]any) map[string]any {
	out["state"] = api.StateApplied
	if f.pending {
		out["state"] = api.StatePending
	}
	if f.deduped > 0 {
		out["dedupedEvents"] = f.deduped
	}
	if len(f.evErrs) > 0 {
		sort.Slice(f.evErrs, func(i, j int) bool {
			return f.evErrs[i]["index"].(int) < f.evErrs[j]["index"].(int)
		})
		out["eventErrors"] = f.evErrs
	}
	if f.batchErr != "" {
		out["error"] = f.batchErr
	}
	return out
}

func (rt *Router) storeAck(c *compositeAck) string {
	rt.ackMu.Lock()
	defer rt.ackMu.Unlock()
	rt.ackSeq++
	token := "rt-" + strconv.FormatUint(rt.ackSeq, 10)
	rt.acks[token] = c
	rt.ackOrder = append(rt.ackOrder, token)
	for len(rt.ackOrder) > rt.ackCap {
		delete(rt.acks, rt.ackOrder[0])
		rt.ackOrder = rt.ackOrder[1:]
	}
	return token
}

// handleAck polls every shard ack behind one composite token concurrently,
// forwarding the client's Prefer header, and folds the parts (ackFold) in
// part order; the first failing part, in that order, is the answer.
func (rt *Router) handleAck(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("token")
	if token == "" {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("token parameter required"))
		return
	}
	rt.ackMu.Lock()
	comp := rt.acks[token]
	rt.ackMu.Unlock()
	if comp == nil {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown ack token %q", token))
		return
	}
	_, urls := rt.topology()
	res := fanOut(r.Context(), len(comp.parts), func(ctx context.Context, i int) partCall {
		p := comp.parts[i]
		u, ok := urls[p.shard]
		if p.final != nil || !ok {
			// Applied at admission, or the shard left the cluster after
			// admitting: its part was flushed before the handoff released
			// the traces.
			return partCall{status: http.StatusOK}
		}
		hdr := http.Header{}
		forwardPrefer(hdr, r)
		return rt.fetchPart(ctx, u, http.MethodGet, "/ingest/ack?token="+url.QueryEscape(p.token), hdr, nil)
	}, func(status int) bool { return status == http.StatusOK })
	var fold ackFold
	for i, p := range comp.parts {
		c := res[i]
		ack := api.Ack{State: api.StateApplied}
		switch {
		case errors.Is(c.err, errAbandoned):
			continue // another part failed: its answer follows
		case c.err != nil:
			shardUnavailable(w, p.shard, c.err)
			return
		case c.status != http.StatusOK:
			api.WriteRaw(w, c.status, c.body)
			return
		case p.final != nil:
			ack = *p.final
		case c.body != nil:
			if err := json.Unmarshal(c.body, &ack); err != nil {
				api.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: bad ack: %v", p.shard, err))
				return
			}
		}
		fold.add(p, ack)
	}
	api.WriteJSON(w, http.StatusOK, fold.into(map[string]any{
		"token": token, "events": comp.events, "shards": len(comp.parts),
	}))
}

// partCall is one shard's answer to one part of a fanned-out request.
type partCall struct {
	status int
	body   []byte
	err    error
}

// errAbandoned marks a part call cut short because another part's answer
// already decided the request.
var errAbandoned = errors.New("cluster: part abandoned: another part decided the answer")

// fanOut runs call for parts 0..n-1 concurrently and returns their
// answers in part order. The first part that fails or answers a status
// ok refuses cancels the calls still running: its answer decides the
// request, and a part waiting for its batch to apply (Prefer: wait) must
// not hold that answer up. A call cut short that way comes back with
// errAbandoned.
func fanOut(ctx context.Context, n int, call func(ctx context.Context, i int) partCall, ok func(status int) bool) []partCall {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	out := make([]partCall, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := call(ctx, i)
			if c.err != nil && errors.Is(context.Cause(ctx), errAbandoned) {
				c.err = errAbandoned
			} else if c.err != nil || !ok(c.status) {
				cancel(errAbandoned)
			}
			out[i] = c
		}(i)
	}
	wg.Wait()
	return out
}

// fetchPart is fetch for one part of a fanned-out request.
func (rt *Router) fetchPart(ctx context.Context, shardURL, method, uri string, hdr http.Header, body io.Reader) partCall {
	status, data, err := rt.fetch(ctx, shardURL, method, uri, hdr, body, api.MaxEventBody)
	return partCall{status: status, body: data, err: err}
}

// forwardPrefer copies the client's Prefer header onto a shard request, so
// a client asking to wait gets each shard's answer after the apply.
func forwardPrefer(hdr http.Header, r *http.Request) {
	if v := r.Header.Values("Prefer"); len(v) > 0 {
		hdr["Prefer"] = v
	}
}

// admitted reports whether a shard's /events status admitted its part.
func admitted(status int) bool { return status == http.StatusAccepted }

// scatter fans one GET to every shard and returns the bodies of those
// that answered 200; unreachable or failing shards land in errs. scope
// carries the caller's X-Tenant through, so a tenant-scoped scatter
// merges tenant-scoped answers.
func (rt *Router) scatter(ctx context.Context, uri, scope string) (bodies map[string][]byte, errs map[string]string) {
	ring, urls := rt.topology()
	names := ring.Names()
	type res struct {
		name string
		body []byte
		err  error
	}
	ch := make(chan res, len(names))
	for _, name := range names {
		go func(name string) {
			status, body, err := rt.fetch(ctx, urls[name], http.MethodGet, uri, shardHeader(scope, false), nil, api.MaxReplyBody)
			if err == nil && status != http.StatusOK {
				err = statusErr(status, body)
			}
			ch <- res{name, body, err}
		}(name)
	}
	bodies, errs = map[string][]byte{}, map[string]string{}
	for range names {
		r := <-ch
		if r.err != nil {
			errs[r.name] = r.err.Error()
			continue
		}
		bodies[r.name] = r.body
	}
	return bodies, errs
}

// scatterFold is the cross-trace read shape: scatter the request, decode
// each shard's document as a T (what names it in errors), and fold the
// documents, in shard-name order, into the single-node answer.
//
// The failure envelope is the same on every such route. A shard that
// failed or answered garbage is left out and reported: an object-shaped
// answer carries {responded, shardErrors} under its "cluster" key; an
// array-shaped one keeps the single-node shape, so the report rides in
// the X-Shard-Errors header — a 200 with that header set is a degraded
// answer, not a complete one. Only when no shard produced a usable
// document is the answer 503, never an empty 200.
func scatterFold[T any](what string, fold func(shards []string, docs []T) any) handler {
	return func(rt *Router, w http.ResponseWriter, r *http.Request) {
		bodies, errs := rt.scatter(r.Context(), r.URL.RequestURI(), r.Header.Get("X-Tenant"))
		shards := make([]string, 0, len(bodies))
		for name := range bodies {
			shards = append(shards, name)
		}
		sort.Strings(shards)
		docs := make([]T, 0, len(shards))
		for _, name := range shards {
			var doc T
			if err := json.Unmarshal(bodies[name], &doc); err != nil {
				errs[name] = "bad " + what + " document: " + err.Error()
				continue
			}
			shards[len(docs)] = name
			docs = append(docs, doc)
		}
		shards = shards[:len(docs)]
		if len(docs) == 0 {
			(&api.Error{
				Status: http.StatusServiceUnavailable, Message: "no shard responded", ShardErrors: errs,
			}).Write(w)
			return
		}
		out := fold(shards, docs)
		if doc, ok := out.(map[string]any); ok {
			env := map[string]any{"responded": shards}
			if len(errs) > 0 {
				env["shardErrors"] = errs
			}
			doc["cluster"] = env
		} else if len(errs) > 0 {
			b, _ := json.Marshal(errs) // a string map always encodes
			w.Header().Set("X-Shard-Errors", string(b))
		}
		api.WriteJSON(w, http.StatusOK, out)
	}
}

// foldStats merges stats documents with the merge layer: counters sum,
// gauges max, latency summaries fold.
func foldStats(_ []string, docs []map[string]any) any { return MergeStats(docs) }

// foldConcat concatenates per-shard arrays, tagging each object element
// with the shard it came from.
func foldConcat(shards []string, docs [][]any) any {
	out := []any{}
	for i, arr := range docs {
		for _, el := range arr {
			if obj, ok := el.(map[string]any); ok {
				obj["shard"] = shards[i]
			}
			out = append(out, el)
		}
	}
	return out
}

// foldTenants merges per-shard tenant lists by ID. Config (name, weight,
// quota) is broadcast-identical on every shard, so the first responder's
// copy stands; the admission counters are per-shard tallies and fold.
func foldTenants(_ []string, docs [][]map[string]any) any {
	merged := map[string]map[string]any{}
	var order []string
	for _, arr := range docs {
		for _, t := range arr {
			id, _ := t["id"].(string)
			m, ok := merged[id]
			if !ok {
				merged[id] = t
				order = append(order, id)
				continue
			}
			sa, aok := m["stats"].(map[string]any)
			sb, bok := t["stats"].(map[string]any)
			if aok && bok {
				mergeInto(sa, sb)
			}
		}
	}
	sort.Strings(order)
	out := make([]map[string]any, 0, len(order))
	for _, id := range order {
		out = append(out, merged[id])
	}
	return out
}

// foldKPIs sums each control's verdict counts across shards and derives
// the rates from the sums, keeping the single-node KPI-array shape so
// dashboard clients work unchanged against a cluster.
func foldKPIs(_ []string, docs [][]api.KPI) any {
	merged := map[string]*api.KPI{}
	var order []string
	for _, rows := range docs {
		for _, row := range rows {
			m, ok := merged[row.ControlID]
			if !ok {
				m = &api.KPI{ControlID: row.ControlID, Name: row.Name}
				merged[row.ControlID] = m
				order = append(order, row.ControlID)
			}
			m.Total += row.Total
			m.Satisfied += row.Satisfied
			m.Violated += row.Violated
			m.Indeterminate += row.Indeterminate
			m.NotApplicable += row.NotApplicable
		}
	}
	sort.Strings(order)
	out := make([]api.KPI, 0, len(order))
	for _, id := range order {
		merged[id].SetRates()
		out = append(out, *merged[id])
	}
	return out
}

// proxyAttempt forwards the request as-is to one shard. Transport
// failures are returned with the ResponseWriter untouched, so the caller
// may retry against another ring member; once the shard responds — with
// any status — the response is streamed through, preserving status and
// headers, and the request is settled.
func (rt *Router) proxyAttempt(w http.ResponseWriter, r *http.Request, shardURL string) error {
	resp, err := rt.call(r.Context(), shardURL, r.Method, r.URL.RequestURI(), r.Header.Clone(), r.Body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // the status line is out; a broken stream has no one to tell
	return nil
}

// anyShard forwards a request any shard can answer (control lists,
// representative query plans), trying each ring member in order: a down
// shard costs one failed connection attempt, not the endpoint.
func (rt *Router) anyShard(w http.ResponseWriter, r *http.Request) {
	ring, urls := rt.topology()
	var lastName string
	var lastErr error
	for _, name := range ring.Names() {
		if lastErr = rt.proxyAttempt(w, r, urls[name]); lastErr == nil {
			return
		}
		lastName = name
	}
	shardUnavailable(w, lastName, lastErr)
}

// needApp answers a single-trace route called without ?app=.
func (rt *Router) needApp(w http.ResponseWriter, r *http.Request) {
	api.WriteError(w, http.StatusBadRequest, fmt.Errorf("app parameter required"))
}

// ownerProxy forwards a single-trace read to its owner shard — a pure
// function of the trace ID, so reads after any number of router restarts
// land on the same shard — retrying once against the next ring member
// when the owner's connection fails outright. During a crash or an
// in-flight handoff the successor often holds a usable copy (moving
// traces double-write), and for a read a slightly stale answer beats a
// 503. The app parameter arrives bare; the tenant scope, if any,
// qualifies it exactly as the shard will, so the ring hash matches the
// shard that actually stored the trace.
func (rt *Router) ownerProxy(w http.ResponseWriter, r *http.Request, app string) {
	qualified := tenant.Qualify(r.Header.Get("X-Tenant"), app)
	ring, urls := rt.topology()
	owner := ring.OwnerName(qualified)
	u, ok := urls[owner]
	if !ok {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("unknown shard %q", owner))
		return
	}
	err := rt.proxyAttempt(w, r, u)
	if err == nil {
		return
	}
	names := ring.Names()
	for i, name := range names {
		if name != owner {
			continue
		}
		if next := names[(i+1)%len(names)]; next != owner {
			if rt.proxyAttempt(w, r, urls[next]) == nil {
				return
			}
		}
		break
	}
	shardUnavailable(w, owner, err)
}

// broadcast forwards one mutating request (control deploy, remove,
// promote, rollback; tenant upsert) to every shard in ring order,
// stopping at the first rejection — shards share vocabulary and tenant
// config, so a request that fails on one fails on all — and answering
// with the last shard's body on success.
func (rt *Router) broadcast(w http.ResponseWriter, r *http.Request) {
	ring, urls := rt.topology()
	body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxEventBody))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var status int
	var last []byte
	for _, name := range ring.Names() {
		status, last, err = rt.fetch(r.Context(), urls[name], r.Method, r.URL.RequestURI(),
			shardHeader(r.Header.Get("X-Tenant"), true), bytes.NewReader(body), api.MaxEventBody)
		if err != nil {
			shardUnavailable(w, name, err)
			return
		}
		if status >= 400 {
			break
		}
	}
	api.WriteRaw(w, status, last)
}

// handleCluster reports the cluster topology: shards, ring shares,
// liveness (one cheap probe per shard), and handoff state.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	ring, urls := rt.topology()
	_, errs := rt.scatter(r.Context(), "/ingest/stats", "")
	shares := ring.Shares()
	type shardInfo struct {
		Name    string  `json:"name"`
		URL     string  `json:"url"`
		Share   float64 `json:"share"`
		Healthy bool    `json:"healthy"`
		Error   string  `json:"error,omitempty"`
	}
	infos := make([]shardInfo, 0, len(ring.Names()))
	for i, name := range ring.Names() {
		si := shardInfo{Name: name, URL: urls[name], Share: shares[i], Healthy: true}
		if msg, bad := errs[name]; bad {
			si.Healthy, si.Error = false, msg
		}
		infos = append(infos, si)
	}
	rt.mu.RLock()
	movingCount := len(rt.moving)
	rt.mu.RUnlock()
	rt.ackMu.Lock()
	ackCount := len(rt.acks)
	rt.ackMu.Unlock()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"shards":       infos,
		"vnodes":       ring.Vnodes(),
		"movingTraces": movingCount,
		"pendingAcks":  ackCount,
	})
}

func (rt *Router) isMoving(app string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.moving) > 0 && rt.moving[app]
}

func (rt *Router) setMoving(apps []string) {
	rt.mu.Lock()
	for _, a := range apps {
		rt.moving[a] = true
	}
	rt.mu.Unlock()
}

func (rt *Router) clearMoving(apps []string) {
	rt.mu.Lock()
	for _, a := range apps {
		delete(rt.moving, a)
	}
	rt.mu.Unlock()
}

// drainIngest blocks until every in-flight /events request has finished
// forwarding. Called after setMoving: any ingest that saw the moving set
// empty is done by the time this returns, and later arrivals shed.
func (rt *Router) drainIngest() {
	rt.ingestMu.Lock()
	// The barrier is the acquisition itself: the write lock is granted
	// only once every reader (in-flight ingest) has released.
	rt.ingestMu.Unlock()
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req Shard
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := rt.Join(r.Context(), req)
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, res)
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req struct {
		Name  string `json:"name"`
		Force bool   `json:"force"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Force {
		if err := rt.ForceRemove(req.Name); err != nil {
			api.WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, map[string]any{"removed": req.Name, "forced": true})
		return
	}
	res, err := rt.Leave(r.Context(), req.Name)
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, res)
}
