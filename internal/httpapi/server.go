// Package httpapi exposes a core.System over HTTP: the paper's query
// frontend. cmd/provd serves it; cmd/pctl is its client.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/ingest"
	"repro/internal/provenance"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/viz"
)

// Server wraps a core.System with the HTTP query frontend the paper's
// Section II-A describes: event ingestion, control deployment, compliance
// queries, dashboard KPIs and graph navigation.
type Server struct {
	sys *core.System
	mux *http.ServeMux
}

// NewServer serves sys. The second argument is unused (it said whether a
// continuous correlator ran; every ingest now correlates in its own
// commit) and stays until bench/, which passes it, can change.
func NewServer(sys *core.System, _ bool) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux()}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	return s
}

// routes is the one list of what a provd node serves.
var routes = []struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}{
	{"/events", (*Server).handleEvents},
	{"/ingest/ack", (*Server).handleIngestAck},
	{"/ingest/stats", (*Server).handleIngestStats},
	{"/controls", (*Server).handleControls},
	{"/controls/", (*Server).handleControlAction},
	{"/tenants", (*Server).handleTenants},
	{"/compliance", (*Server).handleCompliance},
	{"/dashboard", (*Server).handleDashboard},
	{"/violations", (*Server).handleViolations},
	{"/graph", (*Server).handleGraph},
	{"/graph.dot", (*Server).handleGraphDOT},
	{"/rows", (*Server).handleRows},
	{"/query", (*Server).handleQuery},
	{"/segments", (*Server).handleSegments},
	{"/stats", (*Server).handleStats},
	{"/report", (*Server).handleReport},
	{"/traces", (*Server).handleTraces},
	{"/handoff/export", (*Server).handleHandoffExport},
	{"/handoff/import", (*Server).handleHandoffImport},
	{"/handoff/release", (*Server).handleHandoffRelease},
}

// Patterns lists the mux patterns NewServer registers, so the cluster
// router can prove it fronts (or deliberately withholds) every one.
func Patterns() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.pattern
	}
	return out
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// tenantScope resolves the optional X-Tenant request header. An empty
// header is the legacy single-tenant view — no qualification, no
// filtering — so every pre-tenancy client keeps working. A set header
// scopes the request to that tenant's namespace: incoming trace IDs are
// qualified under it, outgoing IDs are filtered to it, and an unknown
// tenant is rejected before any data access. ok=false means the handler
// has already replied.
func (s *Server) tenantScope(w http.ResponseWriter, r *http.Request) (tn string, ok bool) {
	tn = r.Header.Get("X-Tenant")
	if tn == "" {
		return "", true
	}
	if !tenant.ValidID(tn) {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid tenant %q", tn))
		return "", false
	}
	if tn != tenant.DefaultID && !s.sys.Tenants.Exists(tn) {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", tn))
		return "", false
	}
	return tn, true
}

// qualifyScoped qualifies a client-supplied trace or control name under
// the request scope. Scoped requests (explicit X-Tenant, including
// "default") may only use bare names: under the default tenant Qualify
// is the identity mapping, so a smuggled qualified name would read or
// write another tenant's key space. The operator view (no header)
// passes qualified names through untouched. ok=false means the handler
// has already replied.
func qualifyScoped(w http.ResponseWriter, tn, name string) (string, bool) {
	if tn != "" && !tenant.IsBare(name) {
		api.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("%q: a tenant-scoped request must use bare names", name))
		return "", false
	}
	return tenant.Qualify(tn, name), true
}

// scopedID strips the scope's namespace prefix for display: inside a
// tenant-scoped request the tenant sees its own bare IDs, never the
// qualified form that would leak the namespacing scheme.
func scopedID(tn, id string) string {
	if tn == "" {
		return id
	}
	if owner, bare := tenant.Split(id); owner == tn {
		return bare
	}
	return id
}

// inScope reports whether a qualified ID belongs to the scope. The empty
// scope (legacy view) sees everything.
func inScope(tn, id string) bool {
	return tn == "" || tenant.Owner(id) == tn
}

// handleEvents ingests a JSON array of application events (POST).
//
// With the async gateway enabled the batch is ADMITTED, not ingested:
// the response is 202 with an ack (token + idempotency key) the client
// can poll at /ingest/ack, 429 with a Retry-After hint when admission
// queues are full, or 503 while draining. An Ingest-Key request header
// carries the client's idempotency key; redelivering under the same key
// returns the original batch's ack instead of ingesting twice. ?sync=1
// forces the legacy synchronous path.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	// Ingest buffers the decoded batch in memory, so an unbounded body is
	// an easy memory DoS.
	r.Body = http.MaxBytesReader(w, r.Body, api.MaxEventBody)
	var batch []events.AppEvent
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			api.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	for i := range batch {
		// Qualifying here — before admission — is what makes tenancy
		// end-to-end: every row, trace and verdict downstream carries
		// the namespace, and a tenant cannot name another's traces.
		app, ok := qualifyScoped(w, tn, batch[i].AppID)
		if !ok {
			return
		}
		batch[i].AppID = app
	}
	if s.sys.Gateway != nil && r.URL.Query().Get("sync") == "" {
		s.admitAsync(w, r, tn, batch)
		return
	}
	if err := s.sys.Ingest(batch); err != nil {
		// Ingestion is not transactional: a batch error names the rejected
		// events while the rest stay recorded, so surface each one.
		var be *events.BatchError
		if errors.As(err, &be) {
			out := &api.Error{Status: http.StatusUnprocessableEntity, Message: be.Error()}
			for _, fe := range be.Failed {
				out.EventErrors = append(out.EventErrors, api.EventError{Index: fe.Index, Err: fe.Err.Error()})
			}
			out.Write(w)
			return
		}
		api.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, s.sys.Pipeline.Stats())
}

// admitAsync offers one batch to the ingestion gateway and maps its
// verdict onto HTTP: 202 admitted (or deduped), 429 overloaded with a
// Retry-After hint, 503 draining.
func (s *Server) admitAsync(w http.ResponseWriter, r *http.Request, tn string, batch []events.AppEvent) {
	// Idempotency keys are client-chosen, so they namespace like trace
	// IDs: without this, one tenant's key dedups — and answers with the
	// ack state of — another tenant's batch.
	key := tenant.Qualify(tn, r.Header.Get("Ingest-Key"))
	st, err := s.sys.Gateway.Offer(key, batch)
	if err == nil {
		api.WriteJSON(w, http.StatusAccepted, st)
		return
	}
	var oe *ingest.OverloadError
	switch {
	case errors.As(err, &oe):
		// A quota rejection is tenant-specific: naming the tenant lets a
		// shared client pool back off one namespace, not all.
		(&api.Error{
			Status: http.StatusTooManyRequests, Message: err.Error(),
			RetryAfter: oe.RetryAfter, RetryAfterMs: oe.RetryAfter.Milliseconds(),
			Tenant: oe.Tenant,
		}).Write(w)
	case errors.Is(err, ingest.ErrDraining), errors.Is(err, ingest.ErrClosed):
		(&api.Error{Status: http.StatusServiceUnavailable, Message: err.Error(), RetryAfter: time.Second}).Write(w)
	default:
		api.WriteError(w, http.StatusBadRequest, err)
	}
}

// handleIngestAck reports an admitted batch's status by ack token —
// including the per-event error indices once the batch is applied.
func (s *Server) handleIngestAck(w http.ResponseWriter, r *http.Request) {
	if s.sys.Gateway == nil {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("async ingest disabled"))
		return
	}
	token := r.URL.Query().Get("token")
	if token == "" {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("token parameter required"))
		return
	}
	st, ok := s.sys.Gateway.Ack(token)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown ack token %q", token))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// handleIngestStats returns the gateway counters.
func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	if s.sys.Gateway == nil {
		api.WriteJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	api.WriteJSON(w, http.StatusOK, s.sys.Gateway.Stats())
}

func controlToJSON(tn string, cp *controls.ControlPoint) api.Control {
	return api.Control{
		ID: scopedID(tn, cp.ID), Name: cp.Name, Text: cp.Text,
		Version: cp.Version, Tenant: cp.Tenant,
		Shadow: cp.HasShadow(), ShadowVersion: cp.ShadowVersion(),
	}
}

// handleControls deploys (POST) or lists (GET) internal controls within
// the request's tenant scope.
func (s *Server) handleControls(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	switch r.Method {
	case http.MethodPost:
		var c api.Control
		if err := json.NewDecoder(r.Body).Decode(&c); err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		key, kok := qualifyScoped(w, tn, c.ID)
		if !kok {
			return
		}
		var cp *controls.ControlPoint
		var err error
		if c.Shadow {
			cp, err = s.sys.DeployShadowControl(key, c.Text)
		} else if tn == "" {
			cp, err = s.sys.DeployControl(c.ID, c.Name, c.Text)
		} else {
			cp, err = s.sys.DeployControlTenant(tn, c.ID, c.Name, c.Text)
		}
		if err != nil {
			api.WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, controlToJSON(tn, cp))
	case http.MethodDelete:
		id, ok := qualifyScoped(w, tn, r.URL.Query().Get("id"))
		if !ok {
			return
		}
		if err := s.sys.RemoveControl(id); err != nil {
			api.WriteError(w, http.StatusNotFound, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, map[string]string{"removed": scopedID(tn, id)})
	case http.MethodGet:
		var list []*controls.ControlPoint
		if tn == "" {
			list = s.sys.Registry.List()
		} else {
			list = s.sys.Registry.ListTenant(tn)
		}
		var out []api.Control
		for _, cp := range list {
			out = append(out, controlToJSON(tn, cp))
		}
		api.WriteJSON(w, http.StatusOK, out)
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET, POST or DELETE"))
	}
}

// handleControlAction routes POST /controls/{id}/promote and
// /controls/{id}/rollback — the shadow-rollout levers. The swap happens
// inside the control registry under its lock: no evaluation ever sees
// zero or two live versions of the control.
func (s *Server) handleControlAction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/controls/")
	i := strings.LastIndex(rest, "/")
	if i <= 0 {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("want /controls/{id}/promote or /controls/{id}/rollback"))
		return
	}
	key, kok := qualifyScoped(w, tn, rest[:i])
	if !kok {
		return
	}
	action := rest[i+1:]
	var cp *controls.ControlPoint
	var err error
	switch action {
	case "promote":
		cp, err = s.sys.PromoteControl(key)
	case "rollback":
		cp, err = s.sys.RollbackControl(key)
	default:
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown control action %q", action))
		return
	}
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, controlToJSON(tn, cp))
}

// tenantJSON is the wire form of one tenant with its admission counters.
type tenantJSON struct {
	tenant.Tenant
	Stats tenant.AdmissionStats `json:"stats"`
}

// handleTenants lists tenants (GET) or creates/updates one (POST — an
// upsert, so the same call adjusts an existing tenant's quota or weight).
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		stats := s.sys.Tenants.Stats()
		out := []tenantJSON{}
		for _, t := range s.sys.Tenants.List() {
			out = append(out, tenantJSON{Tenant: t, Stats: stats[t.ID]})
		}
		api.WriteJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var t tenant.Tenant
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := s.sys.CreateTenant(t); err != nil {
			api.WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		created, _ := s.sys.Tenants.Get(t.ID)
		api.WriteJSON(w, http.StatusOK, created)
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST"))
	}
}

// asOfParam parses the optional ?asof= store sequence. ok is false when
// the parameter is present but malformed (the handler has replied).
func asOfParam(w http.ResponseWriter, r *http.Request) (seq uint64, present, ok bool) {
	raw := r.URL.Query().Get("asof")
	if raw == "" {
		return 0, false, true
	}
	seq, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("asof: %v", err))
		return 0, true, false
	}
	return seq, true, true
}

// handleCompliance checks one trace (?app=) or all traces. With ?asof=N
// the named trace is read at store sequence N (a sealed segment or the
// live state, whichever held it then) and today's deployed controls are
// evaluated against that historical graph — the audit question "what
// would the verdicts have been at commit N?". As-of outcomes are not
// recorded on the dashboard: historical readings must not move live KPIs.
func (s *Server) handleCompliance(w http.ResponseWriter, r *http.Request) {
	tn, tok := s.tenantScope(w, r)
	if !tok {
		return
	}
	app, aok := qualifyScoped(w, tn, r.URL.Query().Get("app"))
	if !aok {
		return
	}
	asof, asofSet, ok := asOfParam(w, r)
	if !ok {
		return
	}
	var err error
	var outcomes []api.Outcome
	appendOutcomes := func(app string) error {
		var res []*controls.Outcome
		var err error
		if asofSet {
			g, _, gerr := s.sys.Store.TraceAsOf(app, asof)
			if gerr != nil {
				return gerr
			}
			res, err = s.sys.Registry.CheckGraph(app, g)
		} else {
			res, err = s.sys.Check(app)
		}
		if err != nil {
			return err
		}
		for _, o := range res {
			outcomes = append(outcomes, api.Outcome{
				Control: scopedID(tn, o.ControlID), AppID: scopedID(tn, o.Result.AppID),
				Verdict: o.Result.Verdict.String(),
				Alerts:  o.Result.Alerts, Notes: o.Result.Notes,
				Binds: o.Result.BindingMap(),
			})
		}
		return nil
	}
	if app != "" {
		err = appendOutcomes(app)
	} else if asofSet {
		err = fmt.Errorf("asof requires the app parameter")
		api.WriteError(w, http.StatusBadRequest, err)
		return
	} else {
		for _, a := range s.sys.Store.AppIDs() {
			if !inScope(tn, a) {
				continue
			}
			if err = appendOutcomes(a); err != nil {
				break
			}
		}
	}
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, outcomes)
}

// handleDashboard returns the KPI snapshot.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.sys.Board.Snapshot())
}

// handleViolations returns the most recent violation feed entries,
// scoped to the request's tenant when one is set.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	all := s.sys.Board.RecentViolations(n)
	if tn == "" {
		api.WriteJSON(w, http.StatusOK, all)
		return
	}
	out := all[:0]
	for _, v := range all {
		if !inScope(tn, v.AppID) {
			continue
		}
		v.AppID = scopedID(tn, v.AppID)
		v.ControlID = scopedID(tn, v.ControlID)
		out = append(out, v)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleGraph returns the provenance subgraph of one trace — the query
// frontend that "enables visualization and navigation through the
// provenance graph from the outside". With ?asof=N the trace is read at
// store sequence N, served from whichever tier held it then (sealed
// segment or live state) — the point-in-time audit view.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	app, aok := qualifyScoped(w, tn, r.URL.Query().Get("app"))
	if !aok {
		return
	}
	if app == "" {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("app parameter required"))
		return
	}
	asof, asofSet, ok := asOfParam(w, r)
	if !ok {
		return
	}
	out := api.Graph{AppID: app}
	render := func(tr *provenance.Graph) {
		for _, n := range tr.Nodes(provenance.NodeFilter{}) {
			attrs := make(map[string]string, len(n.Attrs))
			for k, v := range n.Attrs {
				attrs[k] = v.Text()
			}
			out.Nodes = append(out.Nodes, api.Node{
				ID: n.ID, Class: n.Class.String(), Type: n.Type, Attrs: attrs,
			})
		}
		for _, e := range tr.AllEdges(provenance.EdgeFilter{}) {
			out.Edges = append(out.Edges, api.Edge{
				ID: e.ID, Type: e.Type, Source: e.Source, Target: e.Target,
			})
		}
	}
	var err error
	if asofSet {
		var g *provenance.Graph
		if g, _, err = s.sys.Store.TraceAsOf(app, asof); err == nil {
			render(g)
		}
	} else {
		// ViewTrace, not View: a demoted trace is served from its sealed
		// segment instead of rendering empty.
		err = s.sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
			render(g.Trace(app))
			return nil
		})
	}
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleGraphDOT renders one trace as a Graphviz DOT document (the Fig 2
// visualization).
func (s *Server) handleGraphDOT(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	app, aok := qualifyScoped(w, tn, r.URL.Query().Get("app"))
	if !aok {
		return
	}
	if app == "" {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("app parameter required"))
		return
	}
	opts := viz.Options{HideTaskOrder: r.URL.Query().Get("order") == "off"}
	var dot string
	err := s.sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
		dot = viz.TraceDOT(g, app, opts)
		return nil
	})
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, dot)
}

// handleRows returns the Table-1 rows of one trace.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	app, aok := qualifyScoped(w, tn, r.URL.Query().Get("app"))
	if !aok {
		return
	}
	if app == "" {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("app parameter required"))
		return
	}
	api.WriteJSON(w, http.StatusOK, s.sys.Store.RowsForApp(app))
}

// handleQuery runs a typed node query:
// /query?type=jobRequisition&field=reqID&value=REQ-x&kind=string&explain=1
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tn, tok := s.tenantScope(w, r)
	if !tok {
		return
	}
	qapp, aok := qualifyScoped(w, tn, r.URL.Query().Get("app"))
	if !aok {
		return
	}
	q := query.Query{
		Type:    r.URL.Query().Get("type"),
		AppID:   qapp,
		OrderBy: r.URL.Query().Get("order"),
		Desc:    r.URL.Query().Get("desc") != "",
	}
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		q.Limit = n
	}
	if field := r.URL.Query().Get("field"); field != "" {
		kindName := r.URL.Query().Get("kind")
		if kindName == "" {
			kindName = "string"
		}
		kind, err := provenance.ParseKind(kindName)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		v, err := provenance.ParseValue(kind, r.URL.Query().Get("value"))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		q.Preds = append(q.Preds, query.Pred{Field: field, Op: query.Eq, Value: v})
	}
	plan, err := s.sys.Query.Plan(q)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("explain") != "" {
		api.WriteJSON(w, http.StatusOK, map[string]any{
			"plan": plan.Explain(), "indexed": plan.Indexed(),
		})
		return
	}
	nodes, err := plan.Run()
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]api.Node, 0, len(nodes))
	for _, n := range nodes {
		attrs := make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			attrs[k] = v.Text()
		}
		out = append(out, api.Node{ID: n.ID, Class: n.Class.String(), Type: n.Type, Attrs: attrs})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleReport renders the plain-text compliance audit report: per-control
// tallies plus each violation with its evidence subgraph and each
// undecidable trace with its missing-evidence notes.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("findings"))
	outcomes, err := s.sys.Registry.CheckAll()
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.sys.Board.Record(outcomes)
	rep, err := audit.Build(s.sys.Domain.Name, s.sys.Store, outcomes, n)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := rep.WriteText(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		return
	}
}

// handleSegments lists the sealed on-disk segments with their zone maps
// and bloom statistics — the operator's view of the cold tier (`pctl
// segments`).
func (s *Server) handleSegments(w http.ResponseWriter, r *http.Request) {
	segs := s.sys.Store.Segments()
	if segs == nil {
		segs = []store.SegmentInfo{}
	}
	api.WriteJSON(w, http.StatusOK, segs)
}

// handleTraces lists the trace IDs this node holds across both tiers —
// the shard-handoff planner's input (the router asks each shard for its
// traces to compute which ones a ring change moves).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantScope(w, r)
	if !ok {
		return
	}
	apps := []string{}
	for _, a := range s.sys.Store.AppIDs() {
		if inScope(tn, a) {
			apps = append(apps, scopedID(tn, a))
		}
	}
	api.WriteJSON(w, http.StatusOK, apps)
}

// maxHandoffBody caps one /handoff/import stream (segments are bounded
// by the source's log size, but the receiver should not trust that).
const maxHandoffBody = 256 << 20

// handleHandoffExport streams the named traces in the sealed-segment
// wire format (POST {"apps": [...]}). Traces this node no longer holds
// are skipped; the Handoff-Traces/Handoff-Rows/Handoff-Seq response
// headers report what actually shipped (the body is the binary stream,
// so the stats ride in headers). Exports run concurrently with writes —
// the handoff protocol re-exports the tail and the importer dedups.
func (s *Server) handleHandoffExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req api.Apps
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("quiesce") != "" && s.sys.Gateway != nil {
		// Tail-phase export: flush the admission queue first so every
		// acked write is in the segment the requester is about to treat
		// as complete. Bounded — a node that cannot go idle in time fails
		// the export, and the caller aborts its handoff instead of
		// releasing traces whose tail it never saw.
		ctx, cancel := context.WithTimeout(r.Context(), 15*time.Second)
		defer cancel()
		if err := s.sys.Gateway.WaitIdle(ctx); err != nil {
			api.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("quiesce: %v", err))
			return
		}
	}
	var buf bytes.Buffer
	st, err := s.sys.Store.ExportTraces(&buf, req.Apps)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Handoff-Traces", strconv.Itoa(st.Traces))
	w.Header().Set("Handoff-Rows", strconv.Itoa(st.Rows))
	w.Header().Set("Handoff-Seq", strconv.FormatUint(st.Seq, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleHandoffImport replays an export stream (POST, raw body) through
// the receiving store's validated write path and reports what landed.
// Records already present are skipped, so redelivery and bulk/tail
// overlap are harmless.
func (s *Server) handleHandoffImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxHandoffBody)
	ins, skip, err := s.sys.Store.ImportSegment(r.Body)
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Imported{Inserted: ins, Skipped: skip})
}

// handleHandoffRelease commits drop tombstones for traces this node has
// handed off (POST {"apps": [...]}): the final step of a shard move,
// after the target confirmed the import and the ring swapped.
func (s *Server) handleHandoffRelease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req api.Apps
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.sys.DropTraces(req.Apps...); err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]int{"dropped": len(req.Apps)})
}

// handleStats returns store, pipeline and continuous-checking statistics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	storeStats := s.sys.Store.Stats()
	var ingestStats any
	if s.sys.Gateway != nil {
		ingestStats = s.sys.Gateway.Stats()
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"ingest":      ingestStats,
		"store":       storeStats,
		"durability":  s.sys.Store.Durability(),
		"snapshots":   s.sys.Store.SnapshotCounters(),
		"ruleIndexes": storeStats.RuleIndexes,
		"pipeline":    s.sys.Pipeline.Stats(),
		"correlate":   s.sys.Correlator.Stats(),
		"checker":     s.sys.Checker.Stats(),
		"cache":       s.sys.Registry.CacheStats(),
		"tiering":     storeStats.Tiering,
		"bindings":    s.sys.Registry.BindingStats(),
		"delta":       s.sys.Registry.DeltaStats(),
		"plans":       s.sys.Registry.Plans(),
		"tenants":     s.sys.Tenants.Stats(),
		"shadow":      s.sys.Registry.ShadowStats(),
		"domain":      s.sys.Domain.Name,
		"traces":      len(s.sys.Store.AppIDs()),
		"seq":         storeStats.Seq,
	})
}
