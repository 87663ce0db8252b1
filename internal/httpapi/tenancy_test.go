package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/events"
)

// doT issues a request under a tenant scope (X-Tenant header).
func doT(t *testing.T, s *Server, tenant, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rdr)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// reqEvents builds a minimal hiring trace: a requisition (optionally
// approved). Record IDs embed app, so traces with distinct bare names
// never collide even across tenants.
func reqEvents(app, ptype string, approved bool) []events.AppEvent {
	evs := []events.AppEvent{{
		Source: "lombardi", Type: "requisition.submitted", AppID: app,
		Payload: map[string]string{"recordId": app + "-req", "req": "REQ-" + app, "ptype": ptype},
	}}
	if approved {
		evs = append(evs, events.AppEvent{
			Source: "mail", Type: "approval.recorded", AppID: app,
			Payload: map[string]string{"recordId": app + "-apprv", "req": "REQ-" + app, "approved": "true"},
		})
	}
	return evs
}

func ingestT(t *testing.T, s *Server, tenant string, evs []events.AppEvent) {
	t.Helper()
	rec, body := doT(t, s, tenant, http.MethodPost, "/events", evs)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest (%s): %d %s", tenant, rec.Code, body)
	}
	var ack struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Token == "" {
		t.Fatalf("admission ack: %v (%s)", err, body)
	}
	awaitApplied(t, s, ack.Token)
}

// TestTenantScopedAPI drives the full tenancy surface over HTTP: tenant
// creation, scoped ingest, trace/compliance isolation, scoped control
// deployment, and the shadow promote flow.
func TestTenantScopedAPI(t *testing.T) {
	s, d := testServer(t)

	// Unknown tenants are rejected before any data access.
	if rec, _ := doT(t, s, "ghost", http.MethodGet, "/traces", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("ghost tenant -> %d, want 404", rec.Code)
	}

	if rec, body := do(t, s, http.MethodPost, "/tenants", map[string]any{"id": "acme", "name": "Acme", "weight": 2}); rec.Code != http.StatusOK {
		t.Fatalf("create tenant: %d %s", rec.Code, body)
	}
	var tenants []tenantJSON
	if _, body := do(t, s, http.MethodGet, "/tenants", nil); json.Unmarshal(body, &tenants) != nil || len(tenants) != 2 {
		t.Fatalf("tenants list = %s", body)
	}

	// One trace per tenant: the bare names differ so provenance record IDs
	// stay unique, but both are "new position without approval".
	ingestT(t, s, "", reqEvents("D-1", "new", false))
	ingestT(t, s, "acme", reqEvents("A-1", "new", false))

	// The unscoped (operator) view sees the qualified IDs; the acme view
	// sees only its own bare ID.
	var apps []string
	_, body := do(t, s, http.MethodGet, "/traces", nil)
	if json.Unmarshal(body, &apps) != nil || !reflect.DeepEqual(apps, []string{"D-1", "acme::A-1"}) {
		t.Fatalf("global traces = %s", body)
	}
	_, body = doT(t, s, "acme", http.MethodGet, "/traces", nil)
	if json.Unmarshal(body, &apps) != nil || !reflect.DeepEqual(apps, []string{"A-1"}) {
		t.Fatalf("acme traces = %s", body)
	}

	// The domain's default controls do not apply to acme's trace — acme
	// has no controls yet, so its compliance view is empty.
	var outs []api.Outcome
	_, body = doT(t, s, "acme", http.MethodGet, "/compliance", nil)
	if json.Unmarshal(body, &outs) != nil || len(outs) != 0 {
		t.Fatalf("acme compliance before deploy = %s", body)
	}

	// Deploy the same control text inside acme's namespace; it sees only
	// acme's trace.
	gm := d.Controls[0]
	rec, body := doT(t, s, "acme", http.MethodPost, "/controls",
		map[string]string{"id": gm.ID, "name": gm.Name, "text": gm.Text})
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy acme control: %d %s", rec.Code, body)
	}
	var cj api.Control
	if json.Unmarshal(body, &cj) != nil || cj.ID != gm.ID || cj.Tenant != "acme" {
		t.Fatalf("deployed control = %s", body)
	}
	_, body = doT(t, s, "acme", http.MethodGet, "/compliance", nil)
	if err := json.Unmarshal(body, &outs); err != nil || len(outs) == 0 {
		t.Fatalf("acme compliance = %s", body)
	}
	for _, o := range outs {
		if o.AppID != "A-1" || o.Control != gm.ID {
			t.Fatalf("acme outcome leaked scope: %+v", o)
		}
	}
	// The default tenant's compliance view is symmetric: no acme traces.
	_, body = doT(t, s, "default", http.MethodGet, "/compliance", nil)
	if err := json.Unmarshal(body, &outs); err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.AppID != "D-1" {
			t.Fatalf("default outcome leaked scope: %+v", o)
		}
	}

	// Shadow flow: attach a candidate (same text — mechanics, not
	// divergence), promote it, and verify the version advanced.
	rec, body = doT(t, s, "acme", http.MethodPost, "/controls",
		map[string]any{"id": gm.ID, "text": gm.Text, "shadow": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy shadow: %d %s", rec.Code, body)
	}
	if json.Unmarshal(body, &cj) != nil || !cj.Shadow || cj.ShadowVersion != 2 {
		t.Fatalf("shadow control = %s", body)
	}
	rec, body = doT(t, s, "acme", http.MethodPost, "/controls/"+gm.ID+"/promote", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, body)
	}
	cj = api.Control{}
	if json.Unmarshal(body, &cj) != nil || cj.Version != 2 || cj.Shadow {
		t.Fatalf("promoted control = %s", body)
	}
	// A second promote has no candidate left.
	if rec, _ = doT(t, s, "acme", http.MethodPost, "/controls/"+gm.ID+"/promote", nil); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("re-promote -> %d, want 422", rec.Code)
	}
}

// TestTenantQuota429 pins the quota path over HTTP: a tenant over its
// admission rate gets 429 with a Retry-After header and the tenant named
// in the body.
func TestTenantQuota429(t *testing.T) {
	s, _ := testServer(t)
	if rec, body := do(t, s, http.MethodPost, "/tenants", map[string]any{
		"id": "tiny", "quota": map[string]any{"eventsPerSec": 1.0, "burst": 1},
	}); rec.Code != http.StatusOK {
		t.Fatalf("create tenant: %d %s", rec.Code, body)
	}

	// Two events against a burst of 1: rejected atomically.
	rec, body := doT(t, s, "tiny", http.MethodPost, "/events", reqEvents("T-1", "new", true))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest -> %d %s, want 429", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var resp struct {
		Tenant       string `json:"tenant"`
		RetryAfterMS int64  `json:"retryAfterMs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Tenant != "tiny" || resp.RetryAfterMS <= 0 {
		t.Fatalf("429 body = %s", body)
	}

	// A single event fits the burst.
	ingestT(t, s, "tiny", reqEvents("T-2", "existing", false)[:1])
	var apps []string
	if _, body := doT(t, s, "tiny", http.MethodGet, "/traces", nil); json.Unmarshal(body, &apps) != nil || len(apps) != 1 || apps[0] != "T-2" {
		t.Fatalf("tiny traces = %s", body)
	}
}

// TestTenantScopedIngestKey holds the idempotency-key namespace apart:
// two tenants reusing the same client-chosen Ingest-Key — and the same
// bare trace and record names — must each get their own admission, not
// a dedup hit answering one tenant's batch with the other's ack state.
func TestTenantScopedIngestKey(t *testing.T) {
	s, _ := testServer(t)
	for _, tn := range []string{"acme", "beta"} {
		if rec, body := do(t, s, http.MethodPost, "/tenants", map[string]any{"id": tn}); rec.Code != http.StatusOK {
			t.Fatalf("create tenant %s: %d %s", tn, rec.Code, body)
		}
	}
	tokens := make(map[string]string)
	for _, tn := range []string{"acme", "beta"} {
		raw, err := json.Marshal(reqEvents("T-1", "new", true))
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(raw))
		req.Header.Set("X-Tenant", tn)
		req.Header.Set("Ingest-Key", "batch-1") // deliberately shared
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("ingest (%s): %d %s", tn, rec.Code, rec.Body.String())
		}
		var ack struct {
			Token string `json:"token"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Token == "" {
			t.Fatalf("ack (%s): %v (%s)", tn, err, rec.Body.String())
		}
		tokens[tn] = ack.Token
	}
	if tokens["acme"] == tokens["beta"] {
		t.Fatalf("shared Ingest-Key deduped across tenants (token %s)", tokens["acme"])
	}
	for _, tn := range []string{"acme", "beta"} {
		awaitApplied(t, s, tokens[tn])
		var apps []string
		if _, body := doT(t, s, tn, http.MethodGet, "/traces", nil); json.Unmarshal(body, &apps) != nil ||
			len(apps) != 1 || apps[0] != "T-1" {
			t.Fatalf("%s traces = %v", tn, apps)
		}
	}
	// The same tenant re-sending its key IS a dedup hit (the recorder's
	// retry path): same token, no second admission.
	raw, _ := json.Marshal(reqEvents("T-1", "new", true))
	req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(raw))
	req.Header.Set("X-Tenant", "acme")
	req.Header.Set("Ingest-Key", "batch-1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var ack struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Token != tokens["acme"] {
		t.Fatalf("same-tenant retry token = %q, want %q (%s)", ack.Token, tokens["acme"], rec.Body.String())
	}
}
