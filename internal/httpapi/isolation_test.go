package httpapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/events"
)

// isoOp is one randomized scoped ingest: a trace name shared across
// every tenant AND record IDs shared across tenants — both deliberately
// collide, because both keyspaces are namespaced (trace IDs at the API
// boundary, record-derived node IDs in the event transform). The store
// must keep them apart with no cooperation from the tenants.
type isoOp struct {
	app      string
	approved bool
	ptype    string
}

func isoEvents(i int, op isoOp) []events.AppEvent {
	rec := fmt.Sprintf("%s-%d", op.app, i)
	evs := []events.AppEvent{{
		Source: "lombardi", Type: "requisition.submitted", AppID: op.app,
		Payload: map[string]string{"recordId": rec + "-req", "req": "REQ-" + rec, "ptype": op.ptype},
	}}
	if op.approved {
		evs = append(evs, events.AppEvent{
			Source: "mail", Type: "approval.recorded", AppID: op.app,
			Payload: map[string]string{"recordId": rec + "-apprv", "req": "REQ-" + rec, "approved": "true"},
		})
	}
	return evs
}

// TestTenantIsolationProperty is the randomized isolation property test:
// three tenants (default, acme, beta) concurrently ingest interleaved
// workloads that reuse the SAME bare trace names, while a reader hammers
// the scoped views. Afterwards every scoped read surface — traces,
// compliance, violations, graph — must contain exactly the requesting
// tenant's data: no qualified IDs, no foreign verdicts, no foreign
// provenance, however the goroutines interleaved. Run under -race in CI.
func TestTenantIsolationProperty(t *testing.T) {
	s, d := testServer(t)
	for _, tn := range []string{"acme", "beta"} {
		if rec, body := do(t, s, http.MethodPost, "/tenants", map[string]any{"id": tn}); rec.Code != http.StatusOK {
			t.Fatalf("create tenant %s: %d %s", tn, rec.Code, body)
		}
		// Each tenant deploys the domain's control inside its namespace so
		// scoped compliance views have verdicts to leak (or not).
		gm := d.Controls[0]
		if rec, body := doT(t, s, tn, http.MethodPost, "/controls",
			map[string]string{"id": gm.ID, "name": gm.Name, "text": gm.Text}); rec.Code != http.StatusOK {
			t.Fatalf("deploy control for %s: %d %s", tn, rec.Code, body)
		}
	}

	// Pre-generate each tenant's randomized op list from one seed so the
	// data is reproducible; only the goroutine interleaving varies.
	rng := rand.New(rand.NewSource(42))
	scopes := []string{"", "acme", "beta"}
	ops := make(map[string][]isoOp)
	want := make(map[string]map[string]bool) // scope -> bare trace set
	for _, tn := range scopes {
		want[tn] = make(map[string]bool)
		for i := 0; i < 24; i++ {
			op := isoOp{
				app:      fmt.Sprintf("T-%d", rng.Intn(8)),
				approved: rng.Intn(2) == 0,
				ptype:    []string{"new", "existing"}[rng.Intn(2)],
			}
			ops[tn] = append(ops[tn], op)
			want[tn][op.app] = true
		}
		// Pin op 0 to T-0 so every scope deterministically shares at
		// least one (trace, record ID) pair with every other — the
		// collision the namespacing must absorb — and the per-scope
		// /graph?app=T-0 probes below always have a subject.
		ops[tn][0].app = "T-0"
		want[tn]["T-0"] = true
	}

	var wg sync.WaitGroup
	for _, tn := range scopes {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			for i, op := range ops[tn] {
				ingestT(t, s, tn, isoEvents(i, op))
			}
		}(tn)
	}
	// Reads address the default tenant explicitly: a bare request is the
	// operator view, which legitimately sees every namespace.
	readScope := func(tn string) string {
		if tn == "" {
			return "default"
		}
		return tn
	}
	// A concurrent reader: scoped views must never show a qualified ID,
	// even mid-churn. It has its own WaitGroup — the writers' Wait gates
	// closing stop, which in turn releases the reader.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tn := range scopes {
				var apps []string
				_, body := doT(t, s, readScope(tn), http.MethodGet, "/traces", nil)
				if err := json.Unmarshal(body, &apps); err != nil {
					t.Errorf("traces mid-churn (%s): %v (%s)", tn, err, body)
					return
				}
				for _, a := range apps {
					if strings.Contains(a, "::") {
						t.Errorf("scope %q saw qualified trace %q mid-churn", tn, a)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	setOf := func(list []string) map[string]bool {
		m := make(map[string]bool, len(list))
		for _, v := range list {
			m[v] = true
		}
		return m
	}
	keys := func(m map[string]bool) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	for _, tn := range scopes {
		// Traces: exactly this tenant's bare names, nothing qualified.
		var apps []string
		_, body := doT(t, s, readScope(tn), http.MethodGet, "/traces", nil)
		if err := json.Unmarshal(body, &apps); err != nil {
			t.Fatalf("traces (%s): %v (%s)", tn, err, body)
		}
		if got := setOf(apps); !equalSets(got, want[tn]) {
			t.Fatalf("scope %q traces = %v, want %v", tn, keys(got), keys(want[tn]))
		}

		// Compliance: every outcome names one of the tenant's own traces
		// and a bare control ID.
		var outs []api.Outcome
		_, body = doT(t, s, readScope(tn), http.MethodGet, "/compliance", nil)
		if err := json.Unmarshal(body, &outs); err != nil {
			t.Fatalf("compliance (%s): %v (%s)", tn, err, body)
		}
		if len(outs) == 0 {
			t.Fatalf("scope %q compliance is empty", tn)
		}
		for _, o := range outs {
			if !want[tn][o.AppID] || strings.Contains(o.AppID, "::") || strings.Contains(o.Control, "::") {
				t.Fatalf("scope %q compliance leaked %+v", tn, o)
			}
		}

		// Violations: same property on the dashboard feed.
		var viols []struct {
			AppID     string `json:"appId"`
			ControlID string `json:"controlId"`
		}
		_, body = doT(t, s, readScope(tn), http.MethodGet, "/violations", nil)
		if err := json.Unmarshal(body, &viols); err != nil {
			t.Fatalf("violations (%s): %v (%s)", tn, err, body)
		}
		for _, v := range viols {
			if !want[tn][v.AppID] || strings.Contains(v.AppID, "::") {
				t.Fatalf("scope %q violations leaked %+v", tn, v)
			}
		}

		// Graph: a tenant's own trace resolves; another tenant's qualified
		// name is unreachable by construction (the scope re-qualifies it
		// into a name that cannot exist).
		var g struct {
			Nodes []api.Node `json:"nodes"`
		}
		_, body = doT(t, s, readScope(tn), http.MethodGet, "/graph?app=T-0", nil)
		if err := json.Unmarshal(body, &g); err != nil || len(g.Nodes) == 0 {
			t.Fatalf("scope %q own graph = %v (%s)", tn, err, body)
		}
		for _, other := range scopes {
			if other == tn || other == "" {
				continue
			}
			g.Nodes = nil
			_, body = doT(t, s, readScope(tn), http.MethodGet, "/graph?app="+other+"%3A%3AT-0", nil)
			if err := json.Unmarshal(body, &g); err != nil || len(g.Nodes) != 0 {
				t.Fatalf("scope %q reached %s's trace: %v (%s)", tn, other, err, body)
			}
		}
	}

	// The operator (unscoped) view sees the union, every foreign trace
	// under its qualified name.
	union := make(map[string]bool)
	for tn, set := range want {
		for app := range set {
			if tn == "" {
				union[app] = true
			} else {
				union[tn+"::"+app] = true
			}
		}
	}
	var apps []string
	_, body := do(t, s, http.MethodGet, "/traces", nil)
	if err := json.Unmarshal(body, &apps); err != nil {
		t.Fatal(err)
	}
	if got := setOf(apps); !equalSets(got, union) {
		t.Fatalf("operator traces = %v, want %v", keys(got), keys(union))
	}
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
