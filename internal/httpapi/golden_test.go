package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/provenance"
	"repro/internal/rules"
)

// hauntedControl is violated on every trace with every data record of the
// trace as its subject, so a response carries a multi-ID, sorted binding.
type hauntedControl struct{}

func (hauntedControl) Text() string { return "every record is haunted" }

func (hauntedControl) Evaluate(g *provenance.Graph, appID string) *rules.Result {
	var ids []string
	for _, n := range g.Nodes(provenance.NodeFilter{Class: provenance.ClassData, AppID: appID}) {
		ids = append(ids, n.ID)
	}
	sort.Strings(ids)
	res := &rules.Result{
		AppID: appID, Verdict: rules.Violated,
		Bindings: []rules.Binding{{Var: "record", IDs: ids}},
	}
	res.AddNote("the control-point subgraph does not embed: a required vertex or edge is missing")
	return res
}

// TestComplianceAndAuditGolden pins the bytes /compliance answers and the
// findings an audit report carries for a fixed two-trace input: the stock
// hiring controls plus hauntedControl, and the KPIs /dashboard answers once
// both traces are checked. How a Result holds its bindings, or the board its
// verdicts, internally must not show on the wire.
func TestComplianceAndAuditGolden(t *testing.T) {
	s, d := testServer(t)
	if _, err := s.sys.Registry.DeployEvaluator("haunted", "haunted records", hauntedControl{}, ""); err != nil {
		t.Fatal(err)
	}
	ingestSim(t, s, d, 2)

	rec, body := do(t, s, http.MethodGet, "/compliance", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/compliance: %d %s", rec.Code, body)
	}
	checkGolden(t, "compliance_two_traces.json", body)

	outcomes, err := s.sys.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Build(d.Name, s.sys.Store, outcomes, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "audit_two_traces.json", append(raw, '\n'))

	rec, body = do(t, s, http.MethodGet, "/dashboard", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/dashboard: %d %s", rec.Code, body)
	}
	checkGolden(t, "dashboard_two_traces.json", body)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden\n got: %s\nwant: %s", name, got, want)
	}
}
