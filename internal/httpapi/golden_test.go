package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/audit"
	"repro/internal/controls"
	"repro/internal/provenance"
)

// TestComplianceAndAuditGolden pins the bytes /compliance answers and the
// findings an audit report carries for a fixed two-trace input: the stock
// hiring controls plus a pattern control that is violated with every data
// record of the trace as its subject, so the response carries a
// multi-ID, sorted binding. How a Result holds its bindings internally
// must not show on the wire.
func TestComplianceAndAuditGolden(t *testing.T) {
	s, d := testServer(t)
	p := provenance.NewPattern()
	if err := p.AddNode(&provenance.PatternNode{Var: "record", Class: provenance.ClassData}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(&provenance.PatternNode{Var: "ghost", Type: "noSuchType"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(&provenance.PatternEdge{From: "ghost", Type: "haunts", To: "record"}); err != nil {
		t.Fatal(err)
	}
	pc, err := controls.NewPatternControl(p, "record", "every record is haunted")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.sys.Registry.DeployEvaluator("haunted", "haunted records", pc, ""); err != nil {
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
