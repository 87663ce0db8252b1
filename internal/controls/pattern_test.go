package controls

import (
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rules"
)

// gmPattern is the paper's Section II-C control as a direct subgraph: a
// new-position requisition must have an approval edge.
func gmPattern(t testing.TB) *provenance.Pattern {
	t.Helper()
	p := provenance.NewPattern()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.AddNode(&provenance.PatternNode{Var: "req", Class: provenance.ClassData,
		Type: "jobRequisition",
		Where: func(n *provenance.Node) bool {
			return n.Attr("positionType").Str() == "new"
		}}))
	must(p.AddNode(&provenance.PatternNode{Var: "apprv", Class: provenance.ClassData,
		Type: "approvalStatus"}))
	must(p.AddEdge(&provenance.PatternEdge{From: "apprv", Type: "approvalOf", To: "req"}))
	return p
}

func TestPatternControlVerdicts(t *testing.T) {
	f := newFixture(t, false)
	pc, err := NewPatternControl(gmPattern(t), "req", "new requisition needs an approvalOf edge")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.DeployEvaluator("gm-subgraph", "GM approval (subgraph form)", pc, ""); err != nil {
		t.Fatal(err)
	}

	f.addTrace(t, "A1", true, true)   // new + approved: satisfied
	f.addTrace(t, "A2", true, false)  // new, no approval: violated
	f.addTrace(t, "A3", false, false) // existing: subject predicate fails -> not applicable

	want := map[string]rules.Verdict{
		"A1": rules.Satisfied,
		"A2": rules.Violated,
		"A3": rules.NotApplicable,
	}
	for app, wantV := range want {
		outcomes, err := reg.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		if len(outcomes) != 1 {
			t.Fatalf("%s: outcomes = %d", app, len(outcomes))
		}
		got := outcomes[0].Result
		if got.Verdict != wantV {
			t.Errorf("%s: verdict = %v, want %v (notes %v)", app, got.Verdict, wantV, got.Notes)
		}
		if wantV == rules.Satisfied {
			if ids := got.BindingMap()["req"]; len(ids) != 1 || ids[0] != "A1-req" {
				t.Errorf("%s: bindings = %v", app, got.Bindings)
			}
			if ids := got.BindingMap()["apprv"]; len(ids) != 1 {
				t.Errorf("%s: approval binding = %v", app, got.Bindings)
			}
		}
		if wantV == rules.Violated {
			if ids := got.BindingMap()["req"]; len(ids) != 1 {
				t.Errorf("%s: violated bindings = %v", app, got.Bindings)
			}
			if len(got.Notes) == 0 || !strings.Contains(got.Notes[0], "does not embed") {
				t.Errorf("%s: notes = %v", app, got.Notes)
			}
		}
	}
}

func TestPatternControlMaterializes(t *testing.T) {
	f := newFixture(t, true)
	pc, err := NewPatternControl(gmPattern(t), "req", "")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(f.st, f.vocab, Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.DeployEvaluator("gm-subgraph", "subgraph", pc, ""); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)
	if _, err := reg.Check("A1"); err != nil {
		t.Fatal(err)
	}
	cp := f.st.Node("cp-gm-subgraph-A1")
	if cp == nil || cp.Attr("status").Str() != "satisfied" {
		t.Fatalf("materialized pattern control = %v", cp)
	}
	// Fig 2: the control links to both matched vertices.
	err = f.st.View(func(g *provenance.Graph) error {
		for _, tgt := range []string{"A1-req", "A1-ap"} {
			if !g.HasEdge(cp.ID, ChecksRelation, tgt) {
				t.Errorf("checks edge to %s missing", tgt)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPatternControlValidation(t *testing.T) {
	if _, err := NewPatternControl(nil, "x", ""); err == nil {
		t.Error("nil pattern accepted")
	}
	p := gmPattern(t)
	if _, err := NewPatternControl(p, "ghost", ""); err == nil {
		t.Error("unknown subject accepted")
	}
	pc, err := NewPatternControl(p, "req", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pc.Text(), "pattern{") {
		t.Errorf("default text = %q", pc.Text())
	}
	pc2, _ := NewPatternControl(p, "req", "described")
	if pc2.Text() != "described" {
		t.Errorf("source text = %q", pc2.Text())
	}
	f := newFixture(t, false)
	reg, _ := NewRegistry(f.st, f.vocab, Options{})
	if _, err := reg.DeployEvaluator("x", "n", nil, ""); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := reg.DeployEvaluator("", "n", pc, ""); err == nil {
		t.Error("empty ID accepted")
	}
}
