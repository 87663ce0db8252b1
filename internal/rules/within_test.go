package rules

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/xom"
)

// reviewVocab builds a minimal model with captured timestamps for the
// windowed-predicate tests: a submission whose review must be decided
// within a deadline.
func reviewVocab(t testing.TB) *bom.Vocabulary {
	t.Helper()
	m := provenance.NewModel("review")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "submission", Class: provenance.ClassData}))
	must(m.AddField("submission", &provenance.FieldDef{Name: "kind", Kind: provenance.KindString}))
	must(m.AddField("submission", &provenance.FieldDef{Name: "submittedAt", Kind: provenance.KindTime}))
	must(m.AddType(&provenance.TypeDef{Name: "review", Class: provenance.ClassData}))
	must(m.AddField("review", &provenance.FieldDef{Name: "decidedAt", Kind: provenance.KindTime}))
	must(m.AddRelation(&provenance.RelationDef{Name: "reviewOf", SourceType: "review", TargetType: "submission"}))

	om, err := xom.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := bom.Verbalize(om, bom.Options{
		MemberLabels: map[string]string{
			"submission.submittedAt":     "submission time",
			"review.decidedAt":           "decision time",
			"submission.reviewOfInverse": "review",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const deadlineControl = `
definitions
  set 'the sub' to a submission ;
if
  the decision time of the review of 'the sub'
  is within 2 days of the submission time of 'the sub'
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "review decided outside the 48-hour window" ;
`

// buildReviewTrace writes one submission (and optionally its review) into
// a fresh graph. decidedAt zero omits the review's timestamp.
func buildReviewTrace(t testing.TB, g *provenance.Graph, app string, submittedAt, decidedAt time.Time, withReview bool) {
	t.Helper()
	sub := &provenance.Node{ID: app + "-sub", Class: provenance.ClassData,
		Type: "submission", AppID: app,
		Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"kind":        provenance.String("standard"),
			"submittedAt": provenance.Time(submittedAt),
		})}
	if err := g.AddNode(sub); err != nil {
		t.Fatal(err)
	}
	if !withReview {
		return
	}
	rv := &provenance.Node{ID: app + "-rev", Class: provenance.ClassData,
		Type: "review", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{})}
	if !decidedAt.IsZero() {
		rv.SetAttr("decidedAt", provenance.Time(decidedAt))
	}
	if err := g.AddNode(rv); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&provenance.Edge{ID: app + "-e", Type: "reviewOf", AppID: app,
		Source: app + "-rev", Target: app + "-sub"}); err != nil {
		t.Fatal(err)
	}
}

func TestWithinEvaluation(t *testing.T) {
	c, err := Compile(deadlineControl, reviewVocab(t))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2011, 4, 11, 9, 0, 0, 0, time.UTC)

	cases := []struct {
		name      string
		decidedAt time.Time
		review    bool
		want      Verdict
	}{
		{"inside window", base.Add(47 * time.Hour), true, Satisfied},
		{"exactly at window", base.Add(48 * time.Hour), true, Satisfied},
		{"outside window", base.Add(49 * time.Hour), true, Violated},
		{"decided before submission", base.Add(-1 * time.Hour), true, Satisfied},
		{"timestamp not captured", time.Time{}, true, Indeterminate},
		{"review missing", time.Time{}, false, Indeterminate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := provenance.NewGraph()
			buildReviewTrace(t, g, "A1", base, tc.decidedAt, tc.review)
			res := c.Evaluate(g, "A1")
			if res.Verdict != tc.want {
				t.Fatalf("verdict = %v, want %v (notes: %v)", res.Verdict, tc.want, res.Notes())
			}
			if tc.want == Violated && len(res.Alerts) != 1 {
				t.Fatalf("alerts = %v", res.Alerts)
			}
		})
	}
}

func TestWithinWindowSpec(t *testing.T) {
	c, err := Compile(deadlineControl, reviewVocab(t))
	if err != nil {
		t.Fatal(err)
	}
	wins := c.Windows()
	if len(wins) != 1 {
		t.Fatalf("windows = %d, want 1", len(wins))
	}
	w := wins[0]
	if w.Window != 48*time.Hour {
		t.Fatalf("window width = %v, want 48h", w.Window)
	}
	if w.AnchorAny || w.TargetAny {
		t.Fatalf("statically bounded sides flagged any: %+v", w)
	}
	if len(w.Anchor) != 1 || w.Anchor[0] != (TimeRef{Type: "submission", Field: "submittedAt"}) {
		t.Fatalf("anchor refs = %+v", w.Anchor)
	}
	if len(w.Target) != 1 || w.Target[0] != (TimeRef{Type: "review", Field: "decidedAt"}) {
		t.Fatalf("target refs = %+v", w.Target)
	}
}

func TestWithinFootprint(t *testing.T) {
	c, err := Compile(deadlineControl, reviewVocab(t))
	if err != nil {
		t.Fatal(err)
	}
	fp := c.Footprint()
	if fp == nil || fp.Wildcard() {
		t.Fatalf("footprint = %v", fp)
	}
	rev := &provenance.Node{ID: "x", Type: "review", AppID: "A1"}
	if !fp.AffectedByNode(rev, nil) {
		t.Error("navigated review node not affected")
	}
	sub := &provenance.Node{ID: "y", Type: "submission", AppID: "A1"}
	if !fp.AffectedByNode(sub, nil) {
		t.Error("binder submission node not affected")
	}
	other := &provenance.Node{ID: "z", Type: "unrelated", AppID: "A1"}
	if fp.AffectedByNode(other, nil) {
		t.Error("unrelated node type claimed affected")
	}
	if !fp.AffectedByEdge("reviewOf") {
		t.Error("navigated reviewOf edge not affected")
	}
	if fp.AffectedByEdge("ghostRel") {
		t.Error("unknown edge type claimed affected")
	}
}

func TestWithinRejectsNonTimeOperands(t *testing.T) {
	bad := `
definitions
  set 'the sub' to a submission ;
if
  the kind of 'the sub' is within 2 days of the submission time of 'the sub'
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`
	_, err := Compile(bad, reviewVocab(t))
	if err == nil {
		t.Fatal("string operand accepted by is-within")
	}
	if !strings.Contains(err.Error(), "timestamp") {
		t.Fatalf("error does not mention timestamps: %v", err)
	}
}
