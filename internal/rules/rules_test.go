package rules

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/xom"
)

// hiringVocab builds the full model -> XOM -> BOM chain for the paper's
// hiring example.
func hiringVocab(t testing.TB) *bom.Vocabulary {
	t.Helper()
	m := provenance.NewModel("hiring")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "person", Class: provenance.ClassResource}))
	must(m.AddField("person", &provenance.FieldDef{Name: "name", Kind: provenance.KindString}))
	must(m.AddField("person", &provenance.FieldDef{Name: "manager", Kind: provenance.KindString}))
	must(m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "positionType", Kind: provenance.KindString}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "dept", Kind: provenance.KindString}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "headcount", Kind: provenance.KindInt}))
	must(m.AddType(&provenance.TypeDef{Name: "approvalStatus", Class: provenance.ClassData}))
	must(m.AddField("approvalStatus", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString}))
	must(m.AddField("approvalStatus", &provenance.FieldDef{Name: "approved", Kind: provenance.KindBool}))
	must(m.AddType(&provenance.TypeDef{Name: "candidateList", Class: provenance.ClassData}))
	must(m.AddField("candidateList", &provenance.FieldDef{Name: "count", Kind: provenance.KindInt}))
	must(m.AddRelation(&provenance.RelationDef{Name: "submitterOf", SourceType: "person", TargetType: "jobRequisition"}))
	must(m.AddRelation(&provenance.RelationDef{Name: "approvalOf", SourceType: "approvalStatus", TargetType: "jobRequisition"}))
	must(m.AddRelation(&provenance.RelationDef{Name: "candidatesFor", SourceType: "candidateList", TargetType: "jobRequisition"}))

	om, err := xom.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	must(om.RegisterMethod("jobRequisition",
		xom.LookupTableMethod("getManagerGen", "dept", map[string]string{"dept501": "Jane Smith"})))

	v, err := bom.Verbalize(om, bom.Options{
		ConceptLabels: map[string]string{"jobRequisition": "job requisition"},
		MemberLabels: map[string]string{
			"jobRequisition.reqID":                "requisition ID",
			"jobRequisition.positionType":         "position type",
			"jobRequisition.getManagerGen":        "general manager",
			"jobRequisition.submitterOfInverse":   "submitter",
			"jobRequisition.approvalOfInverse":    "approval",
			"jobRequisition.candidatesForInverse": "candidate list",
			"approvalStatus.approved":             "approved flag",
			"candidateList.count":                 "candidate count",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// traceOpts configures buildTrace to simulate capture gaps.
type traceOpts struct {
	positionType string // "" omits the attribute (not captured)
	approval     bool   // approval node present
	approved     bool
	approvalEdge bool // approvalOf edge present (requires approval)
	candidates   bool
	submitter    bool
	noReq        bool // drop the requisition record entirely
}

func buildTrace(t testing.TB, g *provenance.Graph, app string, o traceOpts) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ts := time.Unix(1000, 0).UTC()
	if !o.noReq {
		req := &provenance.Node{ID: app + "-req", Class: provenance.ClassData,
			Type: "jobRequisition", AppID: app, Timestamp: ts,
			Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"reqID": provenance.String("REQ-" + app),
				"dept":  provenance.String("dept501"),
			})}
		if o.positionType != "" {
			req.SetAttr("positionType", provenance.String(o.positionType))
		}
		must(g.AddNode(req))
	}
	if o.submitter && !o.noReq {
		must(g.AddNode(&provenance.Node{ID: app + "-hm", Class: provenance.ClassResource,
			Type: "person", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"name": provenance.String("Joe Doe"), "manager": provenance.String("Jane Smith")})}))
		must(g.AddEdge(&provenance.Edge{ID: app + "-e-sub", Type: "submitterOf", AppID: app,
			Source: app + "-hm", Target: app + "-req"}))
	}
	if o.approval {
		must(g.AddNode(&provenance.Node{ID: app + "-apprv", Class: provenance.ClassData,
			Type: "approvalStatus", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"reqID": provenance.String("REQ-" + app), "approved": provenance.Bool(o.approved)})}))
		if o.approvalEdge && !o.noReq {
			must(g.AddEdge(&provenance.Edge{ID: app + "-e-app", Type: "approvalOf", AppID: app,
				Source: app + "-apprv", Target: app + "-req"}))
		}
	}
	if o.candidates && !o.noReq {
		must(g.AddNode(&provenance.Node{ID: app + "-cand", Class: provenance.ClassData,
			Type: "candidateList", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"count": provenance.Int(4)})}))
		must(g.AddEdge(&provenance.Edge{ID: app + "-e-cand", Type: "candidatesFor", AppID: app,
			Source: app + "-cand", Target: app + "-req"}))
	}
}

// paperControl is the paper's Section III internal control.
const paperControl = `
definitions
  set 'the current request' to a job requisition ;
if
  the position type of 'the current request' is "new"
  and the approval of 'the current request' exists
  and the approved flag of the approval of 'the current request' is true
  and the candidate list of 'the current request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "new-position requisition is missing approval or candidates" ;
`

func compileOrDie(t testing.TB, text string) *Control {
	t.Helper()
	c, err := Compile(text, hiringVocab(t))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvaluateSatisfied(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	c := compileOrDie(t, paperControl)
	res := c.Evaluate(g, "A1")
	if res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
	if got := res.BindingMap()["the current request"]; len(got) != 1 || got[0] != "A1-req" {
		t.Fatalf("bindings = %v", res.Bindings)
	}
	if len(res.Alerts) != 0 {
		t.Fatalf("alerts = %v", res.Alerts)
	}
}

func TestEvaluateViolatedMissingApproval(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", candidates: true, submitter: true})
	c := compileOrDie(t, paperControl)
	res := c.Evaluate(g, "A1")
	if res.Verdict != Violated {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
	if len(res.Alerts) != 1 || !strings.Contains(res.Alerts[0], "missing approval") {
		t.Fatalf("alerts = %v", res.Alerts)
	}
}

func TestEvaluateSatisfiedExistingPosition(t *testing.T) {
	// For an existing position no approval is needed: the condition's
	// first conjunct is false, so the else branch runs... but the paper's
	// control wants existing positions to be fine. The rule author writes
	// that with an or-guard; here we verify the basic else path fires.
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "existing", submitter: true})
	c := compileOrDie(t, paperControl)
	if res := c.Evaluate(g, "A1"); res.Verdict != Violated {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	guarded := `
definitions
  set 'the current request' to a job requisition ;
if
  the position type of 'the current request' is not "new"
  or the approval of 'the current request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`
	c2 := compileOrDie(t, guarded)
	if res := c2.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("guarded verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
}

func TestEvaluateIndeterminateOnMissingAttribute(t *testing.T) {
	// positionType never captured: comparing it is Unknown, and with the
	// approval conjunct also unknown-free the verdict is Indeterminate —
	// not a false alarm (design decision D1).
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{approval: true, approved: true, approvalEdge: true,
		candidates: true, submitter: true})
	c := compileOrDie(t, paperControl)
	res := c.Evaluate(g, "A1")
	if res.Verdict != Indeterminate {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if len(res.Notes()) == 0 || !strings.Contains(strings.Join(res.Notes(), "\n"), "position type") {
		t.Fatalf("notes = %v", res.Notes())
	}
}

func TestEvaluateNotApplicableWithoutSubject(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{noReq: true, approval: true, approved: true})
	c := compileOrDie(t, paperControl)
	res := c.Evaluate(g, "A1")
	if res.Verdict != NotApplicable {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if len(res.Notes()) == 0 || !strings.Contains(res.Notes()[0], "jobRequisition") {
		t.Fatalf("notes = %v", res.Notes())
	}
}

func TestEvaluateKleeneShortCircuit(t *testing.T) {
	// False AND Unknown must be False (not Indeterminate): the position
	// type is captured and not "new", so the missing approval attr cannot
	// matter.
	src := `
definitions
  set 'r' to a job requisition ;
if
  the position type of 'r' is "new"
  and the approved flag of the approval of 'r' is true
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "existing"})
	c := compileOrDie(t, src)
	res := c.Evaluate(g, "A1")
	if res.Verdict != Violated {
		t.Fatalf("verdict = %v (want definite false -> Violated), notes=%v", res.Verdict, res.Notes())
	}
	// Unknown OR True must be True.
	src2 := `
definitions
  set 'r' to a job requisition ;
if
  the approved flag of the approval of 'r' is true
  or the position type of 'r' is "existing"
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`
	c2 := compileOrDie(t, src2)
	if res := c2.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("or verdict = %v", res.Verdict)
	}
}

func TestEvaluateWhereClauseBinding(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	src := `
definitions
  set 'r' to a job requisition where the requisition ID of this is "REQ-A1" ;
if 'r' exists then the internal control is satisfied ;
`
	c := compileOrDie(t, src)
	if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	srcMiss := `
definitions
  set 'r' to a job requisition where the requisition ID of this is "REQ-OTHER" ;
if 'r' exists then the internal control is satisfied ;
`
	c2 := compileOrDie(t, srcMiss)
	if res := c2.Evaluate(g, "A1"); res.Verdict != NotApplicable {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestEvaluateMethodCall(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", submitter: true})
	src := `
definitions
  set 'r' to a job requisition ;
if the general manager of 'r' is "Jane Smith"
then the internal control is satisfied ;
`
	c := compileOrDie(t, src)
	if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
}

func TestEvaluateRelationChain(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", submitter: true})
	// the manager of the submitter of 'r' follows the submitterOf inverse
	// then reads the manager attribute.
	src := `
definitions
  set 'r' to a job requisition ;
  set 'the hiring manager' to the submitter of 'r' ;
if the manager of 'the hiring manager' is "Jane Smith"
then the internal control is satisfied ;
`
	c := compileOrDie(t, src)
	if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
}

func TestEvaluateArithmetic(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", candidates: true, submitter: true})
	src := `
definitions
  set 'r' to a job requisition ;
if the candidate count of the candidate list of 'r' * 2 is at least 8
then the internal control is satisfied ;
`
	c := compileOrDie(t, src)
	if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
}

func TestEvaluateAllTraces(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	buildTrace(t, g, "A2", traceOpts{positionType: "new", submitter: true})
	c := compileOrDie(t, paperControl)
	results := c.EvaluateAll(g)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].AppID != "A1" || results[0].Verdict != Satisfied {
		t.Fatalf("r0 = %+v", results[0])
	}
	if results[1].AppID != "A2" || results[1].Verdict != Violated {
		t.Fatalf("r1 = %+v", results[1])
	}
}

func TestNodeVars(t *testing.T) {
	c := compileOrDie(t, `
definitions
  set 'r' to a job requisition ;
  set 'the submitter name' to the name of the submitter of 'r' ;
  set 'the approvals' to the approval of 'r' ;
if 'r' exists then the internal control is satisfied ;
`)
	vars := c.NodeVars()
	if len(vars) != 2 || vars[0] != "r" || vars[1] != "the approvals" {
		t.Fatalf("NodeVars = %v", vars)
	}
	if c.Text() == "" {
		t.Error("Text empty")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`if 'ghost' is 1 then the internal control is satisfied ;`, "not defined"},
		{`definitions set 'x' to a person ; set 'x' to a person ;
		  if 'x' exists then the internal control is satisfied ;`, "defined twice"},
		{`definitions set 'x' to a person ;
		  if the position type of 'x' is "new" then the internal control is satisfied ;`, "not defined for"},
		{`definitions set 'x' to a person ;
		  if 'x' is "Joe" then the internal control is satisfied ;`, "cannot compare"},
		{`definitions set 'x' to a job requisition ;
		  if the headcount of 'x' is "five" then the internal control is satisfied ;`, "cannot compare"},
		{`definitions set 'x' to a job requisition ;
		  if the headcount of 'x' contains "5" then the internal control is satisfied ;`, "requires strings"},
		{`definitions set 'x' to a job requisition ;
		  if the headcount of 'x' + "a" is 3 then the internal control is satisfied ;`, "arithmetic requires numbers"},
		{`definitions set 'x' to a job requisition ;
		  if -'x' exists then the internal control is satisfied ;`, "unary minus"},
		{`if this exists then the internal control is satisfied ;`, "where clause"},
		{`definitions set 'x' to a job requisition ;
		  if the approved flag of 'x' is true then the internal control is satisfied ;`, "not defined for"},
		{`definitions set 'x' to a job requisition ;
		  if 'x' is one of "a", "b" then the internal control is satisfied ;`, "requires a value"},
		{`definitions set 'x' to a job requisition ;
		  if the headcount of 'x' is one of "a" then the internal control is satisfied ;`, "cannot compare"},
		{`definitions set 'x' to a job requisition ;
		  if 'x' exists then add alert 42 ; the internal control is satisfied ;`, "must be a string"},
		{`definitions set 'x' to a job requisition ;
		  if the approved flag of the position type of 'x' is true
		  then the internal control is satisfied ;`, "applies to a business object"},
	}
	v := hiringVocab(t)
	for _, c := range cases {
		_, err := Compile(c.src, v)
		if err == nil {
			t.Errorf("Compile(%q) succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Compile(%q) error = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
	if _, err := Compile("if 'x' is 1 then the internal control is satisfied ;", nil); err == nil {
		t.Error("nil vocabulary accepted")
	}
}

func TestEvaluateAmbiguousNavigation(t *testing.T) {
	// Two approvals linked to one requisition: a scalar attribute of "the
	// approval" is ambiguous -> Unknown -> Indeterminate.
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	if err := g.AddNode(&provenance.Node{ID: "A1-apprv2", Class: provenance.ClassData,
		Type: "approvalStatus", AppID: "A1", Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"approved": provenance.Bool(false)})}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&provenance.Edge{ID: "A1-e-app2", Type: "approvalOf", AppID: "A1",
		Source: "A1-apprv2", Target: "A1-req"}); err != nil {
		t.Fatal(err)
	}
	c := compileOrDie(t, paperControl)
	res := c.Evaluate(g, "A1")
	if res.Verdict != Indeterminate {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
	if !strings.Contains(strings.Join(res.Notes(), "\n"), "ambiguous") {
		t.Fatalf("notes = %v", res.Notes())
	}
}

func TestVerdictHelpers(t *testing.T) {
	if !Satisfied.Definite() || !Violated.Definite() {
		t.Error("definite verdicts misreported")
	}
	if Indeterminate.Definite() || NotApplicable.Definite() {
		t.Error("indefinite verdicts misreported")
	}
	names := map[Verdict]string{
		Satisfied: "satisfied", Violated: "violated",
		Indeterminate: "indeterminate", NotApplicable: "not-applicable",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
}

func BenchmarkCompilePaperControl(b *testing.B) {
	v := hiringVocab(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(paperControl, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatePaperControl(b *testing.B) {
	g := provenance.NewGraph()
	buildTrace(b, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	c, err := Compile(paperControl, hiringVocab(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
			b.Fatal(res.Verdict)
		}
	}
}

func TestEvaluateCount(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	src := `
definitions
  set 'r' to a job requisition ;
if the number of the approval of 'r' is 1
   and the number of the candidate list of 'r' is at least 1
then the internal control is satisfied ;
`
	c := compileOrDie(t, src)
	if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
	// Counting an empty navigation is 0, a definite value — no Unknown.
	src2 := `
definitions
  set 'r' to a job requisition ;
if the number of the approval of 'r' is 0
then the internal control is satisfied ;
`
	g2 := provenance.NewGraph()
	buildTrace(t, g2, "A1", traceOpts{positionType: "new", submitter: true})
	c2 := compileOrDie(t, src2)
	if res := c2.Evaluate(g2, "A1"); res.Verdict != Satisfied {
		t.Fatalf("empty count verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
	// Counting a scalar is a compile error.
	bad := `
definitions
  set 'r' to a job requisition ;
if the number of the position type of 'r' is 1
then the internal control is satisfied ;
`
	if _, err := Compile(bad, hiringVocab(t)); err == nil {
		t.Fatal("count over a scalar compiled")
	}
}

// A NaN operand is unordered: comparing it is unknown, with a note, not a
// verdict either way.
func TestEvaluateNaNComparisonIsUnknown(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", candidates: true, submitter: true})
	cand := g.Node("A1-cand").Clone()
	cand.SetAttr("count", provenance.Float(math.NaN()))
	if err := g.UpdateNode(cand); err != nil {
		t.Fatal(err)
	}
	for test, note := range map[string]string{
		"the candidate count of the candidate list of 'r' is at least 1":       "NaN is unordered",
		"the candidate count of the candidate list of 'r' is between 1 and 10": "incomparable values in is-between",
	} {
		src := `
definitions
  set 'r' to a job requisition ;
if ` + test + `
then the internal control is satisfied ;
else the internal control is not satisfied ;
`
		res := compileOrDie(t, src).Evaluate(g, "A1")
		if res.Verdict != Indeterminate {
			t.Errorf("%s: verdict = %v, notes = %v", test, res.Verdict, res.Notes())
		}
		if !strings.Contains(strings.Join(res.Notes(), "\n"), note) {
			t.Errorf("%s: notes = %v", test, res.Notes())
		}
	}
}

func TestEvaluateBetween(t *testing.T) {
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", candidates: true, submitter: true})
	src := `
definitions
  set 'r' to a job requisition ;
if the candidate count of the candidate list of 'r' is between 1 and 10
then the internal control is satisfied ;
else the internal control is not satisfied ;
`
	c := compileOrDie(t, src)
	if res := c.Evaluate(g, "A1"); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes())
	}
	srcOut := `
definitions
  set 'r' to a job requisition ;
if the candidate count of the candidate list of 'r' is between 100 and 200
then the internal control is satisfied ;
else the internal control is not satisfied ;
`
	if res := compileOrDie(t, srcOut).Evaluate(g, "A1"); res.Verdict != Violated {
		t.Fatalf("out-of-range verdict = %v", res.Verdict)
	}
	// Unknown operand -> Indeterminate.
	gMissing := provenance.NewGraph()
	buildTrace(t, gMissing, "A1", traceOpts{positionType: "new", submitter: true})
	if res := compileOrDie(t, src).Evaluate(gMissing, "A1"); res.Verdict != Indeterminate {
		t.Fatalf("missing operand verdict = %v", res.Verdict)
	}
	// Type errors are compile-time.
	bad := `
definitions
  set 'r' to a job requisition ;
if the position type of 'r' is between 1 and 5
then the internal control is satisfied ;
`
	if _, err := Compile(bad, hiringVocab(t)); err == nil {
		t.Fatal("string between ints compiled")
	}
	badNode := `
definitions
  set 'r' to a job requisition ;
if 'r' is between 1 and 5 then the internal control is satisfied ;
`
	if _, err := Compile(badNode, hiringVocab(t)); err == nil {
		t.Fatal("node between ints compiled")
	}
}
