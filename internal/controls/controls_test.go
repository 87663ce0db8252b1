package controls

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/xom"
)

// fixture bundles the store and vocabulary for the mini hiring model.
type fixture struct {
	st    *store.Store
	vocab *bom.Vocabulary
}

func newFixture(t testing.TB, materializable bool) *fixture {
	t.Helper()
	return newFixtureOpts(t, materializable, store.Options{})
}

// newFixtureOpts is newFixture with caller-supplied store options (minus
// Model, which the fixture owns) — e.g. a Dir for durability tests.
func newFixtureOpts(t testing.TB, materializable bool, sopts store.Options) *fixture {
	t.Helper()
	m := provenance.NewModel("hiring")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "positionType", Kind: provenance.KindString}))
	must(m.AddType(&provenance.TypeDef{Name: "approvalStatus", Class: provenance.ClassData}))
	must(m.AddField("approvalStatus", &provenance.FieldDef{Name: "approved", Kind: provenance.KindBool}))
	must(m.AddRelation(&provenance.RelationDef{Name: "approvalOf", SourceType: "approvalStatus", TargetType: "jobRequisition"}))
	if materializable {
		must(DeclareModel(m))
	}
	om, err := xom.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := bom.Verbalize(om, bom.Options{
		ConceptLabels: map[string]string{"jobRequisition": "job requisition"},
		MemberLabels: map[string]string{
			"jobRequisition.positionType":      "position type",
			"jobRequisition.approvalOfInverse": "approval",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sopts.Model = m
	st, err := store.Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &fixture{st: st, vocab: vocab}
}

func (f *fixture) addTrace(t testing.TB, app string, newPosition, withApproval bool) {
	t.Helper()
	req := &provenance.Node{ID: app + "-req", Class: provenance.ClassData,
		Type: "jobRequisition", AppID: app, Timestamp: time.Unix(100, 0).UTC(),
		Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"reqID":        provenance.String("REQ-" + app),
			"positionType": provenance.String(map[bool]string{true: "new", false: "existing"}[newPosition]),
		})}
	if err := f.st.PutNode(req); err != nil {
		t.Fatal(err)
	}
	if withApproval {
		ap := &provenance.Node{ID: app + "-ap", Class: provenance.ClassData,
			Type: "approvalStatus", AppID: app,
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(true)})}
		if err := f.st.PutNode(ap); err != nil {
			t.Fatal(err)
		}
		e := &provenance.Edge{ID: app + "-e", Type: "approvalOf", AppID: app,
			Source: app + "-ap", Target: app + "-req"}
		if err := f.st.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
}

const gmControl = `
definitions
  set 'the request' to a job requisition ;
if
  the position type of 'the request' is not "new"
  or the approval of 'the request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "general manager approval missing" ;
`

func TestRegistryDeployAndCheck(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := reg.Deploy("gm-approval", "GM approval for new positions", gmControl)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != 1 {
		t.Fatalf("version = %d", cp.Version)
	}
	f.addTrace(t, "A1", true, true)
	f.addTrace(t, "A2", true, false)
	f.addTrace(t, "A3", false, false)

	outcomes, err := reg.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	byApp := map[string]rules.Verdict{}
	for _, o := range outcomes {
		byApp[o.Result.AppID] = o.Result.Verdict
	}
	if byApp["A1"] != rules.Satisfied || byApp["A2"] != rules.Violated || byApp["A3"] != rules.Satisfied {
		t.Fatalf("verdicts = %v", byApp)
	}
}

func TestRegistryRedeployBumpsVersion(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("c1", "v1", gmControl); err != nil {
		t.Fatal(err)
	}
	cp, err := reg.Deploy("c1", "", gmControl)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != 2 || cp.Name != "v1" {
		t.Fatalf("redeploy = %+v", cp)
	}
	if got := len(reg.List()); got != 1 {
		t.Fatalf("List = %d", got)
	}
	if reg.Get("c1") == nil || reg.Get("ghost") != nil {
		t.Fatal("Get misbehaves")
	}
}

func TestRegistryDeployRejectsBadRule(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("bad", "x", "if nonsense then garbage"); err == nil {
		t.Fatal("bad rule deployed")
	}
	if _, err := reg.Deploy("", "x", gmControl); err == nil {
		t.Fatal("empty ID accepted")
	}
	if len(reg.List()) != 0 {
		t.Fatal("failed deploy left residue")
	}
}

func TestRegistryRemove(t *testing.T) {
	f := newFixture(t, false)
	reg, _ := NewRegistry(f.st, f.vocab, Options{})
	if _, err := reg.Deploy("c1", "x", gmControl); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("c1"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if len(reg.List()) != 0 {
		t.Fatal("control not removed")
	}
}

func TestMaterializeFig2Subgraph(t *testing.T) {
	f := newFixture(t, true)
	reg, err := NewRegistry(f.st, f.vocab, Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)
	if _, err := reg.Check("A1"); err != nil {
		t.Fatal(err)
	}
	cp := f.st.Node("cp-gm-approval-A1")
	if cp == nil {
		t.Fatal("control point node not materialized")
	}
	if cp.Class != provenance.ClassCustom || cp.Attr("status").Str() != "satisfied" {
		t.Fatalf("control node = %v", cp)
	}
	err = f.st.View(func(g *provenance.Graph) error {
		if !g.HasEdge("cp-gm-approval-A1", ChecksRelation, "A1-req") {
			return fmt.Errorf("checks edge to requisition missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Re-check after a state change: status updates in place, edges are
	// not duplicated.
	f.addTrace(t, "A2", true, false)
	if _, err := reg.Check("A2"); err != nil {
		t.Fatal(err)
	}
	if got := f.st.Node("cp-gm-approval-A2").Attr("status").Str(); got != "violated" {
		t.Fatalf("A2 status = %q", got)
	}
	before := f.st.Stats().Edges
	if _, err := reg.Check("A1"); err != nil {
		t.Fatal(err)
	}
	if f.st.Stats().Edges != before {
		t.Fatal("re-check duplicated checks edges")
	}

	// A trace the store does not hold gets no control point: checking a
	// mistyped ID must not create it.
	if _, err := reg.Check("A9"); err != nil {
		t.Fatal(err)
	}
	if f.st.Node("cp-gm-approval-A9") != nil || f.st.TraceVersion("A9") != 0 {
		t.Fatal("checking an absent trace materialized it")
	}
}

func TestMaterializeRequiresDeclaredModel(t *testing.T) {
	f := newFixture(t, false)
	if _, err := NewRegistry(f.st, f.vocab, Options{Materialize: true}); err == nil {
		t.Fatal("materializing registry accepted model without controlPoint type")
	}
	if !strings.Contains(fmt.Sprint(func() error {
		_, err := NewRegistry(f.st, f.vocab, Options{Materialize: true})
		return err
	}()), "DeclareModel") {
		t.Error("error does not point at DeclareModel")
	}
}

func TestNewRegistryValidation(t *testing.T) {
	f := newFixture(t, false)
	if _, err := NewRegistry(nil, f.vocab, Options{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewRegistry(f.st, nil, Options{}); err == nil {
		t.Error("nil vocabulary accepted")
	}
}

func TestContinuousChecker(t *testing.T) {
	f := newFixture(t, true)
	reg, err := NewRegistry(f.st, f.vocab, Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	var mu = make(chan []*Outcome, 64)
	ch := NewCheckerOpts(reg, recordFunc(func(o []*Outcome) { mu <- o }), CheckerOptions{})
	ch.Start()
	defer ch.Stop()

	// A new-position requisition arrives without approval: first re-check
	// says violated.
	f.addTrace(t, "A1", true, false)
	waitFor(t, mu, func(o []*Outcome) bool {
		return len(o) == 1 && o[0].Result.AppID == "A1" && o[0].Result.Verdict == rules.Violated
	})
	// The approval record arrives later (out-of-band capture): the next
	// re-check flips the control to satisfied — continuous compliance.
	ap := &provenance.Node{ID: "A1-ap", Class: provenance.ClassData,
		Type: "approvalStatus", AppID: "A1",
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(true)})}
	if err := f.st.PutNode(ap); err != nil {
		t.Fatal(err)
	}
	e := &provenance.Edge{ID: "A1-e", Type: "approvalOf", AppID: "A1",
		Source: "A1-ap", Target: "A1-req"}
	if err := f.st.PutEdge(e); err != nil {
		t.Fatal(err)
	}
	waitFor(t, mu, func(o []*Outcome) bool {
		return len(o) == 1 && o[0].Result.Verdict == rules.Satisfied
	})
	if ch.Checked() == 0 {
		t.Fatal("Checked counter stuck at zero")
	}
	if got := ch.Latest(); len(got) == 0 {
		t.Fatal("Latest empty")
	}
	// The checker's own materialization writes must not re-trigger it
	// forever: after draining, the count stabilizes.
	ch.Stop()
	ch.Stop() // idempotent
}

// recordFunc observes a checker with a function of its outcomes and
// ignores dropped traces.
type recordFunc func([]*Outcome)

func (f recordFunc) Record(out []*Outcome) { f(out) }
func (recordFunc) Forget(...string)        {}

func waitFor(t *testing.T, ch chan []*Outcome, ok func([]*Outcome) bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case o := <-ch:
			if ok(o) {
				return
			}
		case <-deadline:
			t.Fatal("condition never reached")
		}
	}
}

func BenchmarkRegistryCheck(b *testing.B) {
	f := newFixture(b, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f.addTrace(b, fmt.Sprintf("A%03d", i), i%2 == 0, i%3 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Check("A050"); err != nil {
			b.Fatal(err)
		}
	}
}
