package rules

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/provenance"
)

// FuzzFootprintDiscrimination drives the delta-discrimination soundness
// property: for any single node write (insert or update) and any compiled
// control, if evaluating the control before and after the write yields
// different outcomes, the control's footprint MUST claim the write
// affects it. A false negative here would freeze a stale verdict in the
// delta-driven checker. The converse bound is also held one-sidedly:
// a footprint may only claim "affected" for node types it statically
// depends on (or when it is a wildcard), so false positives stay
// explainable and bounded.

// fuzzControls are the control shapes discrimination must cover: a plain
// binder, a binder with a hoisted equality prefilter, navigation reads,
// and an unboundable method call (wildcard footprint).
var fuzzControlTexts = []string{
	paperControl,
	`definitions
  set 'r' to a job requisition where the position type of this is "new" ;
if the approval of 'r' exists
then the internal control is satisfied ;
else the internal control is not satisfied ; add alert "unapproved new position" ;`,
	`definitions
  set 'r' to a job requisition ;
if the candidate count of the candidate list of 'r' is at least 3
then the internal control is satisfied ;
else the internal control is not satisfied ; add alert "thin slate" ;`,
	`definitions
  set 'r' to a job requisition ;
if the general manager of 'r' is the manager of the submitter of 'r'
then the internal control is satisfied ;
else the internal control is not satisfied ; add alert "wrong approver" ;`,
}

// fuzzVals are the mutable attribute values of one trace build. Indexed
// attributes (reqID) stay constant: the store forbids mutating them and
// discrimination never needs to.
type fuzzVals struct {
	posType   string
	approved  bool
	candCount int64
	name      string
	manager   string
}

// buildFuzzTrace constructs the full hiring trace with the given mutable
// values baked in at construction time (no post-insert mutation, so the
// graph's internal indexes stay consistent).
func buildFuzzTrace(t *testing.T, g *provenance.Graph, v fuzzVals) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	app := "A1"
	must(g.AddNode(&provenance.Node{ID: app + "-req", Class: provenance.ClassData,
		Type: "jobRequisition", AppID: app, Attrs: map[string]provenance.Value{
			"reqID":        provenance.String("REQ-" + app),
			"dept":         provenance.String("dept501"),
			"positionType": provenance.String(v.posType),
		}}))
	must(g.AddNode(&provenance.Node{ID: app + "-hm", Class: provenance.ClassResource,
		Type: "person", AppID: app, Attrs: map[string]provenance.Value{
			"name": provenance.String(v.name), "manager": provenance.String(v.manager)}}))
	must(g.AddEdge(&provenance.Edge{ID: app + "-e-sub", Type: "submitterOf", AppID: app,
		Source: app + "-hm", Target: app + "-req"}))
	must(g.AddNode(&provenance.Node{ID: app + "-apprv", Class: provenance.ClassData,
		Type: "approvalStatus", AppID: app, Attrs: map[string]provenance.Value{
			"reqID": provenance.String("REQ-" + app), "approved": provenance.Bool(v.approved)}}))
	must(g.AddEdge(&provenance.Edge{ID: app + "-e-app", Type: "approvalOf", AppID: app,
		Source: app + "-apprv", Target: app + "-req"}))
	must(g.AddNode(&provenance.Node{ID: app + "-cand", Class: provenance.ClassData,
		Type: "candidateList", AppID: app, Attrs: map[string]provenance.Value{
			"count": provenance.Int(v.candCount)}}))
	must(g.AddEdge(&provenance.Edge{ID: app + "-e-cand", Type: "candidatesFor", AppID: app,
		Source: app + "-cand", Target: app + "-req"}))
}

// fuzzTargets maps the fuzzed type index to the node the update case
// rewrites.
var fuzzTargets = []struct {
	typeName string
	nodeID   string
}{
	{"jobRequisition", "A1-req"},
	{"approvalStatus", "A1-apprv"},
	{"candidateList", "A1-cand"},
	{"person", "A1-hm"},
}

// applyVals rewrites the mutable values of one target type, leaving the
// rest of the trace identical between the pre- and post-image builds.
func applyVals(base fuzzVals, typeIdx int, s string, i int64, b bool) fuzzVals {
	v := base
	switch typeIdx {
	case 0:
		v.posType = s
	case 1:
		v.approved = b
	case 2:
		v.candCount = i
	case 3:
		v.name = s
		v.manager = s + "-mgr"
	}
	return v
}

// outcomeOf projects a Result onto the fields the delta cache would
// freeze: verdict, alerts, bindings.
func outcomeOf(res *Result) any {
	return struct {
		Verdict  Verdict
		Alerts   []string
		Bindings map[string][]string
	}{res.Verdict, res.Alerts, res.BindingMap()}
}

// typeInFootprint reports whether the footprint statically depends on a
// node type (binder probe or navigation read) — the bound on false
// positives.
func typeInFootprint(fp *Footprint, typeName string) bool {
	if _, ok := fp.reads[typeName]; ok {
		return true
	}
	for i := range fp.binders {
		if fp.binders[i].typeName == typeName {
			return true
		}
	}
	return false
}

func FuzzFootprintDiscrimination(f *testing.F) {
	vocab := hiringVocab(f)
	controls := make([]*Control, len(fuzzControlTexts))
	for i, text := range fuzzControlTexts {
		c, err := Compile(text, vocab)
		if err != nil {
			f.Fatalf("control %d: %v", i, err)
		}
		controls[i] = c
	}

	f.Add(uint8(0), uint8(0), false, "new", "existing", int64(4), int64(1), true, false)
	f.Add(uint8(1), uint8(0), false, "existing", "new", int64(4), int64(4), true, true)
	f.Add(uint8(2), uint8(2), false, "new", "new", int64(4), int64(2), true, true)
	f.Add(uint8(3), uint8(3), true, "Joe Doe", "Jane Smith", int64(4), int64(4), true, true)
	f.Add(uint8(0), uint8(1), true, "new", "new", int64(4), int64(4), true, false)

	f.Fuzz(func(t *testing.T, ctrlIdx, typeIdx uint8, insert bool,
		preS, postS string, preI, postI int64, preB, postB bool) {
		ctrl := controls[int(ctrlIdx)%len(controls)]
		ti := int(typeIdx) % len(fuzzTargets)
		target := fuzzTargets[ti]
		base := fuzzVals{posType: preS, approved: preB, candCount: preI,
			name: preS, manager: preS + "-mgr"}

		gBefore := provenance.NewGraph()
		buildFuzzTrace(t, gBefore, base)

		gAfter := provenance.NewGraph()
		var postNode, prevNode *provenance.Node
		if insert {
			// Insert case: the post-image graph carries one extra node of
			// the target type; the write's pre-image is nil.
			buildFuzzTrace(t, gAfter, base)
			postNode = &provenance.Node{ID: "fz-new", Class: provenance.ClassData,
				Type: target.typeName, AppID: "A1",
				Attrs: fuzzAttrs(ti, postS, postI, postB)}
			if err := gAfter.AddNode(postNode); err != nil {
				t.Fatal(err)
			}
		} else {
			// Update case: same trace, the target node's mutable values
			// rewritten between the two builds.
			buildFuzzTrace(t, gAfter, applyVals(base, ti, postS, postI, postB))
			prevNode = gBefore.Node(target.nodeID)
			postNode = gAfter.Node(target.nodeID)
			if prevNode == nil || postNode == nil {
				t.Fatalf("target %s missing from built trace", target.nodeID)
			}
		}

		before := ctrl.Evaluate(gBefore, "A1")
		after := ctrl.Evaluate(gAfter, "A1")
		changed := !reflect.DeepEqual(outcomeOf(before), outcomeOf(after))

		fp := ctrl.Footprint()
		if fp == nil {
			t.Fatal("compiled control without footprint")
		}
		affected := fp.AffectedByNode(postNode, prevNode)

		// Soundness: an outcome change never escapes discrimination.
		if changed && !affected {
			t.Fatalf("false negative: %s write to %s changed outcome (%v -> %v) but footprint %s claims unaffected",
				map[bool]string{true: "insert", false: "update"}[insert],
				target.typeName, before.Verdict, after.Verdict, fp.Describe())
		}
		// Bounded false positives: "affected" claims trace back to a
		// static dependency on the written type (or a wildcard footprint).
		if affected && !fp.Wildcard() && !typeInFootprint(fp, target.typeName) {
			t.Fatalf("unexplained positive: footprint %s claims %s write affects control without depending on the type",
				fp.Describe(), target.typeName)
		}
	})
}

// fuzzAttrs builds the attribute map for an inserted node of the fuzzed
// target type.
func fuzzAttrs(typeIdx int, s string, i int64, b bool) map[string]provenance.Value {
	switch typeIdx {
	case 0:
		return map[string]provenance.Value{
			"reqID":        provenance.String(fmt.Sprintf("REQ-FZ-%d", i)),
			"dept":         provenance.String("dept501"),
			"positionType": provenance.String(s),
		}
	case 1:
		return map[string]provenance.Value{
			"reqID": provenance.String("REQ-A1"), "approved": provenance.Bool(b)}
	case 2:
		return map[string]provenance.Value{"count": provenance.Int(i)}
	default:
		return map[string]provenance.Value{
			"name": provenance.String(s), "manager": provenance.String(s + "-mgr")}
	}
}

// TestFootprintDiscriminationSeeds replays the fuzz seed corpus as a
// plain test so the property runs on every `go test` (the fuzz engine
// only replays f.Add seeds when invoked without -fuzz; this keeps the
// property visible in ordinary CI runs too).
func TestFootprintDiscriminationDirected(t *testing.T) {
	vocab := hiringVocab(t)
	prefiltered, err := Compile(fuzzControlTexts[1], vocab)
	if err != nil {
		t.Fatal(err)
	}
	fp := prefiltered.Footprint()

	// A requisition flipping out of the prefiltered value must be
	// affected (it was bindable before), and one that never matched the
	// prefilter in either image must not be.
	was := &provenance.Node{ID: "r", Type: "jobRequisition", AppID: "A1",
		Attrs: map[string]provenance.Value{"positionType": provenance.String("new")}}
	now := &provenance.Node{ID: "r", Type: "jobRequisition", AppID: "A1",
		Attrs: map[string]provenance.Value{"positionType": provenance.String("existing")}}
	if !fp.AffectedByNode(now, was) {
		t.Error("leaving the prefiltered set not flagged as affecting")
	}
	if !fp.AffectedByNode(was, now) {
		t.Error("entering the prefiltered set not flagged as affecting")
	}
	never := &provenance.Node{ID: "r", Type: "jobRequisition", AppID: "A1",
		Attrs: map[string]provenance.Value{"positionType": provenance.String("existing")}}
	still := &provenance.Node{ID: "r", Type: "jobRequisition", AppID: "A1",
		Attrs: map[string]provenance.Value{"positionType": provenance.String("backfill")}}
	if fp.AffectedByNode(still, never) {
		t.Error("update that never passes the prefilter claimed as affecting")
	}
	// A node missing the prefiltered attribute can still bind (three-
	// valued where): it must stay affected.
	bare := &provenance.Node{ID: "r2", Type: "jobRequisition", AppID: "A1",
		Attrs: map[string]provenance.Value{}}
	if !fp.AffectedByNode(bare, nil) {
		t.Error("insert missing the prefiltered attribute claimed unaffected")
	}
}
