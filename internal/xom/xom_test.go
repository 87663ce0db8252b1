package xom

import (
	"testing"

	"repro/internal/provenance"
)

func testModel(t testing.TB) *provenance.Model {
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
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "dept", Kind: provenance.KindString}))
	must(m.AddRelation(&provenance.RelationDef{Name: "submitterOf", SourceType: "person", TargetType: "jobRequisition"}))
	must(m.AddRelation(&provenance.RelationDef{Name: "touches", SourceType: "person"}))
	return m
}

func TestFromModelGeneratesClasses(t *testing.T) {
	om, err := FromModel(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	classes := om.Classes()
	if len(classes) != 2 || classes[0].Name != "person" || classes[1].Name != "jobRequisition" {
		t.Fatalf("classes = %v", classes)
	}
	c := om.Class("jobRequisition")
	if c == nil || c.NodeClass != provenance.ClassData {
		t.Fatalf("class lookup = %+v", c)
	}
	f := c.Field("reqID")
	if f == nil || f.Kind != provenance.KindString {
		t.Fatalf("field = %+v", f)
	}
	if c.Field("ghost") != nil {
		t.Error("ghost field found")
	}
	fields := om.Class("person").Fields()
	if len(fields) != 2 || fields[0].Name != "name" {
		t.Fatalf("fields order = %v", fields)
	}
	if om.Class("missing") != nil {
		t.Error("missing class found")
	}
	if om.Model() == nil {
		t.Error("Model() nil")
	}
}

func TestFromModelGeneratesRelationAccessors(t *testing.T) {
	om, err := FromModel(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	person := om.Class("person")
	fwd := person.Relation("submitterOf")
	if fwd == nil || fwd.Dir != provenance.Out || fwd.TargetType != "jobRequisition" {
		t.Fatalf("forward accessor = %+v", fwd)
	}
	req := om.Class("jobRequisition")
	rev := req.Relation("submitterOfInverse")
	if rev == nil || rev.Dir != provenance.In || rev.TargetType != "person" {
		t.Fatalf("reverse accessor = %+v", rev)
	}
	// "touches" has no target type: forward accessor only.
	if person.Relation("touches") == nil {
		t.Error("unconstrained forward accessor missing")
	}
	rels := person.Relations()
	if len(rels) != 2 {
		t.Fatalf("person relations = %v", rels)
	}
	if _, err := FromModel(nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestFieldGet(t *testing.T) {
	om, err := FromModel(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	n := &provenance.Node{ID: "r1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("REQ1")})}
	f := om.Class("jobRequisition").Field("reqID")
	if got := f.Get(n); got.Str() != "REQ1" {
		t.Fatalf("Get = %v", got)
	}
	// Missing attribute: zero value, not panic.
	if got := om.Class("jobRequisition").Field("dept").Get(n); !got.IsZero() {
		t.Fatalf("missing attr Get = %v", got)
	}
}

func TestNavigate(t *testing.T) {
	om, err := FromModel(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	g := provenance.NewGraph()
	p := &provenance.Node{ID: "p1", Class: provenance.ClassResource, Type: "person", AppID: "A"}
	r1 := &provenance.Node{ID: "r1", Class: provenance.ClassData, Type: "jobRequisition", AppID: "A"}
	r2 := &provenance.Node{ID: "r2", Class: provenance.ClassData, Type: "jobRequisition", AppID: "A"}
	for _, n := range []*provenance.Node{p, r1, r2} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for i, tgt := range []string{"r1", "r2"} {
		e := &provenance.Edge{ID: string(rune('a' + i)), Type: "submitterOf", AppID: "A",
			Source: "p1", Target: tgt}
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	fwd := om.Class("person").Relation("submitterOf")
	got := Navigate(g, p, fwd)
	if len(got) != 2 || got[0].ID != "r1" || got[1].ID != "r2" {
		t.Fatalf("Navigate forward = %v", got)
	}
	rev := om.Class("jobRequisition").Relation("submitterOfInverse")
	back := Navigate(g, r1, rev)
	if len(back) != 1 || back[0].ID != "p1" {
		t.Fatalf("Navigate reverse = %v", back)
	}
	if Navigate(nil, p, fwd) != nil || Navigate(g, nil, fwd) != nil || Navigate(g, p, nil) != nil {
		t.Error("nil inputs not handled")
	}
}

func TestNavigateFiltersTargetType(t *testing.T) {
	m := provenance.NewModel("m")
	if err := m.AddType(&provenance.TypeDef{Name: "person", Class: provenance.ClassResource}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddType(&provenance.TypeDef{Name: "doc", Class: provenance.ClassData}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddType(&provenance.TypeDef{Name: "task", Class: provenance.ClassTask}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRelation(&provenance.RelationDef{Name: "touches", SourceType: "person"}); err != nil {
		t.Fatal(err)
	}
	om, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	g := provenance.NewGraph()
	nodes := []*provenance.Node{
		{ID: "p", Class: provenance.ClassResource, Type: "person", AppID: "A"},
		{ID: "d", Class: provenance.ClassData, Type: "doc", AppID: "A"},
		{ID: "t", Class: provenance.ClassTask, Type: "task", AppID: "A"},
	}
	for _, n := range nodes {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for i, tgt := range []string{"d", "t"} {
		e := &provenance.Edge{ID: string(rune('a' + i)), Type: "touches", AppID: "A", Source: "p", Target: tgt}
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	// Unconstrained accessor reaches both.
	all := Navigate(g, nodes[0], om.Class("person").Relation("touches"))
	if len(all) != 2 {
		t.Fatalf("unconstrained navigate = %v", all)
	}
	// A manually-built constrained accessor filters by type.
	onlyDocs := Navigate(g, nodes[0], &Relation{Name: "touchesDocs", EdgeType: "touches",
		Dir: provenance.Out, TargetType: "doc"})
	if len(onlyDocs) != 1 || onlyDocs[0].ID != "d" {
		t.Fatalf("constrained navigate = %v", onlyDocs)
	}
}

func TestRegisterMethodAndCall(t *testing.T) {
	om, err := FromModel(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's example: getManagerGen resolves the general manager from
	// a <dept, manager> hashtable.
	table := map[string]string{"dept501": "Jane Smith"}
	m := LookupTableMethod("getManagerGen", "dept", table)
	if err := om.RegisterMethod("jobRequisition", m); err != nil {
		t.Fatal(err)
	}
	table["dept501"] = "MUTATED" // must not affect the registered method

	got := om.Class("jobRequisition").Method("getManagerGen")
	if got == nil || got.Kind != provenance.KindString {
		t.Fatalf("method = %+v", got)
	}
	n := &provenance.Node{ID: "r1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"dept": provenance.String("dept501")})}
	v, err := Call(nil, n, got)
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "Jane Smith" {
		t.Fatalf("Call = %v", v)
	}
	// Unknown key or missing key attribute: unknown, not error.
	n2 := n.Clone()
	n2.SetAttr("dept", provenance.String("dept999"))
	if v, err := Call(nil, n2, got); err != nil || !v.IsZero() {
		t.Fatalf("unknown key: %v, %v", v, err)
	}
	n3 := &provenance.Node{ID: "r3", Class: provenance.ClassData, Type: "jobRequisition", AppID: "A"}
	if v, err := Call(nil, n3, got); err != nil || !v.IsZero() {
		t.Fatalf("missing key attr: %v, %v", v, err)
	}
	if v, err := Call(nil, nil, got); err != nil || !v.IsZero() {
		t.Fatalf("nil instance: %v, %v", v, err)
	}
	if _, err := Call(nil, n, nil); err == nil {
		t.Error("nil method accepted")
	}
	if len(om.Class("jobRequisition").Methods()) != 1 {
		t.Error("Methods() wrong")
	}
}

func TestRegisterMethodValidation(t *testing.T) {
	om, err := FromModel(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	fn := func(*provenance.Graph, *provenance.Node) (provenance.Value, error) {
		return provenance.Value{}, nil
	}
	cases := []struct {
		class string
		m     *Method
	}{
		{"ghost", &Method{Name: "m", Kind: provenance.KindString, Fn: fn}},
		{"person", &Method{Name: "", Kind: provenance.KindString, Fn: fn}},
		{"person", &Method{Name: "m", Fn: fn}},
		{"person", &Method{Name: "m", Kind: provenance.KindString}},
		{"person", &Method{Name: "name", Kind: provenance.KindString, Fn: fn}}, // collides with field
	}
	for i, c := range cases {
		if err := om.RegisterMethod(c.class, c.m); err == nil {
			t.Errorf("case %d: invalid method accepted", i)
		}
	}
	ok := &Method{Name: "m", Kind: provenance.KindString, Fn: fn}
	if err := om.RegisterMethod("person", ok); err != nil {
		t.Fatal(err)
	}
	if err := om.RegisterMethod("person", ok); err == nil {
		t.Error("duplicate method accepted")
	}
}
