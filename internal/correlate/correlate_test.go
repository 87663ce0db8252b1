package correlate

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
)

func testModel(t testing.TB) *provenance.Model {
	t.Helper()
	m := provenance.NewModel("test")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "person", Class: provenance.ClassResource}))
	must(m.AddField("person", &provenance.FieldDef{Name: "name", Kind: provenance.KindString}))
	must(m.AddField("person", &provenance.FieldDef{Name: "email", Kind: provenance.KindString}))
	must(m.AddField("person", &provenance.FieldDef{Name: "manager", Kind: provenance.KindString}))
	must(m.AddType(&provenance.TypeDef{Name: "submission", Class: provenance.ClassTask}))
	must(m.AddField("submission", &provenance.FieldDef{Name: "actorEmail", Kind: provenance.KindString}))
	must(m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddType(&provenance.TypeDef{Name: "approvalStatus", Class: provenance.ClassData}))
	must(m.AddField("approvalStatus", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddField("approvalStatus", &provenance.FieldDef{Name: "approved", Kind: provenance.KindBool}))
	must(m.AddRelation(&provenance.RelationDef{Name: "approvalOf", SourceType: "approvalStatus", TargetType: "jobRequisition"}))
	must(m.AddRelation(&provenance.RelationDef{Name: "actor", SourceType: "person", TargetType: "submission"}))
	must(m.AddRelation(&provenance.RelationDef{Name: "managerOf", SourceType: "person", TargetType: "person"}))
	must(m.AddRelation(&provenance.RelationDef{Name: "nextTask"}))
	return m
}

func testStore(t testing.TB) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t testing.TB, s *store.Store, n *provenance.Node) {
	t.Helper()
	if err := s.PutNode(n); err != nil {
		t.Fatal(err)
	}
}

func approvalJoin() *KeyJoin {
	return &KeyJoin{
		RuleName: "approval-join", EdgeType: "approvalOf",
		SourceType: "approvalStatus", SourceField: "reqID",
		TargetType: "jobRequisition", TargetField: "reqID",
	}
}

func TestKeyJoinDerivesEdges(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "req1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	put(t, s, &provenance.Node{ID: "app1", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"reqID": provenance.String("R1"), "approved": provenance.Bool(true)})})
	// Unrelated approval: different key, must not join.
	put(t, s, &provenance.Node{ID: "app2", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R99")})})
	// Approval without a key: must not join.
	put(t, s, &provenance.Node{ID: "app3", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "A"})

	e, err := NewEngine(s, approvalJoin())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	var has bool
	err = s.View(func(g *provenance.Graph) error {
		has = g.HasEdge("app1", "approvalOf", "req1")
		if g.NumEdges() != 1 {
			return fmt.Errorf("derived %d edges, want 1", g.NumEdges())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !has {
		t.Fatal("approvalOf edge missing")
	}
	st := e.Stats()
	if st.EdgesDerived != 1 || st.TracesProcessed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyJoinIsIdempotent(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "req1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	put(t, s, &provenance.Node{ID: "app1", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	e, err := NewEngine(s, approvalJoin())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.RunTrace("A"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Edges; got != 1 {
		t.Fatalf("edges after 3 runs = %d, want 1", got)
	}
}

func TestKeyJoinRespectsTraceBoundary(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "req1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	// Same key but another trace: must not join.
	put(t, s, &provenance.Node{ID: "app1", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "B", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	e, err := NewEngine(s, approvalJoin())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Edges; got != 0 {
		t.Fatalf("cross-trace join produced %d edges", got)
	}
}

func TestManagerSelfJoinExcludesSelf(t *testing.T) {
	// A person whose manager field equals their own name must not get a
	// managerOf self loop (the graph would reject it anyway; the rule
	// filters it first).
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "p1", Class: provenance.ClassResource, Type: "person",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"name": provenance.String("Root Boss"), "manager": provenance.String("Root Boss")})})
	put(t, s, &provenance.Node{ID: "p2", Class: provenance.ClassResource, Type: "person",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"name": provenance.String("Joe"), "manager": provenance.String("Root Boss")})})
	mgr := &KeyJoin{RuleName: "mgr", EdgeType: "managerOf",
		SourceType: "person", SourceField: "name",
		TargetType: "person", TargetField: "manager"}
	e, err := NewEngine(s, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	err = s.View(func(g *provenance.Graph) error {
		if !g.HasEdge("p1", "managerOf", "p2") {
			return fmt.Errorf("managerOf p1->p2 missing")
		}
		if g.NumEdges() != 1 {
			return fmt.Errorf("edges = %d, want 1", g.NumEdges())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTemporalOrder(t *testing.T) {
	s := testStore(t)
	base := time.Unix(10000, 0).UTC()
	for i, id := range []string{"t-c", "t-a", "t-b"} {
		put(t, s, &provenance.Node{ID: id, Class: provenance.ClassTask, Type: "submission",
			AppID: "A", Timestamp: base.Add(time.Duration(2-i) * time.Minute)})
	}
	// Order by timestamp: t-b (base), t-a (base+1m), t-c (base+2m).
	e, err := NewEngine(s, &TemporalOrder{RuleName: "order", EdgeType: "nextTask"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	err = s.View(func(g *provenance.Graph) error {
		if !g.HasEdge("t-b", "nextTask", "t-a") || !g.HasEdge("t-a", "nextTask", "t-c") {
			return fmt.Errorf("chain wrong: %v", g.AllEdges(provenance.EdgeFilter{}))
		}
		if g.NumEdges() != 2 {
			return fmt.Errorf("edges = %d", g.NumEdges())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTemporalOrderTiesBrokenByID(t *testing.T) {
	s := testStore(t)
	ts := time.Unix(500, 0).UTC()
	put(t, s, &provenance.Node{ID: "t2", Class: provenance.ClassTask, Type: "submission", AppID: "A", Timestamp: ts})
	put(t, s, &provenance.Node{ID: "t1", Class: provenance.ClassTask, Type: "submission", AppID: "A", Timestamp: ts})
	e, err := NewEngine(s, &TemporalOrder{RuleName: "order", EdgeType: "nextTask"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	err = s.View(func(g *provenance.Graph) error {
		if !g.HasEdge("t1", "nextTask", "t2") {
			return fmt.Errorf("deterministic tie-break violated")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFuncRule(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "p1", Class: provenance.ClassResource, Type: "person", AppID: "A",
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"email": provenance.String("j@x.com")})})
	put(t, s, &provenance.Node{ID: "t1", Class: provenance.ClassTask, Type: "submission", AppID: "A",
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"actorEmail": provenance.String("j@x.com")})})
	rule := &Func{RuleName: "actor-fn", Fn: func(g *provenance.Graph, appID string) []*provenance.Edge {
		var res []*provenance.Edge
		for _, task := range g.Nodes(provenance.NodeFilter{Class: provenance.ClassTask, AppID: appID}) {
			email := task.Attr("actorEmail")
			if email.IsZero() {
				continue
			}
			for _, p := range g.Nodes(provenance.NodeFilter{Type: "person", AppID: appID}) {
				if p.Attr("email").Equal(email) {
					res = append(res, &provenance.Edge{Type: "actor", Source: p.ID, Target: task.ID})
				}
			}
		}
		return res
	}}
	e, err := NewEngine(s, rule)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	err = s.View(func(g *provenance.Graph) error {
		if !g.HasEdge("p1", "actor", "t1") {
			return fmt.Errorf("actor edge missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	s := testStore(t)
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewEngine(s, &Func{RuleName: ""}); err == nil {
		t.Error("empty rule name accepted")
	}
	if _, err := NewEngine(s, approvalJoin(), approvalJoin()); err == nil {
		t.Error("duplicate rule names accepted")
	}
	bad := &Func{RuleName: "bad", Fn: func(*provenance.Graph, string) []*provenance.Edge {
		return []*provenance.Edge{{Type: "approvalOf"}} // missing endpoints
	}}
	e, err := NewEngine(s, bad)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, &provenance.Node{ID: "x", Class: provenance.ClassData, Type: "jobRequisition", AppID: "A"})
	if err := e.RunTrace("A"); err == nil {
		t.Error("malformed derived edge accepted")
	}
}

// TestDeriveIsPure: Derive writes nothing, names an edge after what it
// asserts (the same edge gets the same ID from any derivation) and works
// against an Overlay holding a node the store has not seen.
func TestDeriveIsPure(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "req1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	app1 := &provenance.Node{ID: "app1", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})}
	e, err := NewEngine(s, approvalJoin())
	if err != nil {
		t.Fatal(err)
	}
	derive := func(extra ...*provenance.Node) store.Batch {
		t.Helper()
		var d store.Batch
		if err := s.View(func(g *provenance.Graph) (err error) {
			d, err = e.Derive(g.Overlay("A", extra), "A")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq := s.Stats().Seq
	if d := derive(); len(d.Edges) != 0 {
		t.Fatalf("derived %v from a lone requisition", d.Edges)
	}
	first, again := derive(app1), derive(app1)
	if len(first.Edges) != 1 || len(again.Edges) != 1 || first.Edges[0].ID != again.Edges[0].ID {
		t.Fatalf("derivations disagree: %v vs %v", first.Edges, again.Edges)
	}
	if ed := first.Edges[0]; ed.Source != "app1" || ed.Target != "req1" || ed.AppID != "A" || ed.ID == "" {
		t.Fatalf("derived edge = %+v", ed)
	}
	if s.Stats().Seq != seq || s.Node("app1") != nil {
		t.Fatal("Derive wrote to the store")
	}
	// Committed with its node, the edge is no longer missing.
	res := s.Commit(store.Batch{Nodes: []*provenance.Node{app1}, Edges: first.Edges})
	if err := e.Settle(first, res); err != nil || res.Nodes[0] != nil {
		t.Fatalf("commit: %v / %v", err, res.Nodes[0])
	}
	if d := derive(); len(d.Edges) != 0 {
		t.Fatalf("re-derived %v", d.Edges)
	}
	// The same edge committed again is a duplicate ID, which Settle reads
	// as "already there", not as a failure.
	res = s.Commit(store.Batch{Edges: first.Edges})
	if !errors.Is(res.Edges[0], provenance.ErrDuplicate) {
		t.Fatalf("second commit of the edge: %v", res.Edges[0])
	}
	if err := e.Settle(first, res); err != nil {
		t.Fatalf("duplicate settled as %v", err)
	}
	if st := e.Stats(); st.EdgesDerived != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeriveSkipsLegacyEdges: an edge recorded under a counter-allocated
// ID (logs written before IDs were derived from the edge) still satisfies
// its rule — existence is decided by (source, type, target), not by ID.
func TestDeriveSkipsLegacyEdges(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "req1", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	put(t, s, &provenance.Node{ID: "app1", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("R1")})})
	if err := s.PutEdge(&provenance.Edge{ID: "cr-approval-join-1", Type: "approvalOf", AppID: "A",
		Source: "app1", Target: "req1"}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s, approvalJoin())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Edges; got != 1 {
		t.Fatalf("edges = %d, want the legacy one only", got)
	}
}

// TestRunTraceSurfacesRejectedEdge: a derived edge the store rejects is
// counted and returned, not dropped.
func TestRunTraceSurfacesRejectedEdge(t *testing.T) {
	s := testStore(t)
	put(t, s, &provenance.Node{ID: "p1", Class: provenance.ClassResource, Type: "person", AppID: "A"})
	put(t, s, &provenance.Node{ID: "t1", Class: provenance.ClassTask, Type: "submission", AppID: "A"})
	// approvalOf is declared approvalStatus -> jobRequisition.
	bad := &Func{RuleName: "bad", Fn: func(*provenance.Graph, string) []*provenance.Edge {
		return []*provenance.Edge{{Type: "approvalOf", Source: "p1", Target: "t1"}}
	}}
	e, err := NewEngine(s, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err == nil {
		t.Fatal("mistyped derived edge accepted")
	}
	if st := e.Stats(); st.Errors != 1 || st.EdgesDerived != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkKeyJoinTrace(b *testing.B) {
	s, err := store.Open(store.Options{Model: testModel(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		n := &provenance.Node{ID: fmt.Sprintf("req%d", i), Class: provenance.ClassData,
			Type: "jobRequisition", AppID: "A",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String(fmt.Sprintf("R%d", i))})}
		if err := s.PutNode(n); err != nil {
			b.Fatal(err)
		}
		a := &provenance.Node{ID: fmt.Sprintf("app%d", i), Class: provenance.ClassData,
			Type: "approvalStatus", AppID: "A",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String(fmt.Sprintf("R%d", i))})}
		if err := s.PutNode(a); err != nil {
			b.Fatal(err)
		}
	}
	e, err := NewEngine(s, approvalJoin())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunTrace("A"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKeyJoinMatchesEqualNumbers: a join on a numeric key relates exactly
// the Equal values — not two integers past 2^53 that round to one float,
// but 0 and -0, and never NaN.
func TestKeyJoinMatchesEqualNumbers(t *testing.T) {
	g := provenance.NewGraph()
	vals := map[string]provenance.Value{
		"big":    provenance.Int(1 << 53),
		"big1":   provenance.Int(1<<53 + 1),
		"zero":   provenance.Int(0),
		"negz":   provenance.Float(math.Copysign(0, -1)),
		"nan":    provenance.Float(math.NaN()),
		"bigflt": provenance.Float(1 << 53),
	}
	for name, v := range vals {
		for _, typ := range []string{"src", "dst"} {
			n := &provenance.Node{ID: typ + "-" + name, Class: provenance.ClassData, Type: typ, AppID: "A",
				Attrs: provenance.Attrs{{Name: "k", Value: v}}}
			if err := g.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	join := &KeyJoin{RuleName: "k", EdgeType: "sameK", SourceType: "src", SourceField: "k", TargetType: "dst", TargetField: "k"}
	got := map[string]bool{}
	for _, e := range join.Derive(g, "A") {
		got[e.Source+">"+e.Target] = true
	}
	for a, va := range vals {
		for b, vb := range vals {
			if pair := "src-" + a + ">dst-" + b; got[pair] != va.Equal(vb) {
				t.Errorf("%s joined %v, Equal says %v", pair, got[pair], va.Equal(vb))
			}
		}
	}
}
