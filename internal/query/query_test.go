package query

import (
	"fmt"
	"strings"
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
	must(m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "positionType", Kind: provenance.KindString}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "headcount", Kind: provenance.KindInt}))
	must(m.AddType(&provenance.TypeDef{Name: "person", Class: provenance.ClassResource}))
	must(m.AddField("person", &provenance.FieldDef{Name: "name", Kind: provenance.KindString}))
	return m
}

func seeded(t testing.TB) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < 20; i++ {
		n := &provenance.Node{
			ID: fmt.Sprintf("r%02d", i), Class: provenance.ClassData, Type: "jobRequisition",
			AppID: fmt.Sprintf("App%d", i%2), Timestamp: time.Unix(int64(i), 0).UTC(),
			Attrs: map[string]provenance.Value{
				"reqID":        provenance.String(fmt.Sprintf("REQ%02d", i)),
				"positionType": provenance.String([]string{"new", "existing"}[i%2]),
				"headcount":    provenance.Int(int64(i)),
			},
		}
		if i == 7 {
			delete(n.Attrs, "positionType") // a partially captured record
		}
		if err := s.PutNode(n); err != nil {
			t.Fatal(err)
		}
	}
	p := &provenance.Node{ID: "p1", Class: provenance.ClassResource, Type: "person", AppID: "App0",
		Attrs: map[string]provenance.Value{"name": provenance.String("Joe Doe")}}
	if err := s.PutNode(p); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPredMatches(t *testing.T) {
	n := &provenance.Node{ID: "x", Class: provenance.ClassData, Type: "jobRequisition", AppID: "A",
		Attrs: map[string]provenance.Value{
			"reqID":     provenance.String("REQ07"),
			"headcount": provenance.Int(5),
		}}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Pred{"reqID", Eq, provenance.String("REQ07")}, true},
		{Pred{"reqID", Eq, provenance.String("REQ08")}, false},
		{Pred{"reqID", Ne, provenance.String("REQ08")}, true},
		{Pred{"reqID", Contains, provenance.String("Q0")}, true},
		{Pred{"reqID", Contains, provenance.String("zz")}, false},
		{Pred{"headcount", Lt, provenance.Int(6)}, true},
		{Pred{"headcount", Le, provenance.Int(5)}, true},
		{Pred{"headcount", Gt, provenance.Int(5)}, false},
		{Pred{"headcount", Ge, provenance.Int(5)}, true},
		{Pred{"headcount", Eq, provenance.Float(5)}, true},
		{Pred{"headcount", Lt, provenance.String("x")}, false}, // incomparable
		{Pred{"positionType", Present, provenance.Value{}}, false},
		{Pred{"positionType", Absent, provenance.Value{}}, true},
		{Pred{"reqID", Present, provenance.Value{}}, true},
		{Pred{"positionType", Eq, provenance.String("new")}, false}, // missing attr
	}
	for i, c := range cases {
		if got := c.p.Matches(n); got != c.want {
			t.Errorf("case %d (%s %s): got %v", i, c.p.Field, c.p.Op, got)
		}
	}
}

func TestPlanChoosesIndex(t *testing.T) {
	s := seeded(t)
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := e.Plan(Query{Type: "jobRequisition", Preds: []Pred{
		{Field: "reqID", Op: Eq, Value: provenance.String("REQ07")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Indexed() {
		t.Fatalf("plan not indexed: %s", pl.Explain())
	}
	if !strings.Contains(pl.Explain(), "IndexScan(jobRequisition.reqID") {
		t.Errorf("Explain = %s", pl.Explain())
	}
	got, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "r07" {
		t.Fatalf("result = %v", got)
	}
}

func TestPlanTypeScan(t *testing.T) {
	s := seeded(t)
	e, _ := NewEngine(s)
	pl, err := e.Plan(Query{Type: "jobRequisition", Preds: []Pred{
		{Field: "positionType", Op: Eq, Value: provenance.String("new")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Indexed() {
		t.Fatal("unindexed field planned as index scan")
	}
	if !strings.Contains(pl.Explain(), "TypeScan(jobRequisition)") {
		t.Errorf("Explain = %s", pl.Explain())
	}
	got, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	// i even (0..19, i%2==0 -> "new"), minus r07? r07 has attr removed and
	// 7 is odd anyway. 10 evens.
	if len(got) != 10 {
		t.Fatalf("got %d rows", len(got))
	}
}

func TestPlanFullScan(t *testing.T) {
	s := seeded(t)
	e, _ := NewEngine(s)
	pl, err := e.Plan(Query{Class: provenance.ClassResource})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.Explain(), "FullScan") {
		t.Errorf("Explain = %s", pl.Explain())
	}
	got, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "p1" {
		t.Fatalf("result = %v", got)
	}
}

func TestQueryAppIDAndLimit(t *testing.T) {
	s := seeded(t)
	e, _ := NewEngine(s)
	got, err := e.Run(Query{Type: "jobRequisition", AppID: "App1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("App1 rows = %d", len(got))
	}
	got, err = e.Run(Query{Type: "jobRequisition", AppID: "App1", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("limited rows = %d", len(got))
	}
	// Index scan + appID filter.
	got, err = e.Run(Query{Type: "jobRequisition", AppID: "App0", Preds: []Pred{
		{Field: "reqID", Op: Eq, Value: provenance.String("REQ07")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 { // r07 belongs to App1
		t.Fatalf("cross-app index result = %v", got)
	}
}

func TestQueryValidation(t *testing.T) {
	s := seeded(t)
	e, _ := NewEngine(s)
	if _, err := e.Plan(Query{Type: "ghost"}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := e.Plan(Query{Type: "person", Class: provenance.ClassData}); err == nil {
		t.Error("class mismatch accepted")
	}
	if _, err := e.Plan(Query{Type: "person", Preds: []Pred{{Field: "ghost", Op: Eq}}}); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestQueryResultsAreClones(t *testing.T) {
	s := seeded(t)
	e, _ := NewEngine(s)
	got, err := e.Run(Query{Type: "person"})
	if err != nil {
		t.Fatal(err)
	}
	got[0].SetAttr("name", provenance.String("TAMPERED"))
	if s.Node("p1").Attr("name").Str() != "Joe Doe" {
		t.Fatal("query result aliases store state")
	}
}

func BenchmarkQueryIndexed(b *testing.B) {
	s := seededBench(b)
	e, _ := NewEngine(s)
	q := Query{Type: "jobRequisition", Preds: []Pred{
		{Field: "reqID", Op: Eq, Value: provenance.String("REQ05000")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := e.Run(q)
		if err != nil || len(got) != 1 {
			b.Fatalf("got %d, err %v", len(got), err)
		}
	}
}

func seededBench(b *testing.B) *store.Store {
	b.Helper()
	s, err := store.Open(store.Options{Model: testModel(b)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < 10000; i++ {
		n := &provenance.Node{
			ID: fmt.Sprintf("r%05d", i), Class: provenance.ClassData, Type: "jobRequisition",
			AppID: "App0",
			Attrs: map[string]provenance.Value{
				"reqID": provenance.String(fmt.Sprintf("REQ%05d", i)),
			},
		}
		if err := s.PutNode(n); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func TestQueryOrderBy(t *testing.T) {
	s := seeded(t)
	e, _ := NewEngine(s)

	// Ascending by headcount.
	got, err := e.Run(Query{Type: "jobRequisition", OrderBy: "headcount", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Attr("headcount").IntVal() > got[i].Attr("headcount").IntVal() {
			t.Fatalf("not ascending: %v", got)
		}
	}
	if got[0].ID != "r00" {
		t.Fatalf("top-1 = %s", got[0].ID)
	}

	// Descending: highest headcount first.
	got, err = e.Run(Query{Type: "jobRequisition", OrderBy: "headcount", Desc: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "r19" {
		t.Fatalf("desc top-1 = %v", got)
	}

	// Absent values sort last: r07 lacks positionType.
	got, err = e.Run(Query{Type: "jobRequisition", OrderBy: "positionType"})
	if err != nil {
		t.Fatal(err)
	}
	if last := got[len(got)-1]; last.ID != "r07" {
		t.Fatalf("absent value not last: %s", last.ID)
	}

	// Unknown order-by field is a plan error.
	if _, err := e.Plan(Query{Type: "jobRequisition", OrderBy: "ghost"}); err == nil {
		t.Fatal("unknown order-by accepted")
	}
}

func TestQueryOrderByWithIndexScan(t *testing.T) {
	// OrderBy composes with an index scan: filter by the indexed field,
	// order by another.
	s := seeded(t)
	e, _ := NewEngine(s)
	pl, err := e.Plan(Query{Type: "jobRequisition",
		Preds:   []Pred{{Field: "reqID", Op: Eq, Value: provenance.String("REQ07")}},
		OrderBy: "headcount"})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Indexed() {
		t.Fatal("plan not indexed")
	}
	got, err := pl.Run()
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
}
