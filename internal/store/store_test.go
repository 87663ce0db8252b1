package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/provenance"
)

// testModel declares the types used across the store tests.
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
	must(m.AddType(&provenance.TypeDef{Name: "person", Class: provenance.ClassResource}))
	must(m.AddField("person", &provenance.FieldDef{Name: "name", Kind: provenance.KindString}))
	must(m.AddRelation(&provenance.RelationDef{Name: "submitterOf", SourceType: "person", TargetType: "jobRequisition"}))
	return m
}

func memStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mkReq(id, app, reqID string) *provenance.Node {
	return &provenance.Node{
		ID: id, Class: provenance.ClassData, Type: "jobRequisition", AppID: app,
		Timestamp: time.Unix(1000, 0).UTC(),
		Attrs: map[string]provenance.Value{
			"reqID":        provenance.String(reqID),
			"positionType": provenance.String("new"),
		},
	}
}

func mkPerson(id, app, name string) *provenance.Node {
	return &provenance.Node{
		ID: id, Class: provenance.ClassResource, Type: "person", AppID: app,
		Attrs: map[string]provenance.Value{"name": provenance.String(name)},
	}
}

func mkSubmitter(id, app, src, dst string) *provenance.Edge {
	return &provenance.Edge{ID: id, Type: "submitterOf", AppID: app, Source: src, Target: dst}
}

func TestStorePutAndGet(t *testing.T) {
	s := memStore(t)
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkPerson("p1", "A", "Joe")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEdge(mkSubmitter("e1", "A", "p1", "r1")); err != nil {
		t.Fatal(err)
	}
	n := s.Node("r1")
	if n == nil || n.Attr("reqID").Str() != "REQ1" {
		t.Fatalf("Node(r1) = %v", n)
	}
	// Returned records are shared with the immutable snapshot and
	// read-only by contract; mutation goes through Clone + UpdateNode.
	cp := n.Clone()
	cp.SetAttr("reqID", provenance.String("REQ1-cloned"))
	if s.Node("r1").Attr("reqID").Str() != "REQ1" {
		t.Error("mutating a clone affected the store")
	}
	e := s.Edge("e1")
	if e == nil || e.Source != "p1" {
		t.Fatalf("Edge(e1) = %v", e)
	}
	if s.Node("ghost") != nil || s.Edge("ghost") != nil {
		t.Error("missing records returned non-nil")
	}
	st := s.Stats()
	if st.Nodes != 2 || st.Edges != 1 || st.Rows != 3 || st.Seq != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreValidation(t *testing.T) {
	s := memStore(t)
	bad := mkReq("r1", "A", "REQ1")
	bad.Type = "undeclared"
	if err := s.PutNode(bad); err == nil {
		t.Error("undeclared type accepted")
	}
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err == nil {
		t.Error("duplicate ID accepted")
	}
	// Edge endpoint type validation uses the live graph.
	if err := s.PutNode(mkPerson("p1", "A", "Joe")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEdge(mkSubmitter("e1", "A", "r1", "p1")); err == nil {
		t.Error("reversed endpoint types accepted")
	}
}

func TestStoreSkipValidation(t *testing.T) {
	s, err := Open(Options{SkipValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := &provenance.Node{ID: "x", Class: provenance.ClassData, Type: "anything", AppID: "A",
		Attrs: map[string]provenance.Value{"whatever": provenance.Int(1)}}
	if err := s.PutNode(n); err != nil {
		t.Fatalf("unvalidated put failed: %v", err)
	}
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without model and without SkipValidation succeeded")
	}
}

func TestStoreUpdateNode(t *testing.T) {
	s := memStore(t)
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err != nil {
		t.Fatal(err)
	}
	upd := mkReq("r1", "A", "REQ1-v2")
	if err := s.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}
	if got := s.Node("r1").Attr("reqID").Str(); got != "REQ1-v2" {
		t.Fatalf("after update reqID = %q", got)
	}
	// Index must follow the update.
	ids, indexed := s.LookupByAttr("jobRequisition", "reqID", provenance.String("REQ1-v2"))
	if !indexed || len(ids) != 1 || ids[0] != "r1" {
		t.Fatalf("index after update: ids=%v indexed=%v", ids, indexed)
	}
	ids, _ = s.LookupByAttr("jobRequisition", "reqID", provenance.String("REQ1"))
	if len(ids) != 0 {
		t.Fatalf("stale index entry: %v", ids)
	}
	if err := s.UpdateNode(mkReq("ghost", "A", "x")); err == nil {
		t.Error("update of missing node accepted")
	}
}

func TestStoreIndexLookup(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 10; i++ {
		req := mkReq(fmt.Sprintf("r%d", i), fmt.Sprintf("A%d", i), fmt.Sprintf("REQ%d", i%3))
		if err := s.PutNode(req); err != nil {
			t.Fatal(err)
		}
	}
	ids, indexed := s.LookupByAttr("jobRequisition", "reqID", provenance.String("REQ1"))
	if !indexed {
		t.Fatal("declared index not used")
	}
	if len(ids) != 3 { // i = 1, 4, 7
		t.Fatalf("indexed lookup = %v", ids)
	}
	// Unindexed field: falls back to scan, indexed=false.
	ids, indexed = s.LookupByAttr("jobRequisition", "positionType", provenance.String("new"))
	if indexed {
		t.Error("undeclared index reported as used")
	}
	if len(ids) != 10 {
		t.Fatalf("scan lookup = %d ids", len(ids))
	}
}

func TestStoreRows(t *testing.T) {
	s := memStore(t)
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkPerson("p1", "A", "Joe")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r2", "B", "REQ2")); err != nil {
		t.Fatal(err)
	}
	rows := s.RowsForApp("A")
	if len(rows) != 2 || rows[0].ID != "p1" || rows[1].ID != "r1" {
		t.Fatalf("RowsForApp = %+v", rows)
	}
	r, ok := s.Row("r2")
	if !ok || r.AppID != "B" || r.Class != "data" {
		t.Fatalf("Row(r2) = %+v ok=%v", r, ok)
	}
	if _, ok := s.Row("ghost"); ok {
		t.Error("Row(ghost) found")
	}
}

func TestStoreView(t *testing.T) {
	s := memStore(t)
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err != nil {
		t.Fatal(err)
	}
	var count int
	err := s.View(func(g *provenance.Graph) error {
		count = g.NumNodes()
		return nil
	})
	if err != nil || count != 1 {
		t.Fatalf("View: count=%d err=%v", count, err)
	}
	wantErr := fmt.Errorf("boom")
	if err := s.View(func(*provenance.Graph) error { return wantErr }); err != wantErr {
		t.Errorf("View error not propagated: %v", err)
	}
}

func TestStorePersistenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(Options{Dir: dir, Model: testModel(t)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkPerson("p1", "A", "Joe")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEdge(mkSubmitter("e1", "A", "p1", "r1")); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateNode(mkReq("r1", "A", "REQ1-v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Close()
	st := s2.Stats()
	if st.Nodes != 2 || st.Edges != 1 {
		t.Fatalf("recovered stats = %+v", st)
	}
	if got := s2.Node("r1").Attr("reqID").Str(); got != "REQ1-v2" {
		t.Fatalf("recovered update lost: %q", got)
	}
	ids, indexed := s2.LookupByAttr("jobRequisition", "reqID", provenance.String("REQ1-v2"))
	if !indexed || len(ids) != 1 {
		t.Fatalf("recovered index: ids=%v indexed=%v", ids, indexed)
	}
	// Writes continue to work after recovery.
	if err := s2.PutNode(mkReq("r2", "B", "REQ9")); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PutNode(mkReq(fmt.Sprintf("r%d", i), "A", fmt.Sprintf("REQ%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the log tail.
	path := logPath(dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats().Nodes; got != 4 {
		t.Fatalf("recovered %d nodes, want 4 (last frame torn)", got)
	}
	// The torn tail was truncated; appends resume cleanly.
	if err := s2.PutNode(mkReq("rX", "A", "REQX")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Stats().Nodes; got != 5 {
		t.Fatalf("after re-append got %d nodes, want 5", got)
	}
}

func TestStoreGarbageLogRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "provenance.log"), []byte("GARBAGE!data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Model: testModel(t)}); err == nil {
		t.Fatal("store opened a non-log file")
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r1", "A", "v0")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkPerson("p1", "A", "Joe")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEdge(mkSubmitter("e1", "A", "p1", "r1")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := s.UpdateNode(mkReq("r1", "A", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	// Store still serves reads and writes after compaction.
	if got := s.Node("r1").Attr("reqID").Str(); got != "v50" {
		t.Fatalf("after compact reqID = %q", got)
	}
	if err := s.PutNode(mkReq("r2", "B", "REQ2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And recovery from the compacted log preserves everything.
	s2, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Node("r1").Attr("reqID").Str(); got != "v50" {
		t.Fatalf("post-compact recovery reqID = %q", got)
	}
	if s2.Edge("e1") == nil {
		t.Fatal("edge lost in compaction")
	}
	if s2.Node("r2") == nil {
		t.Fatal("post-compact write lost")
	}
}

func TestStoreClosedRejectsWrites(t *testing.T) {
	s := memStore(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r1", "A", "REQ1")); err == nil {
		t.Error("write to closed store accepted")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestStoreAppIDs(t *testing.T) {
	s := memStore(t)
	for _, app := range []string{"B", "A", "C"} {
		if err := s.PutNode(mkReq("r-"+app, app, "REQ")); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.AppIDs()
	if len(ids) != 3 || ids[0] != "A" || ids[2] != "C" {
		t.Fatalf("AppIDs = %v", ids)
	}
}

func BenchmarkStorePutNode(b *testing.B) {
	s, err := Open(Options{Model: testModel(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutNode(mkReq(fmt.Sprintf("r%d", i), "A", "REQ")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorePutNodeDisk(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), Model: testModel(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutNode(mkReq(fmt.Sprintf("r%d", i), "A", "REQ")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreIndexLookup(b *testing.B) {
	s, err := Open(Options{Model: testModel(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10000; i++ {
		if err := s.PutNode(mkReq(fmt.Sprintf("r%d", i), "A", fmt.Sprintf("REQ%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	v := provenance.String("REQ5000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, ok := s.LookupByAttr("jobRequisition", "reqID", v)
		if !ok || len(ids) != 1 {
			b.Fatal("lookup failed")
		}
	}
}
