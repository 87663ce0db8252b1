package provenance

import (
	"fmt"
	"testing"
	"time"
)

func node(id, app string, class Class, typ string, attrs map[string]Value) *Node {
	return &Node{
		ID: id, Class: class, Type: typ, AppID: app,
		Timestamp: time.Unix(0, 0).UTC(), Attrs: AttrsOf(attrs),
	}
}

func edge(id, app, typ, src, dst string) *Edge {
	return &Edge{ID: id, Type: typ, AppID: app, Source: src, Target: dst,
		Timestamp: time.Unix(0, 0).UTC()}
}

// hiringTrace builds the Fig 2 trace of the paper's "new position open"
// process: resources, tasks, data artifacts and the relations among them.
func hiringTrace(t testing.TB, g *Graph, app string) {
	t.Helper()
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add(g.AddNode(node(app+"-hm", app, ClassResource, "person", map[string]Value{
		"name": String("Joe Doe"), "manager": String("Jane Smith"),
	})))
	add(g.AddNode(node(app+"-gm", app, ClassResource, "person", map[string]Value{
		"name": String("Jane Smith"),
	})))
	add(g.AddNode(node(app+"-submit", app, ClassTask, "submission", nil)))
	add(g.AddNode(node(app+"-approve", app, ClassTask, "approval", nil)))
	add(g.AddNode(node(app+"-req", app, ClassData, "jobRequisition", map[string]Value{
		"reqID": String("REQ-" + app), "positionType": String("new"),
	})))
	add(g.AddNode(node(app+"-apprv", app, ClassData, "approvalStatus", map[string]Value{
		"approved": Bool(true),
	})))
	add(g.AddNode(node(app+"-cand", app, ClassData, "candidateList", nil)))
	add(g.AddEdge(edge(app+"-e1", app, "actor", app+"-hm", app+"-submit")))
	add(g.AddEdge(edge(app+"-e2", app, "generates", app+"-submit", app+"-req")))
	add(g.AddEdge(edge(app+"-e3", app, "submitterOf", app+"-hm", app+"-req")))
	add(g.AddEdge(edge(app+"-e4", app, "actor", app+"-gm", app+"-approve")))
	add(g.AddEdge(edge(app+"-e5", app, "approvalOf", app+"-apprv", app+"-req")))
	add(g.AddEdge(edge(app+"-e6", app, "nextTask", app+"-submit", app+"-approve")))
}

func TestGraphAddAndLookup(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	if g.NumNodes() != 7 || g.NumEdges() != 6 {
		t.Fatalf("census = %d nodes, %d edges; want 7, 6", g.NumNodes(), g.NumEdges())
	}
	n := g.Node("App01-req")
	if n == nil || n.Type != "jobRequisition" {
		t.Fatalf("Node lookup failed: %v", n)
	}
	if g.Node("missing") != nil {
		t.Error("lookup of missing node returned non-nil")
	}
	e := g.Edge("App01-e3")
	if e == nil || e.Type != "submitterOf" {
		t.Fatalf("Edge lookup failed: %v", e)
	}
}

func TestGraphRejectsInvalid(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(&Node{ID: "x"}); err == nil {
		t.Error("accepted node without class/type/app")
	}
	if err := g.AddNode(node("n1", "A", ClassRelation, "t", nil)); err == nil {
		t.Error("accepted node with relation class")
	}
	if err := g.AddNode(node("n1", "A", ClassData, "doc", nil)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(node("n1", "A", ClassData, "doc", nil)); err == nil {
		t.Error("accepted duplicate node ID")
	}
	if err := g.AddEdge(edge("e1", "A", "rel", "n1", "n1")); err == nil {
		t.Error("accepted self loop")
	}
	if err := g.AddEdge(edge("e1", "A", "rel", "n1", "ghost")); err == nil {
		t.Error("accepted dangling target")
	}
	if err := g.AddNode(node("n2", "B", ClassData, "doc", nil)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(edge("e1", "A", "rel", "n1", "n2")); err == nil {
		t.Error("accepted cross-trace edge")
	}
	if err := g.AddNode(node("n3", "A", ClassData, "doc", nil)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(edge("e1", "A", "rel", "n1", "n3")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(edge("e1", "A", "rel", "n3", "n1")); err == nil {
		t.Error("accepted duplicate edge ID")
	}
	if err := g.AddEdge(edge("n1", "A", "rel", "n3", "n1")); err == nil {
		t.Error("accepted edge ID colliding with node ID")
	}
	if err := g.AddNode(node("e1", "A", ClassData, "doc", nil)); err == nil {
		t.Error("accepted node ID colliding with edge ID")
	}
}

func TestGraphUpdateNode(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	upd := g.Node("App01-req").Clone()
	upd.SetAttr("dept", String("dept501"))
	if err := g.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}
	if got := g.Node("App01-req").Attr("dept").Str(); got != "dept501" {
		t.Errorf("update not applied: dept = %q", got)
	}
	bad := upd.Clone()
	bad.Type = "somethingElse"
	if err := g.UpdateNode(bad); err == nil {
		t.Error("update changing type accepted")
	}
	ghost := node("ghost", "App01", ClassData, "doc", nil)
	if err := g.UpdateNode(ghost); err == nil {
		t.Error("update of unknown node accepted")
	}
}

func TestGraphTraversal(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")

	if !g.HasEdge("App01-hm", "submitterOf", "App01-req") {
		t.Error("HasEdge missed submitterOf")
	}
	if g.HasEdge("App01-req", "submitterOf", "App01-hm") {
		t.Error("HasEdge matched reversed direction")
	}
	if g.HasEdge("App01-hm", "actor", "App01-req") {
		t.Error("HasEdge matched wrong type")
	}

	outs := g.Edges("App01-hm", Out, "")
	if len(outs) != 2 {
		t.Fatalf("out edges of hiring manager = %d, want 2", len(outs))
	}
	ins := g.Edges("App01-req", In, "")
	if len(ins) != 3 {
		t.Fatalf("in edges of requisition = %d, want 3", len(ins))
	}
	both := g.Edges("App01-submit", Both, "")
	if len(both) != 3 {
		t.Fatalf("edges of submit task = %d, want 3", len(both))
	}
	typed := g.Edges("App01-req", In, "approvalOf")
	if len(typed) != 1 || typed[0].Source != "App01-apprv" {
		t.Fatalf("typed in edges = %v", typed)
	}

	nbrs := g.Neighbors("App01-req", In, "")
	if len(nbrs) != 3 {
		t.Fatalf("in neighbors of requisition = %d, want 3", len(nbrs))
	}
	submitters := g.Neighbors("App01-req", In, "submitterOf")
	if len(submitters) != 1 || submitters[0].Attr("name").Str() != "Joe Doe" {
		t.Fatalf("submitters = %v", submitters)
	}
	if n := g.Neighbors("App01-req", Out, ""); len(n) != 0 {
		t.Fatalf("requisition has out neighbors: %v", n)
	}
}

func TestGraphNeighborsDeduplicates(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(node("a", "A", ClassTask, "t", nil)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(node("b", "A", ClassData, "d", nil)); err != nil {
		t.Fatal(err)
	}
	// Two parallel edges of different types between the same nodes.
	if err := g.AddEdge(edge("e1", "A", "reads", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(edge("e2", "A", "writes", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if n := g.Neighbors("a", Out, ""); len(n) != 1 {
		t.Fatalf("neighbors not deduplicated: %v", n)
	}
	if n := g.Neighbors("a", Both, ""); len(n) != 1 {
		t.Fatalf("Both neighbors not deduplicated: %v", n)
	}
}

func TestGraphFilters(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	hiringTrace(t, g, "App02")

	data := g.Nodes(NodeFilter{Class: ClassData})
	if len(data) != 6 {
		t.Fatalf("data nodes = %d, want 6", len(data))
	}
	reqs := g.Nodes(NodeFilter{Type: "jobRequisition", AppID: "App02"})
	if len(reqs) != 1 || reqs[0].ID != "App02-req" {
		t.Fatalf("filtered reqs = %v", reqs)
	}
	all := g.Nodes(NodeFilter{})
	if len(all) != 14 {
		t.Fatalf("all nodes = %d, want 14", len(all))
	}
	actors := g.AllEdges(EdgeFilter{Type: "actor"})
	if len(actors) != 4 {
		t.Fatalf("actor edges = %d, want 4", len(actors))
	}
	app1Edges := g.AllEdges(EdgeFilter{AppID: "App01"})
	if len(app1Edges) != 6 {
		t.Fatalf("App01 edges = %d, want 6", len(app1Edges))
	}
}

func TestGraphTraceExtraction(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	hiringTrace(t, g, "App02")

	tr := g.Trace("App01")
	if tr.NumNodes() != 7 || tr.NumEdges() != 6 {
		t.Fatalf("trace census = %d/%d, want 7/6", tr.NumNodes(), tr.NumEdges())
	}
	if tr.Node("App02-req") != nil {
		t.Error("trace leaked another app's node")
	}
	if !tr.HasEdge("App01-hm", "submitterOf", "App01-req") {
		t.Error("trace lost adjacency")
	}
	ids := g.AppIDs()
	if len(ids) != 2 || ids[0] != "App01" || ids[1] != "App02" {
		t.Fatalf("AppIDs = %v", ids)
	}
}

func TestGraphCensus(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	c := g.TakeCensus()
	if c.Nodes != 7 || c.Edges != 6 {
		t.Fatalf("census totals %d/%d", c.Nodes, c.Edges)
	}
	if c.ByClass[ClassData] != 3 || c.ByClass[ClassTask] != 2 || c.ByClass[ClassResource] != 2 {
		t.Fatalf("census by class = %v", c.ByClass)
	}
	if c.ByType["person"] != 2 {
		t.Fatalf("census by type = %v", c.ByType)
	}
	if c.EdgeTypes["actor"] != 2 {
		t.Fatalf("census edge types = %v", c.EdgeTypes)
	}
}

func TestGraphDeterministicOrdering(t *testing.T) {
	// Build the same graph twice with different insert interleavings and
	// ensure query results come back in the same (sorted) order.
	build := func(order []int) *Graph {
		g := NewGraph()
		apps := []string{"App03", "App01", "App02"}
		for _, i := range order {
			hiringTrace(t, g, apps[i])
		}
		return g
	}
	g1 := build([]int{0, 1, 2})
	g2 := build([]int{2, 0, 1})
	n1 := g1.Nodes(NodeFilter{Class: ClassTask})
	n2 := g2.Nodes(NodeFilter{Class: ClassTask})
	if len(n1) != len(n2) {
		t.Fatalf("lengths differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i].ID != n2[i].ID {
			t.Fatalf("ordering differs at %d: %s vs %s", i, n1[i].ID, n2[i].ID)
		}
	}
}

func BenchmarkGraphHasEdge(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 100; i++ {
		hiringTrace(b, g, fmt.Sprintf("App%03d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.HasEdge("App050-hm", "submitterOf", "App050-req") {
			b.Fatal("edge missing")
		}
	}
}
