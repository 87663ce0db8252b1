package provenance

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestIndexScanEquivalence is the D8 property test: under a random
// interleaving of node inserts, edge inserts, attribute updates and
// snapshots, every index-served read (Nodes with class/type filters,
// NodesByType, typed Edges, typed Neighbors, HasEdge) must return exactly
// what brute-force filtering over the flat record list returns — on the
// working graph and on every frozen snapshot taken along the way.
func TestIndexScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGraph()

	apps := []string{"AppA", "AppB", "AppC"}
	classes := []Class{ClassData, ClassTask, ClassResource, ClassCustom}
	// Types are drawn independently of classes so the residual path
	// (type posting filtered by class) sees genuine mismatches.
	nodeTypes := []string{"person", "submission", "jobRequisition", "approvalStatus"}
	edgeTypes := []string{"actor", "generates", "nextTask"}

	var nodes []*Node // flat model, same record pointers as the graph
	var edges []*Edge
	type frozenState struct {
		g     *Graph
		nodes []*Node
		edges []*Edge
	}
	var frozen []frozenState

	nodeSeq, edgeSeq := 0, 0
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(12); {
		case op < 6: // insert a node
			n := node(fmt.Sprintf("n%04d", nodeSeq), apps[rng.Intn(len(apps))],
				classes[rng.Intn(len(classes))], nodeTypes[rng.Intn(len(nodeTypes))], nil)
			nodeSeq++
			if err := g.AddNode(n); err != nil {
				t.Fatalf("step %d: AddNode: %v", step, err)
			}
			nodes = append(nodes, n)
		case op < 10 && len(nodes) > 1: // insert an edge within one trace
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			if src.AppID != dst.AppID || src.ID == dst.ID {
				continue
			}
			e := edge(fmt.Sprintf("e%04d", edgeSeq), src.AppID,
				edgeTypes[rng.Intn(len(edgeTypes))], src.ID, dst.ID)
			edgeSeq++
			if err := g.AddEdge(e); err != nil {
				t.Fatalf("step %d: AddEdge: %v", step, err)
			}
			edges = append(edges, e)
		case op == 10 && len(nodes) > 0: // enrich a node in place
			i := rng.Intn(len(nodes))
			upd := nodes[i].Clone()
			upd.SetAttr("touched", String(fmt.Sprintf("step-%d", step)))
			if err := g.UpdateNode(upd); err != nil {
				t.Fatalf("step %d: UpdateNode: %v", step, err)
			}
			nodes[i] = upd
		default: // freeze a snapshot together with the model at this point
			frozen = append(frozen, frozenState{
				g:     g.Snapshot(),
				nodes: append([]*Node(nil), nodes...),
				edges: append([]*Edge(nil), edges...),
			})
		}
		if step%300 == 299 {
			checkIndexEquivalence(t, rng, g, nodes, edges, apps, classes, nodeTypes, edgeTypes)
		}
	}

	checkIndexEquivalence(t, rng, g, nodes, edges, apps, classes, nodeTypes, edgeTypes)
	if len(frozen) == 0 {
		t.Fatal("no snapshots taken; rng schedule broken")
	}
	for i, fs := range frozen {
		if !fs.g.Frozen() {
			t.Fatalf("snapshot %d not frozen", i)
		}
		checkIndexEquivalence(t, rng, fs.g, fs.nodes, fs.edges, apps, classes, nodeTypes, edgeTypes)
	}
}

// checkIndexEquivalence compares every read path of g against brute force
// on the flat model.
func checkIndexEquivalence(t *testing.T, rng *rand.Rand, g *Graph, nodes []*Node, edges []*Edge,
	apps []string, classes []Class, nodeTypes, edgeTypes []string) {
	t.Helper()
	checkNodeReads(t, g, nodes, apps, classes, nodeTypes)
	checkEdgeReads(t, rng, g, nodes, edges, edgeTypes)
}

func checkNodeReads(t *testing.T, g *Graph, nodes []*Node, apps []string, classes []Class, nodeTypes []string) {
	t.Helper()
	allApps := append([]string{""}, apps...)
	allClasses := append([]Class{ClassInvalid}, classes...)
	allTypes := append([]string{""}, nodeTypes...)
	for _, app := range allApps {
		for _, cl := range allClasses {
			for _, typ := range allTypes {
				f := NodeFilter{Class: cl, Type: typ, AppID: app}
				var want []*Node
				for _, n := range nodes {
					if f.Matches(n) {
						want = append(want, n)
					}
				}
				sortNodesByID(want)
				assertSameNodes(t, fmt.Sprintf("Nodes(%+v)", f), g.Nodes(f), want)
				if cl == ClassInvalid && typ != "" {
					assertSameNodes(t, fmt.Sprintf("NodesByType(%q, %q)", app, typ),
						g.NodesByType(app, typ), want)
				}
			}
		}
	}
}

func checkEdgeReads(t *testing.T, rng *rand.Rand, g *Graph, nodes []*Node, edges []*Edge, edgeTypes []string) {
	t.Helper()
	if len(nodes) == 0 {
		return
	}
	allTypes := append([]string{""}, edgeTypes...)
	for probe := 0; probe < 25; probe++ {
		n := nodes[rng.Intn(len(nodes))]
		for _, dir := range []Direction{Out, In, Both} {
			for _, typ := range allTypes {
				var want []*Edge
				for _, e := range edges {
					if typ != "" && e.Type != typ {
						continue
					}
					touches := (dir == Out && e.Source == n.ID) ||
						(dir == In && e.Target == n.ID) ||
						(dir == Both && (e.Source == n.ID || e.Target == n.ID))
					if touches {
						want = append(want, e)
					}
				}
				sortEdgesByID(want)
				label := fmt.Sprintf("Edges(%q, %v, %q)", n.ID, dir, typ)
				got := g.Edges(n.ID, dir, typ)
				if len(got) != len(want) {
					t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s[%d] = %s, want %s", label, i, got[i].ID, want[i].ID)
					}
				}
				// Neighbors must agree with the unique endpoints of want.
				seen := map[string]bool{}
				var wantNb []string
				for _, e := range want {
					other := e.Target
					if e.Target == n.ID {
						other = e.Source
					}
					if !seen[other] {
						seen[other] = true
						wantNb = append(wantNb, other)
					}
				}
				sortStrings(wantNb)
				nb := g.Neighbors(n.ID, dir, typ)
				if len(nb) != len(wantNb) {
					t.Fatalf("Neighbors(%q, %v, %q): %d nodes, want %d", n.ID, dir, typ, len(nb), len(wantNb))
				}
				for i := range nb {
					if nb[i].ID != wantNb[i] {
						t.Fatalf("Neighbors(%q, %v, %q)[%d] = %s, want %s", n.ID, dir, typ, i, nb[i].ID, wantNb[i])
					}
				}
			}
		}
	}
	// HasEdge over a sample of (source, type, target) triples, half real.
	for probe := 0; probe < 40; probe++ {
		var src, dst string
		typ := edgeTypes[rng.Intn(len(edgeTypes))]
		if probe%2 == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			src, dst, typ = e.Source, e.Target, e.Type
		} else {
			src = nodes[rng.Intn(len(nodes))].ID
			dst = nodes[rng.Intn(len(nodes))].ID
		}
		want := false
		for _, e := range edges {
			if e.Source == src && e.Target == dst && e.Type == typ {
				want = true
				break
			}
		}
		if got := g.HasEdge(src, typ, dst); got != want {
			t.Fatalf("HasEdge(%q, %q, %q) = %v, want %v", src, typ, dst, got, want)
		}
	}
}

func assertSameNodes(t *testing.T, label string, got, want []*Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %s, want %s", label, i, got[i].ID, want[i].ID)
		}
	}
}

func sortNodesByID(ns []*Node) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].ID < ns[j-1].ID; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func sortEdgesByID(es []*Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].ID < es[j-1].ID; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// TestIndexedLookupAllocs gates the hot binder lookup paths: a
// trace-scoped NodesByType must cost exactly one allocation (the result
// slice), a typed Edges lookup at most one, and HasEdge zero.
func TestIndexedLookupAllocs(t *testing.T) {
	g := NewGraph()
	const app = "AppA"
	for i := 0; i < 200; i++ {
		if err := g.AddNode(node(fmt.Sprintf("p%03d", i), app, ClassResource, "person", nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddNode(node("task0", app, ClassTask, "submission", nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := g.AddEdge(edge(fmt.Sprintf("a%03d", i), app, "actor", fmt.Sprintf("p%03d", i), "task0")); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.Snapshot()

	if got := testing.AllocsPerRun(200, func() {
		if len(snap.NodesByType(app, "person")) != 200 {
			t.Fatal("wrong result size")
		}
	}); got > 1 {
		t.Errorf("NodesByType allocs/run = %.1f, want <= 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if len(snap.Edges("task0", In, "actor")) != 50 {
			t.Fatal("wrong result size")
		}
	}); got > 1 {
		t.Errorf("typed Edges allocs/run = %.1f, want <= 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if !snap.HasEdge("p000", "actor", "task0") {
			t.Fatal("edge missing")
		}
	}); got != 0 {
		t.Errorf("HasEdge allocs/run = %.1f, want 0", got)
	}
}
