package provenance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestIndexScanEquivalence is the D8 property test: under a random
// interleaving of node inserts, edge inserts, attribute updates, trace
// drops and restores, and snapshots, every index-served read (Nodes with
// class/type filters, NodesByType, typed Edges, typed Neighbors, HasEdge)
// must return exactly what brute-force filtering over the flat record list
// returns — on the working graph, on every frozen snapshot taken along the
// way, and on overlays of both, checked again after later writes.
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

	// dropped holds the records and version of each trace DropTrace took
	// out, until RestoreTrace puts it back. A dropped trace takes no
	// writes, so the restore finds it absent.
	type droppedTrace struct {
		nodes []*Node
		edges []*Edge
		ver   uint64
	}
	dropped := map[string]droppedTrace{}
	live := func() []string {
		var out []string
		for _, app := range apps {
			if _, ok := dropped[app]; !ok {
				out = append(out, app)
			}
		}
		return out
	}

	// overlay takes an overlay of gr's trace app with a few new nodes (some
	// of another trace, one the trace already holds) and records it with
	// its model, so later checks catch any write leaking into it.
	overlaySeq := 0
	overlay := func(gr *Graph, app string, ns []*Node, es []*Edge) {
		var add, want []*Node
		for _, n := range ns {
			if n.AppID == app {
				want = append(want, n)
				if len(add) == 0 {
					add = append(add, n) // held: skipped
				}
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			n := node(fmt.Sprintf("ov%04d", overlaySeq), apps[rng.Intn(len(apps))],
				classes[rng.Intn(len(classes))], nodeTypes[rng.Intn(len(nodeTypes))], nil)
			overlaySeq++
			add = append(add, n)
			if n.AppID == app {
				want = append(want, n)
			}
		}
		var wantEdges []*Edge
		for _, e := range es {
			if e.AppID == app {
				wantEdges = append(wantEdges, e)
			}
		}
		frozen = append(frozen, frozenState{g: gr.Overlay(app, add), nodes: want, edges: wantEdges})
	}

	nodeSeq, edgeSeq, restored := 0, 0, 0
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(15); {
		case op < 6: // insert a node
			open := live()
			n := node(fmt.Sprintf("n%04d", nodeSeq), open[rng.Intn(len(open))],
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
		case op == 11: // overlay the working graph or a fresh snapshot
			gr := g
			if rng.Intn(2) == 0 {
				gr = g.Snapshot()
			}
			overlay(gr, apps[rng.Intn(len(apps))], nodes, edges)
		case op == 12 && len(live()) > 1: // drop a trace
			open := live()
			app := open[rng.Intn(len(open))]
			d := droppedTrace{ver: g.TraceVersion(app)}
			if d.ver == 0 {
				continue // not written yet
			}
			nodes = slices.DeleteFunc(nodes, func(n *Node) bool {
				if n.AppID == app {
					d.nodes = append(d.nodes, n)
				}
				return n.AppID == app
			})
			edges = slices.DeleteFunc(edges, func(e *Edge) bool {
				if e.AppID == app {
					d.edges = append(d.edges, e)
				}
				return e.AppID == app
			})
			if !g.DropTrace(app) {
				t.Fatalf("step %d: DropTrace(%s) found nothing", step, app)
			}
			dropped[app] = d
		case op == 13 && len(dropped) > 0: // restore a dropped trace, records shuffled and one repeated
			for app, d := range dropped {
				ns := append(slices.Clone(d.nodes), d.nodes...)
				es := slices.Clone(d.edges)
				rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
				rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
				if err := g.RestoreTrace(app, ns, es, d.ver); err != nil {
					t.Fatalf("step %d: RestoreTrace(%s): %v", step, app, err)
				}
				if v := g.TraceVersion(app); v != d.ver {
					t.Fatalf("step %d: restored %s at version %d, want %d", step, app, v, d.ver)
				}
				nodes = append(nodes, d.nodes...)
				edges = append(edges, d.edges...)
				delete(dropped, app)
				restored++
				break
			}
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
	if len(frozen) == 0 || overlaySeq == 0 || restored == 0 {
		t.Fatalf("%d snapshots, %d overlaid nodes, %d restores; rng schedule broken", len(frozen), overlaySeq, restored)
	}
	t.Logf("%d snapshots and overlays, %d overlaid nodes, %d restores", len(frozen), overlaySeq, restored)
	for i, fs := range frozen {
		if !fs.g.Frozen() {
			t.Fatalf("snapshot %d not frozen", i)
		}
		checkIndexEquivalence(t, rng, fs.g, fs.nodes, fs.edges, apps, classes, nodeTypes, edgeTypes)
	}

	// An update swaps the record in every posting list of the working
	// graph and in none of an earlier snapshot's.
	old := nodes[rng.Intn(len(nodes))]
	snap := g.Snapshot()
	upd := old.Clone()
	upd.SetAttr("touched", String("last"))
	if err := g.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		gr   *Graph
		want *Node
	}{{g, upd}, {snap, old}} {
		reads := map[string][]*Node{
			"NodesByType":        c.gr.NodesByType(old.AppID, old.Type),
			"Nodes{Class, App}":  c.gr.Nodes(NodeFilter{Class: old.Class, AppID: old.AppID}),
			"Nodes{Class}":       c.gr.Nodes(NodeFilter{Class: old.Class}),
			"Nodes{Type, Class}": c.gr.Nodes(NodeFilter{Type: old.Type, Class: old.Class, AppID: old.AppID}),
			"Nodes{App}":         c.gr.Nodes(NodeFilter{AppID: old.AppID}),
		}
		for name, ns := range reads {
			i := slices.IndexFunc(ns, func(n *Node) bool { return n.ID == old.ID })
			if i < 0 || ns[i] != c.want {
				t.Errorf("%s on the %s graph does not return the %s record of %s", name,
					map[bool]string{true: "working", false: "snapshot"}[c.gr == g],
					map[bool]string{true: "updated", false: "earlier"}[c.want == upd], old.ID)
			}
		}
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
