package provenance

import (
	"reflect"
	"testing"
)

// TestGraphSnapshotImmutable pins the MVCC contract: a snapshot is a
// point-in-time view that later writes to the working graph can never
// disturb, and the snapshot itself rejects mutation.
func TestGraphSnapshotImmutable(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")

	snap := g.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}
	if snap.NumNodes() != 7 || snap.NumEdges() != 6 {
		t.Fatalf("snapshot census = %d/%d, want 7/6", snap.NumNodes(), snap.NumEdges())
	}

	// Mutate the working graph: a second trace, an update and a new edge
	// in the snapshotted trace.
	hiringTrace(t, g, "App02")
	upd := g.Node("App01-req").Clone()
	upd.SetAttr("dept", String("dept501"))
	if err := g.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(edge("App01-e7", "App01", "nextTask", "App01-approve", "App01-cand")); err != nil {
		t.Fatal(err)
	}

	// The snapshot still shows the old world.
	if snap.NumNodes() != 7 || snap.NumEdges() != 6 {
		t.Fatalf("snapshot census moved to %d/%d", snap.NumNodes(), snap.NumEdges())
	}
	if snap.Node("App02-req") != nil {
		t.Error("snapshot sees a trace created after it was taken")
	}
	if !snap.Node("App01-req").Attr("dept").IsZero() {
		t.Error("snapshot sees an attribute update applied after it was taken")
	}
	if snap.Edge("App01-e7") != nil || snap.HasEdge("App01-approve", "nextTask", "App01-cand") {
		t.Error("snapshot sees an edge added after it was taken")
	}
	if v := snap.TraceVersion("App01"); v != 13 {
		t.Errorf("snapshot trace version = %d, want 13", v)
	}
	if v := g.TraceVersion("App01"); v != 15 {
		t.Errorf("working trace version = %d, want 15", v)
	}

	// The working graph shows the new world.
	if g.Node("App02-req") == nil || !g.HasEdge("App01-approve", "nextTask", "App01-cand") {
		t.Error("working graph lost writes")
	}

	// Snapshots reject mutation.
	if err := snap.AddNode(node("x", "App01", ClassData, "jobRequisition", nil)); err != ErrFrozen {
		t.Errorf("AddNode on snapshot = %v, want ErrFrozen", err)
	}
	if err := snap.UpdateNode(upd); err != ErrFrozen {
		t.Errorf("UpdateNode on snapshot = %v, want ErrFrozen", err)
	}
	if err := snap.AddEdge(edge("y", "App01", "actor", "App01-hm", "App01-submit")); err != ErrFrozen {
		t.Errorf("AddEdge on snapshot = %v, want ErrFrozen", err)
	}
}

// TestGraphSnapshotStructuralSharing verifies that publishing snapshots
// costs copies only for the traces actually touched afterwards.
func TestGraphSnapshotStructuralSharing(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	hiringTrace(t, g, "App02")
	if cs := g.CopyStats(); cs.Shards != 0 {
		t.Fatalf("copies before any snapshot: %+v", cs)
	}

	_ = g.Snapshot()
	// Touch only App01: exactly one shard (7 nodes, 6 edges) is cloned,
	// and only once despite two writes in the same epoch.
	upd := g.Node("App01-req").Clone()
	upd.SetAttr("dept", String("dept1"))
	if err := g.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}
	upd2 := g.Node("App01-cand").Clone()
	upd2.SetAttr("count", Int(3))
	if err := g.UpdateNode(upd2); err != nil {
		t.Fatal(err)
	}
	cs := g.CopyStats()
	if cs.Shards != 1 || cs.Nodes != 7 || cs.Edges != 6 {
		t.Fatalf("copy stats after one touched trace = %+v, want {1 7 6}", cs)
	}

	// A second snapshot epoch and another touch of the same trace clones
	// it once more; App02 has still never been copied.
	_ = g.Snapshot()
	upd3 := g.Node("App01-req").Clone()
	upd3.SetAttr("dept", String("dept2"))
	if err := g.UpdateNode(upd3); err != nil {
		t.Fatal(err)
	}
	cs = g.CopyStats()
	if cs.Shards != 2 || cs.Nodes != 14 || cs.Edges != 12 {
		t.Fatalf("copy stats after second epoch = %+v, want {2 14 12}", cs)
	}
}

// TestGraphSnapshotOfSnapshot pins that Snapshot on a frozen graph is the
// identity, and Trace on a frozen graph shares rather than copies.
func TestGraphSnapshotOfSnapshot(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	snap := g.Snapshot()
	if snap.Snapshot() != snap {
		t.Error("Snapshot of a snapshot is not the identity")
	}
	tr := snap.Trace("App01")
	if !tr.Frozen() {
		t.Error("Trace subgraph not frozen")
	}
	if tr.NumNodes() != 7 || tr.NumEdges() != 6 {
		t.Fatalf("trace census = %d/%d", tr.NumNodes(), tr.NumEdges())
	}
	// Foreign IDs resolve to nothing even though the router is shared.
	hiringTrace(t, g, "App02")
	if tr.Node("App02-req") != nil {
		t.Error("trace subgraph leaks another trace's node")
	}
}

// TestGraphReadAllocs is the allocation regression gate for the hot
// checking primitives on a hiring trace: HasEdge must not allocate at
// all, and Edges must only allocate its result slice. Re-sorting per call
// (the pre-D7 behavior) would show up here immediately.
func TestGraphReadAllocs(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	snap := g.Snapshot()

	if n := testing.AllocsPerRun(200, func() {
		if !snap.HasEdge("App01-hm", "submitterOf", "App01-req") {
			t.Fatal("edge missing")
		}
	}); n != 0 {
		t.Errorf("HasEdge allocates %.1f per call, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		if len(snap.Edges("App01-submit", Both, "")) != 3 {
			t.Fatal("wrong edge count")
		}
	}); n > 1 {
		t.Errorf("Edges allocates %.1f per call, want <= 1", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		if len(snap.Nodes(NodeFilter{AppID: "App01", Class: ClassData})) != 3 {
			t.Fatal("wrong node count")
		}
	}); n > 3 {
		t.Errorf("Nodes allocates %.1f per call, want <= 3", n)
	}
}

// TestOverlayIsolation pins what Overlay may share. On a frozen snapshot it
// copies only the node side of the shard: the snapshot's node IDs, type and
// class postings and node count never see the added nodes, while the
// overlay reads the very same edge containers. A later write to the working
// graph reaches neither. Overlay on the mutable graph copies everything.
func TestOverlayIsolation(t *testing.T) {
	g := NewGraph()
	hiringTrace(t, g, "App01")
	snap := g.Snapshot()

	ids := func(ns []*Node) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	nodeIDs := ids(snap.shard("App01").nodes)
	persons := ids(snap.NodesByType("App01", "person"))
	data := ids(snap.Nodes(NodeFilter{AppID: "App01", Class: ClassData}))

	add := []*Node{
		node("App01-extra", "App01", ClassData, "jobRequisition", nil),
		node("App01-p3", "App01", ClassResource, "person", nil),
		node("App01-memo", "App01", ClassData, "memo", nil),
		node("App01-req", "App01", ClassData, "jobRequisition", nil), // held: skipped
		node("App02-req", "App02", ClassData, "jobRequisition", nil), // another trace: skipped
	}
	ov := snap.Overlay("App01", add)

	if ov.NumNodes() != 10 || ov.NumEdges() != 6 {
		t.Fatalf("overlay census = %d/%d, want 10/6", ov.NumNodes(), ov.NumEdges())
	}
	if got := ids(ov.NodesByType("App01", "person")); !reflect.DeepEqual(got, []string{"App01-gm", "App01-hm", "App01-p3"}) {
		t.Errorf("overlay persons = %v", got)
	}
	if ov.Node("App01-req") != snap.Node("App01-req") {
		t.Error("overlay replaced a node the trace already held")
	}

	checkSnap := func(when string) {
		t.Helper()
		if snap.NumNodes() != 7 || snap.NumEdges() != 6 {
			t.Errorf("%s: snapshot census = %d/%d, want 7/6", when, snap.NumNodes(), snap.NumEdges())
		}
		if got := ids(snap.shard("App01").nodes); !reflect.DeepEqual(got, nodeIDs) {
			t.Errorf("%s: snapshot node IDs = %v, want %v", when, got, nodeIDs)
		}
		if got := ids(snap.NodesByType("App01", "person")); !reflect.DeepEqual(got, persons) {
			t.Errorf("%s: snapshot persons = %v, want %v", when, got, persons)
		}
		if got := ids(snap.Nodes(NodeFilter{AppID: "App01", Class: ClassData})); !reflect.DeepEqual(got, data) {
			t.Errorf("%s: snapshot data postings = %v, want %v", when, got, data)
		}
		if snap.NodesByType("App01", "memo") != nil || snap.Node("App01-extra") != nil {
			t.Errorf("%s: snapshot sees an overlaid node", when)
		}
	}
	checkSnap("after overlay")

	// The edge side is shared, not copied, and reads the same.
	ssh, osh := snap.shard("App01"), ov.shard("App01")
	if reflect.ValueOf(osh.edges).Pointer() != reflect.ValueOf(ssh.edges).Pointer() ||
		reflect.ValueOf(osh.adjT).Pointer() != reflect.ValueOf(ssh.adjT).Pointer() {
		t.Error("overlay of a frozen shard copied its edge containers")
	}
	edgesOf := func(gr *Graph) map[string][]*Edge {
		m := map[string][]*Edge{"": gr.AllEdges(EdgeFilter{AppID: "App01"})}
		for _, id := range nodeIDs {
			m[id] = gr.Edges(id, Both, "")
			m[id+"/actor"] = gr.Edges(id, Out, "actor")
		}
		return m
	}
	want := edgesOf(snap)
	if got := edgesOf(ov); !reflect.DeepEqual(got, want) {
		t.Error("overlay edges or adjacency differ from the snapshot's")
	}

	// A later edge on the working graph reaches neither.
	if err := g.AddEdge(edge("App01-e7", "App01", "nextTask", "App01-approve", "App01-cand")); err != nil {
		t.Fatal(err)
	}
	for name, gr := range map[string]*Graph{"snapshot": snap, "overlay": ov} {
		if gr.Edge("App01-e7") != nil || gr.HasEdge("App01-approve", "nextTask", "App01-cand") {
			t.Errorf("%s sees an edge added to the working graph later", name)
		}
		if got := edgesOf(gr); !reflect.DeepEqual(got, want) {
			t.Errorf("%s edges moved after a working-graph write", name)
		}
	}
	checkSnap("after working-graph write")

	// Overlay of the mutable graph is a full copy: the next write to g
	// must not show through it either.
	mov := g.Overlay("App01", add[:1])
	if err := g.AddEdge(edge("App01-e8", "App01", "nextTask", "App01-cand", "App01-approve")); err != nil {
		t.Fatal(err)
	}
	if mov.Edge("App01-e8") != nil || len(mov.Edges("App01-cand", Both, "")) != 1 {
		t.Error("overlay of the mutable graph sees a later write")
	}
}
