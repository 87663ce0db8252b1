package store

import (
	"fmt"
	"testing"

	"repro/internal/provenance"
)

func wsNodeEvent(kind EventKind, version uint64, id string) Event {
	return Event{Kind: kind, TraceVersion: version,
		Node: &provenance.Node{ID: id, Type: "t", AppID: "A"}}
}

func wsEdgeEvent(version uint64, id string) Event {
	return Event{Kind: EventEdge, TraceVersion: version,
		Edge: &provenance.Edge{ID: id, Type: "rel", AppID: "A"}}
}

func TestWriteSetAddEventTracksInterval(t *testing.T) {
	ws := NewWriteSet()
	if ws.Full() || ws.Base() != 0 || ws.Max() != 0 || ws.Len() != 0 {
		t.Fatalf("fresh set = full=%v [%d,%d] len=%d", ws.Full(), ws.Base(), ws.Max(), ws.Len())
	}
	ws.AddEvent(wsNodeEvent(EventNode, 5, "n1"))
	if ws.Base() != 4 || ws.Max() != 5 {
		t.Fatalf("after first event interval = (%d,%d], want (4,5]", ws.Base(), ws.Max())
	}
	ws.AddEvent(wsEdgeEvent(6, "e1"))
	ws.AddEvent(wsNodeEvent(EventNodeUpdate, 7, "n1"))
	if ws.Base() != 4 || ws.Max() != 7 {
		t.Fatalf("interval = (%d,%d], want (4,7]", ws.Base(), ws.Max())
	}
	if ws.Full() {
		t.Fatal("contiguous adds degraded to full")
	}
	if len(ws.Nodes) != 2 || len(ws.Edges) != 1 || ws.Len() != 3 {
		t.Fatalf("records = %d nodes, %d edges", len(ws.Nodes), len(ws.Edges))
	}
}

func TestWriteSetZeroVersionDegrades(t *testing.T) {
	ws := NewWriteSet()
	ws.AddEvent(wsNodeEvent(EventNode, 0, "n1"))
	if !ws.Full() {
		t.Fatal("event without a trace version must degrade the set to full")
	}
	if ws.Len() != 0 {
		t.Fatal("full set retains records")
	}
	// Once full, further adds stay full and retain nothing.
	ws.AddEvent(wsNodeEvent(EventNode, 9, "n2"))
	if !ws.Full() || ws.Len() != 0 {
		t.Fatal("full set resurrected by a later event")
	}
}

func TestWriteSetCapOverflowDegrades(t *testing.T) {
	ws := NewWriteSet()
	for i := 0; i < writeSetCap; i++ {
		ws.AddEvent(wsNodeEvent(EventNode, uint64(i+1), fmt.Sprintf("n%d", i)))
	}
	if ws.Full() {
		t.Fatalf("set full at exactly %d records", writeSetCap)
	}
	ws.AddEvent(wsNodeEvent(EventNode, uint64(writeSetCap+1), "over"))
	if !ws.Full() || ws.Len() != 0 {
		t.Fatal("overflowing the record cap must degrade to full and drop records")
	}
	// The interval is still tracked: a full set's coverage claim survives.
	if ws.Base() != 0 || ws.Max() != uint64(writeSetCap+1) {
		t.Fatalf("interval = (%d,%d]", ws.Base(), ws.Max())
	}
}

func TestWriteSetMergeContiguous(t *testing.T) {
	a := NewWriteSet()
	a.AddEvent(wsNodeEvent(EventNode, 3, "n1"))
	a.AddEvent(wsNodeEvent(EventNode, 4, "n2"))
	b := NewWriteSet()
	b.AddEvent(wsEdgeEvent(5, "e1"))

	a.Merge(b)
	if a.Full() {
		t.Fatal("contiguous merge degraded to full")
	}
	if a.Base() != 2 || a.Max() != 5 {
		t.Fatalf("merged interval = (%d,%d], want (2,5]", a.Base(), a.Max())
	}
	if len(a.Nodes) != 2 || len(a.Edges) != 1 {
		t.Fatalf("merged records = %d nodes, %d edges", len(a.Nodes), len(a.Edges))
	}

	// Overlapping intervals merge fine too (o.base <= ws.max).
	c := NewWriteSet()
	c.AddEvent(wsNodeEvent(EventNodeUpdate, 5, "n1"))
	c.AddEvent(wsNodeEvent(EventNode, 6, "n3"))
	a.Merge(c)
	if a.Full() || a.Base() != 2 || a.Max() != 6 {
		t.Fatalf("overlap merge = full=%v (%d,%d]", a.Full(), a.Base(), a.Max())
	}
}

func TestWriteSetMergeGapDegrades(t *testing.T) {
	a := NewWriteSet()
	a.AddEvent(wsNodeEvent(EventNode, 3, "n1"))
	b := NewWriteSet()
	b.AddEvent(wsNodeEvent(EventNode, 7, "n2")) // base 6 > a.max 3: gap

	a.Merge(b)
	if !a.Full() {
		t.Fatal("merging across a version gap must degrade to full")
	}
	if a.Max() != 7 {
		t.Fatalf("merged max = %d, want 7", a.Max())
	}
}

func TestWriteSetMergeNilAndFull(t *testing.T) {
	a := NewWriteSet()
	a.AddEvent(wsNodeEvent(EventNode, 3, "n1"))
	a.Merge(nil)
	if !a.Full() || a.Len() != 0 {
		t.Fatal("merging nil must degrade to full")
	}

	b := NewWriteSet()
	b.AddEvent(wsNodeEvent(EventNode, 3, "n1"))
	b.Merge(FullWriteSet())
	if !b.Full() || b.Len() != 0 {
		t.Fatal("merging a full set must degrade to full")
	}
}

// TestWriteSetFromFeed checks the end-to-end contract the continuous
// checker relies on: folding a trace's real change-feed events in
// delivery order yields a contiguous interval ending at the trace's
// current version, with pre-images attached to updates.
func TestWriteSetFromFeed(t *testing.T) {
	m := provenance.NewModel("m")
	if err := m.AddType(&provenance.TypeDef{Name: "doc", Class: provenance.ClassData}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddField("doc", &provenance.FieldDef{Name: "state", Kind: provenance.KindString}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sub := st.Subscribe()
	defer sub.Cancel()

	put := func(id, state string, update bool) {
		t.Helper()
		n := &provenance.Node{ID: id, Type: "doc", Class: provenance.ClassData, AppID: "A",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"state": provenance.String(state)})}
		op := st.PutNode
		if update {
			op = st.UpdateNode
		}
		if err := op(n); err != nil {
			t.Fatal(err)
		}
	}
	put("d1", "draft", false)
	put("d2", "draft", false)
	put("d1", "final", true) // update: feed carries the pre-image

	ws := NewWriteSet()
	for i := 0; i < 3; i++ {
		ws.AddEvent(<-sub.C())
	}
	if ws.Full() {
		t.Fatal("feed-fed set degraded to full")
	}
	if ws.Base() != 0 || ws.Max() != st.TraceVersion("A") {
		t.Fatalf("interval = (%d,%d], trace at %d", ws.Base(), ws.Max(), st.TraceVersion("A"))
	}
	if len(ws.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(ws.Nodes))
	}
	up := ws.Nodes[2]
	if up.Kind != EventNodeUpdate || up.Prev == nil {
		t.Fatalf("update write = kind %v prev %v", up.Kind, up.Prev)
	}
	if up.Prev.Attr("state").Str() != "draft" || up.Node.Attr("state").Str() != "final" {
		t.Fatalf("pre/post images = %q -> %q", up.Prev.Attr("state").Str(), up.Node.Attr("state").Str())
	}
}
