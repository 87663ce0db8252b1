package viz

import (
	"strings"
	"testing"

	"repro/internal/provenance"
)

func testGraph(t *testing.T) *provenance.Graph {
	t.Helper()
	g := provenance.NewGraph()
	nodes := []*provenance.Node{
		{ID: "hm", Class: provenance.ClassResource, Type: "person", AppID: "A",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"name": provenance.String("Joe Doe")})},
		{ID: "req", Class: provenance.ClassData, Type: "jobRequisition", AppID: "A",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"reqID": provenance.String("REQ1"),
				"a1":    provenance.String("1"), "a2": provenance.String("2"),
				"a3": provenance.String("3"), "a4": provenance.String("4"),
				"a5": provenance.String("a-very-long-value-that-needs-truncating"),
			})},
		{ID: "t1", Class: provenance.ClassTask, Type: "submission", AppID: "A"},
		{ID: "t2", Class: provenance.ClassTask, Type: "approval", AppID: "A"},
		{ID: "cp", Class: provenance.ClassCustom, Type: "controlPoint", AppID: "A",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"status": provenance.String("satisfied")})},
		{ID: "other", Class: provenance.ClassData, Type: "doc", AppID: "B"},
	}
	for _, n := range nodes {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	edges := []*provenance.Edge{
		{ID: "e1", Type: "submitterOf", AppID: "A", Source: "hm", Target: "req"},
		{ID: "e2", Type: "checks", AppID: "A", Source: "cp", Target: "req"},
		{ID: "e3", Type: "nextTask", AppID: "A", Source: "t1", Target: "t2"},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestTraceDOTBasics(t *testing.T) {
	g := testGraph(t)
	dot := TraceDOT(g, "A", Options{})
	for _, want := range []string{
		"digraph provenance {",
		`label="A";`,
		`"hm"`, `"req"`, `"cp"`,
		"shape=ellipse", // person
		"shape=note",    // data
		"shape=box",     // task
		"shape=octagon", // control point
		`"hm" -> "req" [label="submitterOf"]`,
		`style=dashed`, // checks edge highlighted
		`"t1" -> "t2" [label="nextTask"]`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "other") {
		t.Error("DOT leaked another trace's node")
	}
}

func TestTraceDOTOptions(t *testing.T) {
	g := testGraph(t)
	dot := TraceDOT(g, "A", Options{Title: "my title", HideTaskOrder: true, MaxAttrs: 2})
	if !strings.Contains(dot, `label="my title";`) {
		t.Error("custom title missing")
	}
	if strings.Contains(dot, "nextTask") {
		t.Error("HideTaskOrder did not suppress nextTask edges")
	}
	if !strings.Contains(dot, "(+4 more)") {
		t.Errorf("attribute cap not applied:\n%s", dot)
	}
}

func TestTraceDOTTruncatesLongValues(t *testing.T) {
	g := testGraph(t)
	dot := TraceDOT(g, "A", Options{MaxAttrs: 10})
	if strings.Contains(dot, "a-very-long-value-that-needs-truncating") {
		t.Error("long attribute value not truncated")
	}
	if !strings.Contains(dot, "...") {
		t.Error("truncation marker missing")
	}
}

func TestTraceDOTEmptyTrace(t *testing.T) {
	g := provenance.NewGraph()
	dot := TraceDOT(g, "nope", Options{})
	if !strings.HasPrefix(dot, "digraph provenance {") || !strings.HasSuffix(dot, "}\n") {
		t.Errorf("empty trace DOT malformed:\n%s", dot)
	}
}
