package correlate

import (
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
)

func enrichModel(t testing.TB) *provenance.Model {
	t.Helper()
	m := testModel(t)
	if err := m.AddField("submission", &provenance.FieldDef{
		Name: "start", Kind: provenance.KindTime}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddField("submission", &provenance.FieldDef{
		Name: "end", Kind: provenance.KindTime}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddField("submission", &provenance.FieldDef{
		Name: "durationSeconds", Kind: provenance.KindFloat}); err != nil {
		t.Fatal(err)
	}
	return m
}

func enrichStore(t testing.TB) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Model: enrichModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDurationEnricher(t *testing.T) {
	s := enrichStore(t)
	start := time.Unix(1000, 0).UTC()
	put(t, s, &provenance.Node{ID: "t1", Class: provenance.ClassTask, Type: "submission",
		AppID: "A", Attrs: map[string]provenance.Value{
			"start": provenance.Time(start),
			"end":   provenance.Time(start.Add(90 * time.Second)),
		}})
	// A task with a missing end time is skipped, not an error.
	put(t, s, &provenance.Node{ID: "t2", Class: provenance.ClassTask, Type: "submission",
		AppID: "A", Attrs: map[string]provenance.Value{
			"start": provenance.Time(start),
		}})
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEnricher(&DurationEnricher{
		EnricherName: "duration", NodeType: "submission",
		StartField: "start", EndField: "end", Target: "durationSeconds",
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	if got := s.Node("t1").Attr("durationSeconds").FloatVal(); got != 90 {
		t.Fatalf("duration = %v", got)
	}
	if !s.Node("t2").Attr("durationSeconds").IsZero() {
		t.Fatal("partial task enriched")
	}
	if e.Stats().AttrsEnriched != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
	// Idempotent: a second run writes nothing.
	seqBefore := s.Stats().Seq
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Seq != seqBefore {
		t.Fatal("re-enrichment wrote unchanged values")
	}
}

func TestEnrichFuncAndValidation(t *testing.T) {
	s := enrichStore(t)
	put(t, s, &provenance.Node{ID: "t1", Class: provenance.ClassTask, Type: "submission", AppID: "A"})
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEnricher(nil); err == nil {
		t.Error("nil enricher accepted")
	}
	if err := e.AddEnricher(&EnrichFunc{EnricherName: ""}); err == nil {
		t.Error("unnamed enricher accepted")
	}
	fn := &EnrichFunc{EnricherName: "mark", Fn: func(g *provenance.Graph, appID string) []AttrUpdate {
		return []AttrUpdate{{NodeID: "t1", Attrs: map[string]provenance.Value{
			"actorEmail": provenance.String("derived@acme.com")}}}
	}}
	if err := e.AddEnricher(fn); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEnricher(&EnrichFunc{EnricherName: "mark"}); err == nil {
		t.Error("duplicate enricher name accepted")
	}
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	if got := s.Node("t1").Attr("actorEmail").Str(); got != "derived@acme.com" {
		t.Fatalf("enriched attr = %q", got)
	}
	// Enricher targeting a ghost node fails loudly.
	bad := &EnrichFunc{EnricherName: "ghost", Fn: func(*provenance.Graph, string) []AttrUpdate {
		return []AttrUpdate{{NodeID: "nope", Attrs: map[string]provenance.Value{
			"actorEmail": provenance.String("x")}}}
	}}
	if err := e.AddEnricher(bad); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTrace("A"); err == nil {
		t.Error("ghost-node enrichment succeeded")
	}
}

// TestEnrichersShareOneUpdate: two enrichers touching the same node yield
// one update carrying both values, in one commit with the derived edges.
func TestEnrichersShareOneUpdate(t *testing.T) {
	s := enrichStore(t)
	start := time.Unix(2000, 0).UTC()
	put(t, s, &provenance.Node{ID: "t1", Class: provenance.ClassTask, Type: "submission",
		AppID: "A", Attrs: map[string]provenance.Value{
			"start": provenance.Time(start),
			"end":   provenance.Time(start.Add(30 * time.Second)),
		}})
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEnricher(&DurationEnricher{
		EnricherName: "duration", NodeType: "submission",
		StartField: "start", EndField: "end", Target: "durationSeconds",
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEnricher(&EnrichFunc{EnricherName: "mark", Fn: func(*provenance.Graph, string) []AttrUpdate {
		return []AttrUpdate{{NodeID: "t1", Attrs: map[string]provenance.Value{
			"actorEmail": provenance.String("derived@acme.com")}}}
	}}); err != nil {
		t.Fatal(err)
	}
	seq := s.Stats().Seq
	if err := e.RunTrace("A"); err != nil {
		t.Fatal(err)
	}
	n := s.Node("t1")
	if n.Attr("durationSeconds").FloatVal() != 30 || n.Attr("actorEmail").Str() != "derived@acme.com" {
		t.Fatalf("enriched node = %v", n)
	}
	if got := s.Stats().Seq - seq; got != 1 {
		t.Fatalf("enrichment took %d commits entries, want 1", got)
	}
	if e.Stats().AttrsEnriched != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}
