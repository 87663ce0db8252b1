package correlate

import (
	"fmt"

	"repro/internal/provenance"
)

// Enricher derives attributes for a trace's nodes — the enrichment half of
// the paper's "data correlation and enrichment component". Enrichers run
// after the edge rules in Derive; only changed attributes are written, so
// enrichment is idempotent.
type Enricher interface {
	// Name identifies the enricher in errors and stats.
	Name() string
	// Enrich returns the attribute updates the trace should receive.
	Enrich(g *provenance.Graph, appID string) []AttrUpdate
}

// AttrUpdate assigns attributes to one node.
type AttrUpdate struct {
	NodeID string
	Attrs  provenance.Attrs
}

// EnrichFunc adapts a function to an Enricher.
type EnrichFunc struct {
	EnricherName string
	Fn           func(g *provenance.Graph, appID string) []AttrUpdate
}

// Name implements Enricher.
func (e *EnrichFunc) Name() string { return e.EnricherName }

// Enrich implements Enricher.
func (e *EnrichFunc) Enrich(g *provenance.Graph, appID string) []AttrUpdate {
	return e.Fn(g, appID)
}

// DurationEnricher computes a duration attribute (in seconds) for nodes of
// one type from their start/end time attributes — a typical IT-level
// enrichment turning two raw timestamps into a business-meaningful number.
type DurationEnricher struct {
	EnricherName string
	NodeType     string
	StartField   string
	EndField     string
	// Target is the attribute receiving the duration in seconds.
	Target string
}

// Name implements Enricher.
func (d *DurationEnricher) Name() string { return d.EnricherName }

// Enrich implements Enricher.
func (d *DurationEnricher) Enrich(g *provenance.Graph, appID string) []AttrUpdate {
	var out []AttrUpdate
	for _, n := range g.NodesByType(appID, d.NodeType) {
		start, end := n.Attr(d.StartField), n.Attr(d.EndField)
		if start.IsZero() || end.IsZero() {
			continue
		}
		secs := end.TimeVal().Sub(start.TimeVal()).Seconds()
		out = append(out, AttrUpdate{
			NodeID: n.ID,
			Attrs:  provenance.Attrs{{Name: d.Target, Value: provenance.Float(secs)}},
		})
	}
	return out
}

// AddEnricher registers an enricher on the engine. Names must be unique
// among enrichers.
func (e *Engine) AddEnricher(en Enricher) error {
	if en == nil || en.Name() == "" {
		return fmt.Errorf("correlate: enricher with empty name")
	}
	for _, prev := range e.enrichers {
		if prev.Name() == en.Name() {
			return fmt.Errorf("correlate: duplicate enricher name %s", en.Name())
		}
	}
	e.enrichers = append(e.enrichers, en)
	return nil
}

// enrich computes the trace's enrichment updates: one clone per node whose
// attributes would change, carrying every enricher's values for it.
func (e *Engine) enrich(g *provenance.Graph, appID string) ([]*provenance.Node, error) {
	var updates []*provenance.Node
	pending := make(map[string]*provenance.Node) // node ID -> its clone in updates
	for _, en := range e.enrichers {
		for _, upd := range en.Enrich(g, appID) {
			n := pending[upd.NodeID]
			if n == nil {
				n = g.Node(upd.NodeID)
			}
			if n == nil {
				return nil, fmt.Errorf("correlate: enricher %s targets unknown node %s", en.Name(), upd.NodeID)
			}
			for _, a := range upd.Attrs {
				k, v := a.Name, a.Value
				if n.Attr(k).Equal(v) {
					continue
				}
				if pending[n.ID] == nil {
					n = n.Clone()
					pending[n.ID] = n
					updates = append(updates, n)
				}
				n.SetAttr(k, v)
			}
		}
	}
	return updates, nil
}
