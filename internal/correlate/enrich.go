package correlate

import (
	"fmt"

	"repro/internal/provenance"
)

// Enricher derives attributes for a trace's nodes — the enrichment half of
// the paper's "data correlation and enrichment component". Enrichers run
// after the edge rules in RunTrace; only changed attributes are written,
// so enrichment is idempotent and safe in incremental mode.
type Enricher interface {
	// Name identifies the enricher in errors and stats.
	Name() string
	// Enrich returns the attribute updates the trace should receive.
	Enrich(g *provenance.Graph, appID string) []AttrUpdate
}

// AttrUpdate assigns attributes to one node.
type AttrUpdate struct {
	NodeID string
	Attrs  map[string]provenance.Value
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
			Attrs:  map[string]provenance.Value{d.Target: provenance.Float(secs)},
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

// runEnrichers computes and applies attribute updates for one trace,
// writing only values that actually change.
func (e *Engine) runEnrichers(appID string) error {
	if len(e.enrichers) == 0 {
		return nil
	}
	type change struct {
		enricher string
		node     *provenance.Node // cloned, updated
	}
	var changes []change
	err := e.st.ViewTrace(appID, func(g *provenance.Graph, _ uint64) error {
		for _, en := range e.enrichers {
			for _, upd := range en.Enrich(g, appID) {
				n := g.Node(upd.NodeID)
				if n == nil {
					return fmt.Errorf("correlate: enricher %s targets unknown node %s",
						en.Name(), upd.NodeID)
				}
				dirty := false
				for k, v := range upd.Attrs {
					if !n.Attr(k).Equal(v) {
						dirty = true
					}
				}
				if !dirty {
					continue
				}
				c := n.Clone()
				for k, v := range upd.Attrs {
					c.SetAttr(k, v)
				}
				changes = append(changes, change{en.Name(), c})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var firstErr error
	for _, ch := range changes {
		if err := e.st.UpdateNode(ch.node); err != nil {
			e.mu.Lock()
			e.stats.Errors++
			e.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("correlate: enricher %s: %v", ch.enricher, err)
			}
			continue
		}
		e.mu.Lock()
		e.stats.AttrsEnriched++
		e.mu.Unlock()
	}
	return firstErr
}
