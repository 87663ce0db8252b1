// Package correlate implements the data correlation and enrichment
// component of the business provenance system (Section II-A): analytics
// that link the collected records into the provenance graph by deriving
// relation edges, and enrichment passes that add derived attributes.
//
// Some relations are basic IT-level links (reads/writes between tasks and
// data, actor joins); others are derived from business context (the
// manager relation between persons). Both are expressed as correlation
// rules run over each trace, either in batch or incrementally from the
// store's change feed.
package correlate

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/provenance"
	"repro/internal/store"
)

// Rule derives relation edges for one trace. Derive must be a pure
// function of the trace subgraph: the engine deduplicates and persists the
// returned edges. Edge IDs are assigned by the engine; rules leave ID
// empty and may leave AppID empty (the engine fills both in).
type Rule interface {
	// Name identifies the rule in stats and generated edge IDs.
	Name() string
	// Derive returns the edges that should exist in the trace. Already
	// existing edges are filtered out by the engine, so rules may return
	// the full set every time.
	Derive(g *provenance.Graph, appID string) []*provenance.Edge
}

// KeyJoin links a source node to a target node whenever a source attribute
// equals a target attribute within the same trace — the workhorse
// correlation ("the approval whose reqID matches the requisition's reqID
// is the approvalOf that requisition").
type KeyJoin struct {
	// RuleName identifies the rule.
	RuleName string
	// EdgeType is the relation type of the derived edges.
	EdgeType string
	// SourceType / SourceField and TargetType / TargetField declare the
	// join. A node joins when its field value equals the other side's.
	SourceType  string
	SourceField string
	TargetType  string
	TargetField string
}

// Name implements Rule.
func (k *KeyJoin) Name() string { return k.RuleName }

// Derive implements Rule by hash-joining the two node sets on the key.
func (k *KeyJoin) Derive(g *provenance.Graph, appID string) []*provenance.Edge {
	targets := make(map[string][]*provenance.Node)
	for _, t := range g.NodesByType(appID, k.TargetType) {
		v := t.Attr(k.TargetField)
		if v.IsZero() {
			continue
		}
		targets[v.Key()] = append(targets[v.Key()], t)
	}
	var res []*provenance.Edge
	for _, s := range g.NodesByType(appID, k.SourceType) {
		v := s.Attr(k.SourceField)
		if v.IsZero() {
			continue
		}
		for _, t := range targets[v.Key()] {
			if s.ID == t.ID {
				continue
			}
			res = append(res, &provenance.Edge{
				Type: k.EdgeType, Source: s.ID, Target: t.ID,
			})
		}
	}
	return res
}

// TemporalOrder derives nextTask-style edges by ordering the trace's task
// nodes by timestamp and chaining consecutive ones.
type TemporalOrder struct {
	// RuleName identifies the rule.
	RuleName string
	// EdgeType is the relation type of the derived edges ("nextTask").
	EdgeType string
}

// Name implements Rule.
func (o *TemporalOrder) Name() string { return o.RuleName }

// Derive implements Rule.
func (o *TemporalOrder) Derive(g *provenance.Graph, appID string) []*provenance.Edge {
	tasks := g.Nodes(provenance.NodeFilter{Class: provenance.ClassTask, AppID: appID})
	sort.SliceStable(tasks, func(i, j int) bool {
		if !tasks[i].Timestamp.Equal(tasks[j].Timestamp) {
			return tasks[i].Timestamp.Before(tasks[j].Timestamp)
		}
		return tasks[i].ID < tasks[j].ID
	})
	var res []*provenance.Edge
	for i := 1; i < len(tasks); i++ {
		res = append(res, &provenance.Edge{
			Type: o.EdgeType, Source: tasks[i-1].ID, Target: tasks[i].ID,
		})
	}
	return res
}

// Func adapts a plain function to a Rule, for context-derived relations
// that need custom logic.
type Func struct {
	RuleName string
	Fn       func(g *provenance.Graph, appID string) []*provenance.Edge
}

// Name implements Rule.
func (f *Func) Name() string { return f.RuleName }

// Derive implements Rule.
func (f *Func) Derive(g *provenance.Graph, appID string) []*provenance.Edge {
	return f.Fn(g, appID)
}

// Stats counts correlation outcomes.
type Stats struct {
	// TracesProcessed counts RunTrace executions.
	TracesProcessed int
	// EdgesDerived counts edges persisted by the engine.
	EdgesDerived int
	// AttrsEnriched counts node updates applied by enrichers.
	AttrsEnriched int
	// Errors counts failed edge inserts and enrichment updates.
	Errors int
}

// Engine runs correlation rules over the provenance store.
type Engine struct {
	st        *store.Store
	rules     []Rule
	enrichers []Enricher

	mu    sync.Mutex
	seq   int
	stats Stats

	sub  *store.Subscription
	done chan struct{}
}

// NewEngine builds a correlation engine. Rule names must be unique: they
// namespace the derived edge IDs.
func NewEngine(st *store.Store, rules ...Rule) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("correlate: nil store")
	}
	seen := make(map[string]bool)
	for _, r := range rules {
		if r.Name() == "" {
			return nil, fmt.Errorf("correlate: rule with empty name")
		}
		if seen[r.Name()] {
			return nil, fmt.Errorf("correlate: duplicate rule name %s", r.Name())
		}
		seen[r.Name()] = true
	}
	return &Engine{st: st, rules: rules}, nil
}

// RunTrace runs every rule against one trace and persists the new edges.
// It is idempotent: an edge of the same type between the same endpoints is
// derived at most once. The trace is read across both tiers: one that was
// sealed before the engine reached it still gets its edges, and the first
// PutEdge promotes it back.
func (e *Engine) RunTrace(appID string) error {
	type want struct {
		rule string
		edge *provenance.Edge
	}
	var wanted []want
	err := e.st.ViewTrace(appID, func(g *provenance.Graph, _ uint64) error {
		for _, r := range e.rules {
			for _, ed := range r.Derive(g, appID) {
				if ed.Source == "" || ed.Target == "" || ed.Type == "" {
					return fmt.Errorf("correlate: rule %s produced malformed edge %+v", r.Name(), ed)
				}
				if g.HasEdge(ed.Source, ed.Type, ed.Target) {
					continue
				}
				wanted = append(wanted, want{r.Name(), ed})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.stats.TracesProcessed++
	e.mu.Unlock()

	var firstErr error
	added := make(map[string]bool) // dedup within this batch
	for _, w := range wanted {
		key := w.edge.Source + "\x00" + w.edge.Type + "\x00" + w.edge.Target
		if added[key] {
			continue
		}
		added[key] = true
		// The counter is in-memory, but cr- edges also arrive from log
		// replay and shard-handoff imports with IDs this engine never
		// allocated; skip past any taken ID instead of colliding.
		e.mu.Lock()
		var id string
		for {
			e.seq++
			id = fmt.Sprintf("cr-%s-%d", w.rule, e.seq)
			if e.st.Edge(id) == nil {
				break
			}
		}
		e.mu.Unlock()
		ed := w.edge.Clone()
		ed.ID = id
		ed.AppID = appID
		if err := e.st.PutEdge(ed); err != nil {
			e.mu.Lock()
			e.stats.Errors++
			e.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("correlate: rule %s: %v", w.rule, err)
			}
			continue
		}
		e.mu.Lock()
		e.stats.EdgesDerived++
		e.mu.Unlock()
	}
	if err := e.runEnrichers(appID); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// RunAll correlates every trace resident in the hot tier. Sealed traces
// are left alone — materializing each on every batch would cost a segment
// read per trace; one sealed short of its edges is repaired by RunTrace
// when its backlog event arrives.
func (e *Engine) RunAll() error {
	var apps []string
	_ = e.st.View(func(g *provenance.Graph) error { // the closure cannot fail
		apps = g.AppIDs()
		return nil
	})
	var firstErr error
	for _, app := range apps {
		if err := e.RunTrace(app); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Start begins incremental correlation: every node insert or update
// triggers re-correlation of the affected trace. Edge events are ignored
// (the engine's own output would otherwise feed back). Call Stop to end.
func (e *Engine) Start() {
	if e.sub != nil {
		return
	}
	e.sub = e.st.Subscribe()
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		for ev := range e.sub.C() {
			if ev.Kind == store.EventEdge {
				continue
			}
			// Errors here are counted in stats; incremental correlation is
			// best-effort and the next event retries the trace.
			_ = e.RunTrace(ev.AppID())
		}
	}()
}

// Stop ends incremental correlation and waits for the worker to drain.
func (e *Engine) Stop() {
	if e.sub == nil {
		return
	}
	e.sub.Cancel()
	<-e.done
	e.sub = nil
	e.done = nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
