// Package correlate implements the data correlation and enrichment
// component of the business provenance system (Section II-A): analytics
// that link the collected records into the provenance graph by deriving
// relation edges, and enrichment passes that add derived attributes.
//
// Some relations are basic IT-level links (reads/writes between tasks and
// data, actor joins); others are derived from business context (the
// manager relation between persons). Both are expressed as correlation
// rules evaluated over one trace at a time: by the ingest pipeline against
// the trace plus the batch it is about to commit, so derived records ride
// in the commit that causes them, or explicitly as a repair (RunTrace).
package correlate

import (
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/provenance"
	"repro/internal/store"
)

// Rule derives relation edges for one trace. Derive must be a pure
// function of the trace subgraph: the engine deduplicates the returned
// edges and assigns their IDs; rules leave ID empty and may leave AppID
// empty (the engine fills both in).
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
	// TracesProcessed counts Derive executions: one per trace an ingest
	// batch touched, plus the explicit RunTrace / RunAll repairs.
	TracesProcessed int
	// EdgesDerived counts derived edges the store accepted.
	EdgesDerived int
	// AttrsEnriched counts enrichment updates the store accepted (ingest
	// folds the enrichment of a node it inserts into the insert itself).
	AttrsEnriched int
	// Errors counts derived records the store rejected.
	Errors int
}

// Engine derives correlation records. It holds no goroutine and allocates
// no IDs: Derive is a pure function of the graph it is handed, and the
// caller commits the result — the ingest pipeline inside the batch that
// caused it, RunTrace as an explicit repair.
type Engine struct {
	st        *store.Store
	rules     []Rule
	enrichers []Enricher

	mu    sync.Mutex
	stats Stats
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

// edgeID names a derived edge after what it asserts: a hash of (rule,
// type, source, target). Two derivations of the same edge — a redelivered
// batch, a repair racing an ingest, the other end of a shard handoff —
// therefore collide in the store (ErrDuplicate) instead of doubling the
// edge, with no counter to keep past restarts. Every edge row carries the
// ID twice, so it is short: 96 bits of SHA-256 still make two distinct
// edges colliding a non-event.
func edgeID(rule string, e *provenance.Edge) string {
	sum := sha256.Sum256([]byte(rule + "\x00" + e.Type + "\x00" + e.Source + "\x00" + e.Target))
	return "cr-" + base64.RawURLEncoding.EncodeToString(sum[:12])
}

// Derive evaluates every rule and enricher against one trace of g and
// returns what the trace lacks, ready to commit: the edges its rules call
// for and no (source, type, target) of which exists yet, and clones of the
// nodes whose enrichment attributes would change, new values set. It reads
// g and writes nothing; g may be a store snapshot, a sealed trace's graph
// or an Overlay carrying nodes not committed yet. Rules and enrichers all
// see g as it is: an enricher reading a relation sees the edges derived
// here from the next derivation on.
func (e *Engine) Derive(g *provenance.Graph, appID string) (store.Batch, error) {
	e.mu.Lock()
	e.stats.TracesProcessed++
	e.mu.Unlock()
	var d store.Batch
	type triple struct{ source, typ, target string }
	seen := make(map[triple]bool) // two rules may call for the same edge
	for _, r := range e.rules {
		for _, ed := range r.Derive(g, appID) {
			if ed.Source == "" || ed.Target == "" || ed.Type == "" {
				return store.Batch{}, fmt.Errorf("correlate: rule %s produced malformed edge %+v", r.Name(), ed)
			}
			key := triple{ed.Source, ed.Type, ed.Target}
			if seen[key] || g.HasEdge(ed.Source, ed.Type, ed.Target) {
				continue
			}
			seen[key] = true
			c := ed.Clone()
			c.ID, c.AppID = edgeID(r.Name(), ed), appID
			d.Edges = append(d.Edges, c)
		}
	}
	var err error
	d.Updates, err = e.enrich(g, appID)
	return d, err
}

// Settle accounts for the store's answer res to a committed batch b whose
// edges and updates were derived, and returns the first real rejection. A
// duplicate edge ID is not one: the ID is the edge, so the edge is there.
func (e *Engine) Settle(b store.Batch, res store.BatchErrors) error {
	var first error
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, err := range res.Edges {
		switch {
		case err == nil:
			e.stats.EdgesDerived++
		case errors.Is(err, provenance.ErrDuplicate):
		default:
			e.stats.Errors++
			if first == nil {
				first = fmt.Errorf("correlate: %v: %v", b.Edges[i], err)
			}
		}
	}
	for i, err := range res.Updates {
		if err == nil {
			e.stats.AttrsEnriched++
			continue
		}
		e.stats.Errors++
		if first == nil {
			first = fmt.Errorf("correlate: enriching %s: %v", b.Updates[i].ID, err)
		}
	}
	return first
}

// RunTrace derives against the trace as stored — either tier — and commits
// what is missing in one commit (nothing missing, nothing committed).
// Ingest derives inside its own commit, so this is the repair and backfill
// path: records that entered the store some other way, rules added since.
func (e *Engine) RunTrace(appID string) error {
	var d store.Batch
	err := e.st.ViewTrace(appID, func(g *provenance.Graph, _ uint64) (err error) {
		d, err = e.Derive(g, appID)
		return err
	})
	if err != nil || len(d.Edges)+len(d.Updates) == 0 {
		return err
	}
	return e.Settle(d, e.st.Commit(d))
}

// RunAll runs RunTrace over every trace resident in the hot tier. Sealed
// traces are left alone — materializing each would cost a segment read
// per trace, and a sealed trace was sealed with its edges.
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

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
