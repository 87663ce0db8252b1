// Package events implements the capture side of the business provenance
// system (Section II-A of the paper): application events produced by the
// underlying IT systems are processed by recorder clients, transformed
// into provenance events, and recorded in the provenance store.
//
// Recorder clients deliberately do not copy all application data: each
// recorder declares exactly which payload fields are captured, so
// irrelevant or sensitive data never reaches the provenance store.
package events

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/correlate"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/tenant"
)

// AppEvent is one raw event emitted by an application: a task being
// performed, data being accessed or modified, and so on. Payload carries
// the application's own key/value data; recorders pick the relevant subset.
// The JSON tags are the wire form: POST /events takes an array of these.
type AppEvent struct {
	// Source names the emitting system ("lombardi", "hr-db", "mail").
	Source string `json:"source"`
	// Type is the event type within the source ("requisition.submitted").
	Type string `json:"type"`
	// AppID correlates the event to a process execution trace. Unmanaged
	// activities may emit events without one; those events are dropped and
	// counted (they cannot be placed in any trace).
	AppID string `json:"appId"`
	// Timestamp is the application-reported event time.
	Timestamp time.Time `json:"timestamp"`
	// Payload is the raw application data.
	Payload map[string]string `json:"payload"`
}

// FieldMapping copies one payload key into one typed provenance attribute.
type FieldMapping struct {
	// PayloadKey is the application payload key to read.
	PayloadKey string
	// Attr is the provenance attribute to write (a field declared in the
	// data model).
	Attr string
	// Kind is the attribute's declared kind; the payload string is parsed
	// accordingly.
	Kind provenance.Kind
	// Required marks fields whose absence makes the event unrecordable.
	// Non-required fields are simply skipped when missing — the partial
	// capture the paper's partially managed setting implies.
	Required bool
}

// Mapping is a declarative recorder client: it matches application events
// by (source, type) and transforms them into one provenance node.
type Mapping struct {
	// Name identifies the recorder in stats and errors.
	Name string
	// Source and EventType select the application events this recorder
	// processes. An empty Source matches any source.
	Source    string
	EventType string
	// NodeType and Class give the provenance record type produced.
	NodeType string
	Class    provenance.Class
	// IDKey is the payload key holding a stable record identifier. When
	// empty the pipeline assigns a sequential ID ("PE<n>").
	IDKey string
	// Fields lists the payload fields to capture. Anything not listed is
	// not copied.
	Fields []FieldMapping
}

// validate checks the mapping declaration against the data model.
func (m *Mapping) validate(model *provenance.Model) error {
	if m.Name == "" {
		return fmt.Errorf("events: mapping with empty name")
	}
	if m.EventType == "" {
		return fmt.Errorf("events: mapping %s matches no event type", m.Name)
	}
	if !m.Class.IsNode() {
		return fmt.Errorf("events: mapping %s has non-node class %v", m.Name, m.Class)
	}
	if model == nil {
		return nil
	}
	t := model.Type(m.NodeType)
	if t == nil {
		return fmt.Errorf("events: mapping %s produces undeclared type %s", m.Name, m.NodeType)
	}
	if t.Class != m.Class {
		return fmt.Errorf("events: mapping %s: type %s is class %v, mapping says %v",
			m.Name, m.NodeType, t.Class, m.Class)
	}
	for _, f := range m.Fields {
		fd := t.Field(f.Attr)
		if fd == nil {
			return fmt.Errorf("events: mapping %s maps undeclared field %s.%s", m.Name, m.NodeType, f.Attr)
		}
		if fd.Kind != f.Kind {
			return fmt.Errorf("events: mapping %s: field %s.%s is %v, mapping says %v",
				m.Name, m.NodeType, f.Attr, fd.Kind, f.Kind)
		}
	}
	return nil
}

// matches reports whether the mapping applies to the event.
func (m *Mapping) matches(ev AppEvent) bool {
	return ev.Type == m.EventType && (m.Source == "" || ev.Source == m.Source)
}

// RecorderStats counts one recorder client's outcomes, keyed by the
// recorder's name in Stats.PerRecorder.
type RecorderStats struct {
	// Recorded counts events this recorder turned into provenance records.
	Recorded int
	// NoTrace counts events this recorder matched but had to drop for lack
	// of an AppID — the package doc's "dropped and counted" promise, now
	// attributable to the recorder that saw them.
	NoTrace int
	// TransformErrors counts events whose payload-to-record transformation
	// failed (missing required fields, unparsable values).
	TransformErrors int
	// StoreErrors counts records the provenance store rejected.
	StoreErrors int
	// Duplicates counts at-least-once redeliveries absorbed idempotently:
	// the record was already stored with identical content.
	Duplicates int
}

// Stats counts pipeline outcomes.
type Stats struct {
	// Ingested counts every event offered to the pipeline.
	Ingested int
	// Recorded counts events transformed into provenance records.
	Recorded int
	// Unmatched counts events no recorder claimed.
	Unmatched int
	// NoTrace counts events dropped for lack of an AppID.
	NoTrace int
	// Errors counts events whose transformation or storage failed.
	Errors int
	// Duplicates counts redelivered events absorbed idempotently (keyed
	// ingestion only; the single-event path still reports them as errors).
	Duplicates int
	// PerRecorder breaks Recorded/NoTrace/errors/duplicates down by
	// recorder name.
	PerRecorder map[string]RecorderStats
}

// Pipeline routes application events through the registered recorder
// clients into the provenance store, together with the correlation records
// they cause. It is safe for concurrent use.
type Pipeline struct {
	st       *store.Store
	corr     *correlate.Engine // nil: record nodes only, derive nothing
	mappings []*Mapping

	mu    sync.Mutex
	seq   int
	stats Stats
	// busy holds the traces some ingest is between deriving and committing;
	// free wakes the ingests waiting for one of them (see lockTraces).
	busy map[string]bool
	free *sync.Cond
}

// NewPipeline builds a pipeline over the store with the given recorder
// mappings, validating each against the store's data model. corr derives
// the relation edges and enrichment updates every batch commits beside its
// nodes; nil records nodes only.
func NewPipeline(st *store.Store, corr *correlate.Engine, mappings ...*Mapping) (*Pipeline, error) {
	if st == nil {
		return nil, fmt.Errorf("events: nil store")
	}
	seen := make(map[string]bool)
	for _, m := range mappings {
		if err := m.validate(st.Model()); err != nil {
			return nil, err
		}
		key := m.Source + "\x00" + m.EventType
		if seen[key] {
			return nil, fmt.Errorf("events: two mappings match (%s, %s)", m.Source, m.EventType)
		}
		seen[key] = true
	}
	p := &Pipeline{st: st, corr: corr, mappings: mappings, busy: make(map[string]bool)}
	p.free = sync.NewCond(&p.mu)
	return p, nil
}

// count applies fn to the pipeline totals and the named recorder's bucket.
func (p *Pipeline) count(recorder string, fn func(*Stats, *RecorderStats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stats.PerRecorder == nil {
		p.stats.PerRecorder = make(map[string]RecorderStats)
	}
	rs := p.stats.PerRecorder[recorder]
	fn(&p.stats, &rs)
	p.stats.PerRecorder[recorder] = rs
}

// match finds the recorder claiming the event; nil means none does.
func (p *Pipeline) match(ev AppEvent) *Mapping {
	for _, cand := range p.mappings {
		if cand.matches(ev) {
			return cand
		}
	}
	return nil
}

// EventError records the failure of one event within a batch.
type EventError struct {
	// Index is the event's position in the submitted batch.
	Index int
	// Err is the per-event ingestion failure.
	Err error
}

// BatchError aggregates every per-event failure from one ingest call.
// The batch is not transactional: events that succeeded stay recorded.
type BatchError struct {
	// Failed lists the failing events in batch order.
	Failed []EventError
	// Total is the size of the submitted batch.
	Total int
}

func (b *BatchError) Error() string {
	return fmt.Sprintf("events: %d of %d events failed; first (event %d): %v",
		len(b.Failed), b.Total, b.Failed[0].Index, b.Failed[0].Err)
}

// Unwrap exposes the first per-event error for errors.Is/As chains.
func (b *BatchError) Unwrap() error { return b.Failed[0].Err }

// KeyedEvent pairs one application event with its idempotent delivery
// identity: the idempotency key of the client batch that carried it and
// the event's index within that batch. The pair makes the event's derived
// record ID stable across redeliveries.
type KeyedEvent struct {
	Event AppEvent
	// Key is the client batch's idempotency key; empty falls back to the
	// pipeline's sequential ID assignment.
	Key string
	// Index is the event's position within its keyed client batch (not
	// within the coalesced run handed to IngestKeyed).
	Index int
}

// Ingest processes one application event. Unmatched events and events
// without a trace ID are counted, not errors: in a partially managed
// environment both are routine.
func (p *Pipeline) Ingest(ev AppEvent) error {
	err := p.ingest([]KeyedEvent{{Event: ev}}, false)
	var be *BatchError
	if errors.As(err, &be) {
		return be.Failed[0].Err
	}
	return err
}

// IngestAll processes a batch as one commit, continuing past per-event
// errors. When any event fails it returns a *BatchError naming every
// failing index, so callers can surface exactly which events were rejected
// while the rest of the batch stays recorded.
func (p *Pipeline) IngestAll(evs []AppEvent) error {
	kevs := make([]KeyedEvent, len(evs))
	for i, ev := range evs {
		kevs[i].Event = ev
	}
	return p.ingest(kevs, false)
}

// IngestKeyed processes a coalesced run of keyed events — the ingestion
// gateway's unit of work — with at-least-once delivery semantics. Events
// without a mapping-declared ID key get IDs derived from (batch key,
// index), so a redelivered batch regenerates identical records; and a
// record the store rejects as a duplicate of what the same event already
// recorded is counted under Duplicates and treated as success — a
// duplicate ID with DIFFERENT content is still an error (an ID collision).
// The returned *BatchError (if any) indexes failures by position in kevs,
// so the gateway can map them back to each client batch's own indices.
func (p *Pipeline) IngestKeyed(kevs []KeyedEvent) error {
	return p.ingest(kevs, true)
}

// ingest is the one path from events to the store: transform every event
// into its node, derive — per touched trace, against the trace as stored
// plus the batch's nodes — the edges and enrichment updates the nodes
// cause, and commit all of it as ONE store batch (one frame group, one
// fsync, one snapshot, one feed burst). Records stand or fall alone: a
// rejected node fails its own event; a derived record the store rejects is
// counted by the correlator and returned beside the event failures.
// redelivery absorbs duplicates of already-recorded events.
func (p *Pipeline) ingest(kevs []KeyedEvent, redelivery bool) error {
	var failed []EventError
	var b store.Batch
	names := make([]string, 0, len(kevs))           // recorder per node
	at := make([]int, 0, len(kevs))                 // b.Nodes[j] transforms kevs[at[j]]
	var apps []string                               // touched traces, first touch first
	byApp := make(map[string][]*provenance.Node, 4) // the batch's nodes per trace
	unmatched := 0
	for i, kev := range kevs {
		m := p.match(kev.Event)
		if m == nil {
			unmatched++
			continue
		}
		if kev.Event.AppID == "" {
			p.count(m.Name, func(st *Stats, rs *RecorderStats) { st.NoTrace++; rs.NoTrace++ })
			continue
		}
		n, err := p.transform(m, kev.Event, kev.Key, kev.Index)
		if err != nil {
			p.count(m.Name, func(st *Stats, rs *RecorderStats) { st.Errors++; rs.TransformErrors++ })
			failed = append(failed, EventError{Index: i, Err: fmt.Errorf("events: recorder %s: %v", m.Name, err)})
			continue
		}
		b.Nodes = append(b.Nodes, n)
		names = append(names, m.Name)
		at = append(at, i)
		if byApp[n.AppID] == nil {
			apps = append(apps, n.AppID)
		}
		byApp[n.AppID] = append(byApp[n.AppID], n)
	}
	p.mu.Lock()
	p.stats.Ingested += len(kevs)
	p.stats.Unmatched += unmatched
	p.mu.Unlock()
	var derr error // first failure among the derived records
	if p.corr != nil && len(apps) > 0 {
		defer p.lockTraces(apps)()
		for _, app := range apps {
			d, err := p.derive(app, byApp[app])
			if err != nil && derr == nil {
				derr = err
			}
			b.Edges = append(b.Edges, d.Edges...)
			b.Updates = append(b.Updates, d.Updates...)
		}
	}
	res := p.st.Commit(b)
	for j, err := range res.Nodes {
		switch {
		case err == nil:
			p.count(names[j], func(st *Stats, rs *RecorderStats) { st.Recorded++; rs.Recorded++ })
		case redelivery && errors.Is(err, provenance.ErrDuplicate) && p.recorded(b.Nodes[j]):
			p.count(names[j], func(st *Stats, rs *RecorderStats) { st.Duplicates++; rs.Duplicates++ })
		default:
			p.count(names[j], func(st *Stats, rs *RecorderStats) { st.Errors++; rs.StoreErrors++ })
			failed = append(failed, EventError{Index: at[j], Err: fmt.Errorf("events: recorder %s: %v", names[j], err)})
		}
	}
	if p.corr != nil {
		if err := p.corr.Settle(b, res); derr == nil {
			derr = err
		}
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
		derr = errors.Join(&BatchError{Failed: failed, Total: len(kevs)}, derr)
	}
	return derr
}

// derive computes what one trace will lack once nodes are committed. The
// trace is read across both tiers (ViewTrace): a batch landing on a sealed
// trace derives against the sealed records, and the commit promotes it.
// Enrichment of a node this batch inserts is applied to the node itself —
// inserted enriched, no update frame; only stored nodes get updates.
func (p *Pipeline) derive(app string, nodes []*provenance.Node) (d store.Batch, err error) {
	err = p.st.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
		d, err = p.corr.Derive(g.Overlay(app, nodes), app)
		stored := d.Updates[:0]
		for _, u := range d.Updates {
			if g.Node(u.ID) != nil {
				stored = append(stored, u)
				continue
			}
			for _, n := range nodes {
				if n.ID == u.ID {
					n.Attrs = u.Attrs
				}
			}
		}
		d.Updates = stored
		return err
	})
	return d, err
}

// lockTraces makes derive-then-commit atomic per trace: it blocks until no
// other ingest holds any of the traces, takes them all, and returns the
// release. Without it two concurrent batches carrying the two ends of a
// relation would each derive against a trace lacking the other's node, and
// the edge would never be derived. (The gateway feeds a trace through one
// worker; synchronous callers have no such order.) Taking all or nothing
// under one mutex cannot deadlock.
func (p *Pipeline) lockTraces(apps []string) (unlock func()) {
	p.mu.Lock()
	for i := 0; i < len(apps); i++ {
		if p.busy[apps[i]] {
			p.free.Wait()
			i = -1 // woken: look at all of them again
		}
	}
	for _, app := range apps {
		p.busy[app] = true
	}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		for _, app := range apps {
			delete(p.busy, app)
		}
		p.mu.Unlock()
		p.free.Broadcast()
	}
}

// recorded reports whether the store already holds the record this event
// transforms to: same identity and timestamp, and every captured attribute
// with the same value — the signature of a redelivered event. The stored
// node may carry more: enrichment adds derived attributes in the commit
// that recorded it.
func (p *Pipeline) recorded(n *provenance.Node) bool {
	have := p.st.Node(n.ID)
	if have == nil || have.Class != n.Class || have.Type != n.Type || have.AppID != n.AppID ||
		!have.Timestamp.Equal(n.Timestamp) {
		return false
	}
	for name, v := range n.Attrs {
		if !have.Attr(name).Equal(v) {
			return false
		}
	}
	return true
}

// transform builds the provenance node for the event. Events whose
// mapping declares no stable ID key normally receive a sequential ID;
// when the event arrived under a batch idempotency key the ID is derived
// from (key, index) instead, so a redelivered batch regenerates byte-for-
// byte identical records — the property that makes at-least-once delivery
// safe (the store rejects the duplicate, the pipeline recognizes it as
// already recorded).
func (p *Pipeline) transform(m *Mapping, ev AppEvent, key string, index int) (*provenance.Node, error) {
	id := ""
	if m.IDKey != "" {
		id = ev.Payload[m.IDKey]
		if id == "" {
			return nil, fmt.Errorf("event lacks ID key %q", m.IDKey)
		}
		// Record IDs live in one global keyspace (node IDs key the whole
		// store), so they carry the trace's namespace too: without this,
		// two tenants ingesting the same workload collide on record IDs,
		// and a default-tenant payload could alias another tenant's
		// records outright. The default tenant is the identity, but then
		// the separator is reserved — a bare-namespace record must not be
		// able to name a qualified key.
		if own := tenant.Owner(ev.AppID); own != tenant.DefaultID {
			id = tenant.Qualify(own, id)
		} else if !tenant.IsBare(id) {
			return nil, fmt.Errorf("record ID %q: the namespace separator is reserved", id)
		}
	} else if key != "" {
		id = fmt.Sprintf("PE-%s-%d", key, index)
	} else {
		p.mu.Lock()
		p.seq++
		id = fmt.Sprintf("PE%d", p.seq)
		p.mu.Unlock()
	}
	n := &provenance.Node{
		ID: id, Class: m.Class, Type: m.NodeType, AppID: ev.AppID,
		Timestamp: ev.Timestamp,
	}
	for _, f := range m.Fields {
		raw, ok := ev.Payload[f.PayloadKey]
		if !ok {
			if f.Required {
				return nil, fmt.Errorf("event lacks required field %q", f.PayloadKey)
			}
			continue
		}
		v, err := provenance.ParseValue(f.Kind, raw)
		if err != nil {
			return nil, fmt.Errorf("field %q: %v", f.PayloadKey, err)
		}
		n.SetAttr(f.Attr, v)
	}
	return n, nil
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	if p.stats.PerRecorder != nil {
		st.PerRecorder = make(map[string]RecorderStats, len(p.stats.PerRecorder))
		for name, rs := range p.stats.PerRecorder {
			st.PerRecorder[name] = rs
		}
	}
	return st
}

// Recorders lists the registered recorder names, sorted.
func (p *Pipeline) Recorders() []string {
	names := make([]string, 0, len(p.mappings))
	for _, m := range p.mappings {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}
