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
// clients into the provenance store. It is safe for concurrent use.
type Pipeline struct {
	st       *store.Store
	mappings []*Mapping

	mu    sync.Mutex
	seq   int
	stats Stats
}

// NewPipeline builds a pipeline over the store with the given recorder
// mappings, validating each against the store's data model.
func NewPipeline(st *store.Store, mappings ...*Mapping) (*Pipeline, error) {
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
	return &Pipeline{st: st, mappings: mappings}, nil
}

// rec returns the named recorder's mutable counter bucket. Caller holds
// p.mu; the returned pointer must not escape the critical section.
func (p *Pipeline) rec(name string) *RecorderStats {
	if p.stats.PerRecorder == nil {
		p.stats.PerRecorder = make(map[string]RecorderStats)
	}
	rs := p.stats.PerRecorder[name]
	return &rs
}

// bump applies fn to the named recorder's counters under the lock.
func (p *Pipeline) bump(name string, fn func(*RecorderStats)) {
	rs := p.rec(name)
	fn(rs)
	p.stats.PerRecorder[name] = *rs
}

// match finds the recorder claiming the event, counting Ingested and
// Unmatched. A nil return means no recorder matched. Caller holds no lock.
func (p *Pipeline) match(ev AppEvent) *Mapping {
	p.mu.Lock()
	p.stats.Ingested++
	p.mu.Unlock()
	for _, cand := range p.mappings {
		if cand.matches(ev) {
			return cand
		}
	}
	p.mu.Lock()
	p.stats.Unmatched++
	p.mu.Unlock()
	return nil
}

// Ingest processes one application event. Unmatched events and events
// without a trace ID are counted, not errors: in a partially managed
// environment both are routine.
func (p *Pipeline) Ingest(ev AppEvent) error {
	m := p.match(ev)
	if m == nil {
		return nil
	}
	if ev.AppID == "" {
		p.mu.Lock()
		p.stats.NoTrace++
		p.bump(m.Name, func(rs *RecorderStats) { rs.NoTrace++ })
		p.mu.Unlock()
		return nil
	}
	n, err := p.transform(m, ev, "", 0)
	if err != nil {
		p.mu.Lock()
		p.stats.Errors++
		p.bump(m.Name, func(rs *RecorderStats) { rs.TransformErrors++ })
		p.mu.Unlock()
		return fmt.Errorf("events: recorder %s: %v", m.Name, err)
	}
	if err := p.st.PutNode(n); err != nil {
		p.mu.Lock()
		p.stats.Errors++
		p.bump(m.Name, func(rs *RecorderStats) { rs.StoreErrors++ })
		p.mu.Unlock()
		return fmt.Errorf("events: recorder %s: %v", m.Name, err)
	}
	p.mu.Lock()
	p.stats.Recorded++
	p.bump(m.Name, func(rs *RecorderStats) { rs.Recorded++ })
	p.mu.Unlock()
	return nil
}

// EventError records the failure of one event within a batch.
type EventError struct {
	// Index is the event's position in the submitted batch.
	Index int
	// Err is the per-event ingestion failure.
	Err error
}

// BatchError aggregates every per-event failure from one IngestAll call.
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

// IngestAll processes a batch, continuing past per-event errors. When any
// event fails it returns a *BatchError naming every failing index, so
// callers can surface exactly which events were rejected while the rest
// of the batch stays recorded.
func (p *Pipeline) IngestAll(evs []AppEvent) error {
	var failed []EventError
	for i, ev := range evs {
		if err := p.Ingest(ev); err != nil {
			failed = append(failed, EventError{Index: i, Err: err})
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &BatchError{Failed: failed, Total: len(evs)}
}

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

// IngestKeyed processes a coalesced run of keyed events — the ingestion
// gateway's unit of work — with at-least-once delivery semantics and one
// store commit for the whole run:
//
//   - Events without a mapping-declared ID key get IDs derived from
//     (batch key, index), so a redelivered batch regenerates identical
//     records.
//   - Records the store rejects as duplicates of byte-identical rows are
//     counted as Duplicates and treated as success: the event is already
//     recorded, which is exactly what at-least-once asks for. A duplicate
//     ID with DIFFERENT content is still an error (an ID collision).
//   - All surviving records are committed through store.PutNodes: one log
//     flush, one shared fsync, one snapshot, regardless of run size.
//
// The returned *BatchError (if any) indexes failures by position in kevs,
// so the gateway can map them back to each client batch's own indices.
func (p *Pipeline) IngestKeyed(kevs []KeyedEvent) error {
	var failed []EventError
	nodes := make([]*provenance.Node, 0, len(kevs))
	names := make([]string, 0, len(kevs)) // recorder per node
	at := make([]int, 0, len(kevs))       // nodes[j] transforms kevs[at[j]]
	for i, kev := range kevs {
		m := p.match(kev.Event)
		if m == nil {
			continue
		}
		if kev.Event.AppID == "" {
			p.mu.Lock()
			p.stats.NoTrace++
			p.bump(m.Name, func(rs *RecorderStats) { rs.NoTrace++ })
			p.mu.Unlock()
			continue
		}
		n, err := p.transform(m, kev.Event, kev.Key, kev.Index)
		if err != nil {
			p.mu.Lock()
			p.stats.Errors++
			p.bump(m.Name, func(rs *RecorderStats) { rs.TransformErrors++ })
			p.mu.Unlock()
			failed = append(failed, EventError{Index: i, Err: fmt.Errorf("events: recorder %s: %v", m.Name, err)})
			continue
		}
		nodes = append(nodes, n)
		names = append(names, m.Name)
		at = append(at, i)
	}
	for j, err := range p.st.PutNodes(nodes) {
		switch {
		case err == nil:
			p.mu.Lock()
			p.stats.Recorded++
			p.bump(names[j], func(rs *RecorderStats) { rs.Recorded++ })
			p.mu.Unlock()
		case errors.Is(err, provenance.ErrDuplicate) && p.sameRow(nodes[j]):
			p.mu.Lock()
			p.stats.Duplicates++
			p.bump(names[j], func(rs *RecorderStats) { rs.Duplicates++ })
			p.mu.Unlock()
		default:
			p.mu.Lock()
			p.stats.Errors++
			p.bump(names[j], func(rs *RecorderStats) { rs.StoreErrors++ })
			p.mu.Unlock()
			failed = append(failed, EventError{Index: at[j], Err: fmt.Errorf("events: recorder %s: %v", names[j], err)})
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
	return &BatchError{Failed: failed, Total: len(kevs)}
}

// sameRow reports whether the store already holds n encoded to the exact
// same Table-1 row — the signature of a redelivered record. Row encoding
// is deterministic (attributes sort), so byte equality is content equality.
func (p *Pipeline) sameRow(n *provenance.Node) bool {
	row, err := store.EncodeNode(n)
	if err != nil {
		return false
	}
	have, ok := p.st.Row(n.ID)
	return ok && have.XML == row.XML
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
