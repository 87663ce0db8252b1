package store

import (
	"sort"

	"repro/internal/provenance"
)

// loadSnap returns the published snapshot; never nil, Open publishes the
// first one. When deferred commits are pending (see publishLocked) it
// first publishes them — the read barrier — which takes logMu, so it must
// not be called with logMu held. The common case under active reading
// stays one atomic load with no locks: eager publication resumes as soon
// as the reader-load counter moves.
func (s *Store) loadSnap() *snapshot {
	s.snapCount.readerLoads.Add(1)
	if s.snapDirty.Load() {
		s.logMu.Lock()
		if s.snapDirty.Load() {
			s.forcePublishLocked()
		}
		s.logMu.Unlock()
	}
	return s.snap.Load()
}

// ReadTx is a consistent read-only view of the whole store state: the
// graph (with every resident trace's version and last-touch) and the
// secondary indexes, all from the same published snapshot. Obtained
// through Store.ReadTx.
type ReadTx struct {
	g   *provenance.Graph
	idx *indexSet
	seq uint64
}

// Graph returns the view's provenance graph.
func (tx ReadTx) Graph() *provenance.Graph { return tx.g }

// Seq returns the commit sequence number the view corresponds to.
func (tx ReadTx) Seq() uint64 { return tx.seq }

// LookupByAttr is Store.LookupByAttr against this view: index and graph
// are guaranteed to be the same version, so an index hit can be resolved
// against the graph without a torn read. The scan fallback (field not
// declared indexed in the model) enumerates candidates through the
// graph's type posting lists instead of filtering every node.
func (tx ReadTx) LookupByAttr(typ, field string, v provenance.Value) ([]string, bool) {
	if ids, ok := tx.idx.lookup(typ, field, v); ok {
		return ids, true
	}
	var res []string
	for _, n := range tx.g.NodesByType("", typ) {
		if n.Attr(field).Equal(v) {
			res = append(res, n.ID)
		}
	}
	return res, false
}

// ReadTx runs fn with a consistent view of graph and indexes: one
// atomic pointer load, then fn runs lock-free against the immutable
// snapshot.
func (s *Store) ReadTx(fn func(tx ReadTx) error) error {
	return s.readTx(fn)
}

func (s *Store) readTx(fn func(tx ReadTx) error) error {
	snap := s.loadSnap()
	return fn(ReadTx{g: snap.graph, idx: snap.idx, seq: snap.seq})
}

// View runs fn with read access to the provenance graph. The graph fn
// receives is an immutable published snapshot: fn (and anything it hands
// the graph to) may retain it indefinitely and read it concurrently with
// writers — it simply stops receiving updates. Snapshot isolation is
// prefix-consistent: a snapshot always sits on a commit boundary (batch
// boundary under group commit), never inside a torn batch.
func (s *Store) View(fn func(g *provenance.Graph) error) error {
	return fn(s.loadSnap().graph)
}

// TraceVersion returns the monotonic version of one trace: the number of
// mutating commits (node puts, updates, edge puts) that touched it. Zero
// means the trace has never been written. Versions strictly increase with
// every commit to the trace, so equal versions imply an unchanged trace.
func (s *Store) TraceVersion(appID string) uint64 {
	ver := s.loadSnap().graph.TraceVersion(appID)
	if ver == 0 {
		// Not resident: a sealed copy still answers with the version the
		// trace was demoted at, so version-keyed caches stay valid across
		// demotion.
		if _, tr, ok := s.coldLookup(appID, 0); ok {
			return tr.Ver
		}
	}
	return ver
}

// ViewTrace runs fn with read access to the graph together with the
// version of one trace, observed atomically in the same snapshot. Use it
// when a computation over the trace must be tagged with the exact version
// it saw (the continuous-checking result cache). The retention semantics
// match View: the snapshot graph may be retained past fn's return.
// When the trace is not resident in the hot tier, the cold tier serves
// it: fn receives a read-only graph materialized from the trace's sealed
// segment, carrying the version the trace was demoted at.
func (s *Store) ViewTrace(appID string, fn func(g *provenance.Graph, version uint64) error) error {
	snap := s.loadSnap()
	if ver := snap.graph.TraceVersion(appID); ver != 0 {
		return fn(snap.graph, ver)
	}
	g, ver, err := s.coldTrace(appID)
	if err != nil {
		return err
	}
	if g != nil {
		return fn(g, ver)
	}
	return fn(snap.graph, 0)
}

// coldLookup finds the newest sealed copy of a trace — with maxSeq
// non-zero, the newest one whose last mutation is at or before it. It is
// the one gate between the store and the cold tier: no tier, or a tier
// holding no segments, answers "absent" without paying a lookup.
func (s *Store) coldLookup(appID string, maxSeq uint64) (*segment, segTrace, bool) {
	if s.tier == nil || !s.tier.hasSegments() {
		return nil, segTrace{}, false
	}
	return s.tier.lookupTrace(appID, maxSeq)
}

// coldTrace materializes the newest sealed copy of a trace as a frozen
// read-only graph; a nil graph means no segment holds the trace. A copy
// that exists but cannot be read is an error, never "absent": a control
// evaluated over a trace that merely failed to load would give a verdict
// about records nobody read.
func (s *Store) coldTrace(appID string) (*provenance.Graph, uint64, error) {
	seg, tr, ok := s.coldLookup(appID, 0)
	if !ok {
		return nil, 0, nil
	}
	g, err := s.tier.materialize(seg, tr)
	if err != nil {
		return nil, 0, err
	}
	return g, tr.Ver, nil
}

// coldOwners materializes the sealed trace that owns a record ID, or nil.
// The owner comes from the router fast path when the ID was demoted this
// session and a read raced the eviction, otherwise from the segments'
// row-ID bloom filters — the only route that works after a restart, when
// the rewritten log never told the router about sealed traces. It keeps
// the last trace it built: an import walking one trace's records pays one
// materialization for the trace, not one per record.
type coldOwners struct {
	s   *Store
	app string
	g   *provenance.Graph
}

func (c *coldOwners) graphOf(id string) *provenance.Graph {
	app, ok := c.s.graph.TraceHint(id)
	if !ok && c.s.tier != nil {
		app, ok = c.s.tier.ownerOf(id)
	}
	if !ok {
		return nil
	}
	if app != c.app {
		// Node, Edge and Row have no error result: a failed read answers
		// "absent" and shows in TieringStats.ReadErrors.
		c.app = app
		c.g, _, _ = c.s.coldTrace(app)
	}
	return c.g
}

// TraceAsOf returns a read-only graph of one trace as it stood at commit
// sequence seq, together with the trace version of that state. The live
// state serves when its last mutation is at or before seq — records,
// version and last-touch all come from one snapshot, so a concurrent
// commit can never make a servable state look too new. Otherwise the
// newest sealed copy old enough qualifies — sealed segments are the
// durable history that makes the MVCC snapshots auditable after the
// fact. ErrNoHistory means no state that old survives (the trace never
// existed then, or its history was never sealed). Sequence numbers are
// the store session's commit sequence, as exposed by Stats().Seq and the
// change feed.
func (s *Store) TraceAsOf(appID string, seq uint64) (*provenance.Graph, uint64, error) {
	g := s.loadSnap().graph
	if ver := g.TraceVersion(appID); ver != 0 && g.TraceLastTouch(appID) <= seq {
		return g.Trace(appID), ver, nil
	}
	seg, tr, ok := s.coldLookup(appID, seq)
	if !ok {
		return nil, 0, ErrNoHistory
	}
	cg, err := s.tier.materialize(seg, tr)
	if err != nil {
		return nil, 0, err
	}
	return cg, tr.Ver, nil
}

// Node returns the node record, or nil when absent. The record is shared
// with the store's immutable state and must be treated as read-only;
// callers that want to mutate (e.g. to build an enrichment update) must
// Clone first.
func (s *Store) Node(id string) *provenance.Node { return s.node(id, &coldOwners{s: s}) }

// node is Node resolving sealed owners through cold.
func (s *Store) node(id string, cold *coldOwners) *provenance.Node {
	if n := s.loadSnap().graph.Node(id); n != nil {
		return n
	}
	if g := cold.graphOf(id); g != nil {
		return g.Node(id)
	}
	return nil
}

// Edge returns the edge record, or nil when absent. Read-only, like Node.
func (s *Store) Edge(id string) *provenance.Edge { return s.edge(id, &coldOwners{s: s}) }

// edge is Edge resolving sealed owners through cold.
func (s *Store) edge(id string, cold *coldOwners) *provenance.Edge {
	if e := s.loadSnap().graph.Edge(id); e != nil {
		return e
	}
	if g := cold.graphOf(id); g != nil {
		return g.Edge(id)
	}
	return nil
}

// Row returns the Table-1 row of a record ID: the canonical encoding of
// the record, resident trace first and the owning trace's sealed copy
// second.
func (s *Store) Row(id string) (Row, bool) {
	if r, ok := graphRow(s.loadSnap().graph, id); ok {
		return r, true
	}
	if g := (&coldOwners{s: s}).graphOf(id); g != nil {
		return graphRow(g, id)
	}
	return Row{}, false
}

// RowsForApp returns every row of one trace, sorted by record ID. This is
// the query the paper's Table 1 illustrates: all provenance entities of an
// execution trace. Rows are encoded from the records: a resident trace's
// from the snapshot graph, a demoted one's as its sealed segment decodes
// them. There is no error result: a failed segment read answers "absent"
// and shows in TieringStats.ReadErrors.
func (s *Store) RowsForApp(appID string) []Row {
	res := renderTrace(traceRecords(s.loadSnap().graph, appID))
	if len(res) == 0 {
		if seg, tr, ok := s.coldLookup(appID, 0); ok {
			if st, err := s.tier.sealed(seg, tr); err == nil {
				res = renderTrace(st.nodes, st.edges)
			}
		}
	}
	if len(res) == 0 {
		return nil
	}
	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	return res
}

// LookupByAttr returns the IDs of nodes of the given type whose field
// equals the value. It uses the secondary index when one is declared,
// otherwise it scans. The second result reports whether an index was used
// (surfaced by EXPLAIN in the query engine). The returned slice is
// immutable and must not be modified.
func (s *Store) LookupByAttr(typ, field string, v provenance.Value) ([]string, bool) {
	var (
		res  []string
		used bool
	)
	s.readTx(func(tx ReadTx) error {
		res, used = tx.LookupByAttr(typ, field, v)
		return nil
	})
	return res, used
}

// AppIDs lists the distinct traces in the store: resident traces plus
// every trace sealed in the cold tier, deduplicated and sorted.
func (s *Store) AppIDs() []string {
	var ids []string
	s.readTx(func(tx ReadTx) error {
		ids = tx.g.AppIDs()
		return nil
	})
	if s.tier == nil {
		return ids
	}
	sealed := s.tier.apps()
	if len(sealed) == 0 {
		return ids
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range sealed {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
