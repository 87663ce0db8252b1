package store

import (
	"errors"
	"fmt"

	"repro/internal/provenance"
)

// errDemoteStale is a demotion marker's outcome when the trace was written
// after it was sealed: the marker is a no-op, live and on replay alike.
var errDemoteStale = errors.New("store: trace written since it was sealed; it stays hot")

// Batch is one commit unit of mixed records: new nodes, relation edges and
// attribute updates of stored nodes — an event batch's nodes together with
// the correlation records they cause, so a batch has one life: one log
// frame, one flush, one fsync, one snapshot, one feed burst.
type Batch struct {
	Nodes   []*provenance.Node
	Edges   []*provenance.Edge
	Updates []*provenance.Node
}

// BatchErrors holds one error slot per record of a Batch; nil committed.
type BatchErrors struct {
	Nodes, Edges, Updates []error
}

// Commit validates, persists and indexes a batch as ONE commit unit, in
// the order nodes, edges, updates — an edge may join nodes of its own
// batch, an update may enrich one. It is the store's only record write
// path. The batch is not transactional: each record stands or falls alone.
// Records are copied, so the caller keeps ownership of what it passed.
func (s *Store) Commit(b Batch) BatchErrors {
	nn, ne := len(b.Nodes), len(b.Edges)
	errs := make([]error, nn+ne+len(b.Updates))
	entries := make([]entry, len(errs)) // entries[i] is valid where errs[i] is nil
	for i, n := range b.Nodes {
		entries[i], errs[i] = s.nodeEntry(opPutNode, n)
	}
	if ne > 0 {
		find := s.endpointFinder(b.Nodes)
		for i, e := range b.Edges {
			entries[nn+i], errs[nn+i] = s.edgeEntry(e, find)
		}
	}
	for i, n := range b.Updates {
		entries[nn+ne+i], errs[nn+ne+i] = s.nodeEntry(opUpdateNode, n)
	}
	valid := entries[:0]
	for i, e := range entries {
		if errs[i] == nil {
			valid = append(valid, e)
		}
	}
	if len(valid) > 0 {
		applied := s.commitAll(valid)
		for i := range errs {
			if errs[i] == nil {
				errs[i], applied = applied[0], applied[1:]
			}
		}
	}
	return BatchErrors{Nodes: errs[:nn], Edges: errs[nn : nn+ne], Updates: errs[nn+ne:]}
}

// PutNode commits one new node record.
func (s *Store) PutNode(n *provenance.Node) error {
	return s.Commit(Batch{Nodes: []*provenance.Node{n}}).Nodes[0]
}

// UpdateNode replaces an existing node's attributes (enrichment). Identity
// fields (class, type, app ID) must not change.
func (s *Store) UpdateNode(n *provenance.Node) error {
	return s.Commit(Batch{Updates: []*provenance.Node{n}}).Updates[0]
}

// PutEdge commits one new relation record.
func (s *Store) PutEdge(e *provenance.Edge) error {
	return s.Commit(Batch{Edges: []*provenance.Edge{e}}).Edges[0]
}

// nodeEntry validates a node and builds its log entry, which carries the
// canonical copy of the record (canonEntry) — what the log stores, apply
// indexes and every read path renders.
func (s *Store) nodeEntry(op opcode, n *provenance.Node) (entry, error) {
	err := n.Validate()
	if err == nil && !s.opts.SkipValidation {
		err = s.opts.Model.CheckNode(n)
	}
	if err != nil {
		return entry{}, err
	}
	return canonEntry(entry{op: op, app: n.AppID, node: n})
}

// edgeEntry validates an edge and builds its log entry. find resolves the
// endpoints for the model's type check; one it cannot find skips the
// check, and AddEdge rejects the edge authoritatively at apply time.
func (s *Store) edgeEntry(e *provenance.Edge, find func(app, id string) *provenance.Node) (entry, error) {
	if err := e.Validate(); err != nil {
		return entry{}, err
	}
	if !s.opts.SkipValidation {
		if err := s.opts.Model.CheckEdge(e, find(e.AppID, e.Source), find(e.AppID, e.Target)); err != nil {
			return entry{}, err
		}
	}
	return canonEntry(entry{op: opPutEdge, app: e.AppID, edge: e})
}

// endpointFinder returns the lookup one Commit's edges resolve endpoints
// with: the batch's own nodes, then the working graph under the state lock
// (not a snapshot: the write path must not trigger the read barrier, and
// the working graph also sees commits applied but not yet published), then
// — only when the edge's trace is not resident — the trace's sealed copy,
// which the commit is about to promote: found by trace, once per Commit,
// not by probing every segment for the record ID.
func (s *Store) endpointFinder(mates []*provenance.Node) func(app, id string) *provenance.Node {
	byID := make(map[string]*provenance.Node, len(mates))
	for _, n := range mates {
		if n != nil {
			byID[n.ID] = n
		}
	}
	sealed := map[string]*provenance.Graph{} // trace -> its sealed copy (nil: none)
	return func(app, id string) *provenance.Node {
		if n := byID[id]; n != nil {
			return n
		}
		s.mu.RLock()
		n, resident := s.graph.Node(id), s.graph.TraceVersion(app) != 0
		s.mu.RUnlock()
		if n != nil || resident {
			return n
		}
		g, seen := sealed[app]
		if !seen {
			// A sealed copy that fails to read leaves the endpoint unknown
			// here; the promotion this commit needs then fails with it.
			g, _, _ = s.coldTrace(app)
			sealed[app] = g
		}
		if g == nil {
			return nil
		}
		return g.Node(id)
	}
}

// commitAll makes a run of entries durable and applies them as one commit
// unit. Durable stores enqueue the run on the group committer as a single
// request (one wait, one shared fsync). An in-memory store has no log and
// no cold tier, so its path is the committer's epilogue alone. Per-entry
// errors align with entries.
func (s *Store) commitAll(entries []entry) []error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return errsAll(len(entries), errClosed)
	}
	if s.comm != nil {
		return s.comm.enqueueAll(entries)
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.applyAndPublishLocked([][]entry{entries}, false)[0]
}

// applyAndPublishLocked is the epilogue every commit shares once its
// frames are durable (or there is no log): apply the runs in log order,
// publish ONE snapshot covering all of them, then emit the change-feed
// events. The caller holds logMu across the whole of it and releases its
// waiters afterwards, so the log's entry order, the in-memory state's
// order, the snapshot sequence and the change feed's order all agree
// (lock order is always logMu -> mu). Publishing before the waiters are
// released means an acknowledged write is always visible in the snapshot
// (read-your-writes); emitting after the publish means a subscriber
// reacting to an event always finds a snapshot at least as new as the
// event. Apply errors are per entry and align with runs. A rejected apply
// leaves the state untouched, so with nothing accepted the published
// snapshot is still current — unless stateChanged says the working state
// already moved before the runs (a promotion restored a trace). Trace
// entries change the state without a record, so only a drop tombstone
// reaches subscribers.
func (s *Store) applyAndPublishLocked(runs [][]entry, stateChanged bool) [][]error {
	results := make([][]error, len(runs))
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	evs := make([]Event, 0, total)
	for i, run := range runs {
		results[i] = make([]error, len(run))
		for j, e := range run {
			ev, err := s.apply(e)
			results[i][j] = err
			stateChanged = stateChanged || err == nil
			if err == nil && ev.Kind != 0 {
				evs = append(evs, ev)
			}
		}
	}
	if stateChanged {
		s.publishLocked()
	}
	for _, ev := range evs {
		s.publish(ev)
	}
	return results
}

// apply mutates the in-memory working state and returns the change-feed
// event describing the mutation. It does NOT publish a snapshot or emit
// the event — the commit paths do both after the whole batch applied, so
// readers and subscribers only ever observe batch boundaries.
func (s *Store) apply(e entry) (Event, error) {
	if e.op == opTraceVer {
		// Version pin written behind a compaction's rewritten records:
		// their replay restarted the trace's version counter from the
		// record count; pin it back so versions survive restarts. Never
		// reaches the change feed.
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.graph.SetTraceVersion(e.app, e.gen); err != nil {
			return Event{}, err
		}
		return Event{}, nil
	}
	if e.op == opPromote {
		// Promotion marker, read off disk: restore the trace from the sealed
		// copy it names, as the live commit did, before its deltas replay.
		// An error here is a base that cannot be read — replayAll fails Open
		// on it unless a later tombstone drops the trace. A marker for a
		// resident trace changes nothing: a torn tail can keep a marker
		// whose commit frame it cut, and the retry writes another. Either
		// way the marker is in the log, so its segment is pinned. Only a
		// durable store, which always has a cold tier, logs a marker.
		s.tier.pin(e.seg, e.app, s.compactGen)
		s.mu.RLock()
		resident := s.graph.TraceVersion(e.app) != 0
		s.mu.RUnlock()
		if resident {
			return Event{}, nil
		}
		cold, err := s.tier.sealedAt(e.app, e.seg, e.gen)
		if err != nil {
			return Event{}, fmt.Errorf("store: restoring promoted trace %s: %w", e.app, err)
		}
		return Event{}, s.restorePromoted(e, cold)
	}
	if e.op == opDemote {
		// Demotion marker: the trace was sealed at version gen into segment
		// seg, and leaves the hot tier — if it is still resident at exactly
		// that version (a write that landed between the seal and the marker
		// keeps it hot: errDemoteStale) and the segment holds that copy. A
		// marker naming a missing segment or another version fails, so replay
		// skips it and the trace stays resident from its logged records.
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.graph.TraceVersion(e.app) != e.gen {
			return Event{}, errDemoteStale
		}
		if _, _, err := s.tier.copyAt(e.app, e.seg, e.gen, "demoted into"); err != nil {
			return Event{}, err
		}
		s.evictTraceLocked(e.app)
		return Event{}, nil
	}
	if e.op == opTraceDrop {
		// Trace tombstone (shard handoff): evict the trace from the hot
		// tier and tell the tier which sealed copies are now dead.
		// Dropping an absent trace is a no-op — replay may see the
		// tombstone after a compaction already rebuilt the dropped state.
		// The feed hears of the drop, so its sequence reaches subscribers.
		s.mu.Lock()
		defer s.mu.Unlock()
		s.evictTraceLocked(e.app)
		s.seq++
		if s.tier != nil {
			s.tier.markDropped(e.app, e.gen)
		}
		return Event{Kind: EventTraceDrop, Seq: s.seq, App: e.app}, nil
	}
	n, ed := e.node, e.edge
	s.mu.Lock()
	defer s.mu.Unlock()
	var ev Event
	switch {
	case e.op == opPutNode && n != nil:
		if err := s.graph.AddNode(n); err != nil {
			return Event{}, err
		}
		s.idx.add(n)
		ev.Kind, ev.Node = EventNode, n
	case e.op == opUpdateNode && n != nil:
		old := s.graph.Node(n.ID)
		if err := s.graph.UpdateNode(n); err != nil {
			return Event{}, err
		}
		s.idx.remove(old)
		s.idx.add(n)
		ev.Kind, ev.Node, ev.Prev = EventNodeUpdate, n, old
	case e.op == opPutEdge && ed != nil:
		if err := s.graph.AddEdge(ed); err != nil {
			return Event{}, err
		}
		ev.Kind, ev.Edge = EventEdge, ed
	default:
		return Event{}, fmt.Errorf("store: log entry for trace %s: opcode %d does not fit its record", e.app, e.op)
	}
	s.seq++
	ev.Seq = s.seq
	// Every mutating commit bumps the touched trace's monotonic version
	// (maintained inside the graph's trace shard): the continuous-checking
	// cache keys results by it, so "unchanged trace" is decidable without
	// comparing graphs. Replay bumps too, so a recovered store reports the
	// same versions the writer saw. The event carries the post-commit
	// version, and the shard is stamped with this commit's sequence so the
	// last-touch is published, evicted and restored with the version.
	ev.TraceVersion = s.graph.TraceVersion(e.app)
	s.graph.SetTraceLastTouch(e.app, s.seq)
	return ev, nil
}

// pendingPromo is a staged trace promotion: its marker frame rides ahead of
// the request's commit frame, but the in-memory restoration waits until the
// batch it shares a flush/fsync with is durable — otherwise a failed
// flush would leave the trace resident while the log lacks the marker,
// and the deltas of later commits would replay onto a trace without a base.
type pendingPromo struct {
	marker entry
	cold   *provenance.Graph // the sealed copy the marker names
}

// stagePromotionLocked checks whether app is sealed-but-not-resident and,
// if so, returns the staged promotion: ONE opPromote marker — trace, sealed
// version, segment — for the committer to frame ahead of the delta, and the
// sealed copy for applyPromotionsLocked. The trace's rows are not copied:
// they are durable and CRC-checked where they are, and the segment stays
// the trace's base until a compaction rewrite (see gc.go for what that
// means for reclaiming it). staged dedups within one batch. Caller holds
// logMu.
func (s *Store) stagePromotionLocked(app string, staged map[string]bool) (*pendingPromo, error) {
	if app == "" || staged[app] {
		return nil, nil
	}
	s.mu.RLock()
	resident := s.graph.TraceVersion(app) != 0
	s.mu.RUnlock()
	if resident {
		return nil, nil
	}
	seg, tr, ok := s.coldLookup(app, 0)
	if !ok {
		return nil, nil // genuinely new trace
	}
	// Materialize before the marker is framed: a sealed copy that cannot
	// be read must fail this commit, not every later Open. A batch that
	// derived against the sealed trace (ViewTrace) built a copy of its
	// own, and one whose edges reach into it built another resolving
	// their endpoints (endpointFinder), so a promotion decodes the one
	// cached block up to three times: tens of µs each against an ack that
	// waits milliseconds for its fsync.
	cold, err := s.tier.materialize(seg, tr)
	if err != nil {
		return nil, fmt.Errorf("store: promoting trace %s: %v", app, err)
	}
	staged[app] = true
	// Pinned from the moment the marker may reach the file, durable or not:
	// a pin only keeps a segment longer.
	s.tier.pin(seg.id, app, s.compactGen)
	return &pendingPromo{marker: entry{op: opPromote, app: app, gen: tr.Ver, seg: seg.id}, cold: cold}, nil
}

// applyPromotionsLocked restores staged promotions into the hot tier
// after their marker frames are durable. Runs before the batch's delta
// entries apply, so an edge landing on a freshly promoted trace finds its
// endpoints resident. Caller holds logMu.
func (s *Store) applyPromotionsLocked(promos []*pendingPromo) error {
	for _, p := range promos {
		if err := s.restorePromoted(p.marker, p.cold); err != nil {
			return err
		}
		s.tier.promoted.Add(1)
	}
	return nil
}

// restorePromoted makes the sealed copy a promotion marker names resident
// again — records, version, attribute index; the marker's pin notes the
// segment as the trace's durable base. The live commit and replay both end
// here.
func (s *Store) restorePromoted(marker entry, cold *provenance.Graph) error {
	app := marker.app
	nodes, edges := traceRecords(cold, app)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.graph.RestoreTrace(app, nodes, edges, marker.gen); err != nil {
		return fmt.Errorf("store: promoting trace %s: %v", app, err)
	}
	for _, n := range nodes {
		s.idx.add(n)
	}
	s.graph.SetTraceLastTouch(app, s.seq)
	return nil
}

// evictTraceLocked removes one resident trace from the hot tier — the one
// path demotion, handoff tombstones and post-replay reconciliation share.
// The trace's nodes leave the cross-trace attribute index, its shard
// (records, version, last-touch) leaves the working graph, and its record
// IDs leave the router: whichever sealed copy or new owner serves the trace
// now answers ID-based reads itself, and entries kept for every trace ever
// evicted would grow resident memory with total history again. Published
// snapshots are untouched. Caller holds mu (or runs single-threaded in
// Open); evicting an absent trace is a no-op.
func (s *Store) evictTraceLocked(app string) {
	nodes, edges := traceRecords(s.graph, app)
	ids := make([]string, 0, len(nodes)+len(edges))
	for _, n := range nodes {
		s.idx.remove(n)
		ids = append(ids, n.ID)
	}
	for _, e := range edges {
		ids = append(ids, e.ID)
	}
	s.graph.DropTrace(app)
	s.graph.EvictRouting(ids)
}

// publishLocked makes the batch that just applied visible to readers.
// The caller holds logMu — the only context that mutates state — so the
// published snapshot is always a clean commit (batch) boundary.
//
// Publication is deferred behind a read barrier: if no reader consumed
// the currently published snapshot, the commit only marks the state
// dirty and the first subsequent read publishes (forcePublishLocked via
// loadSnap). A long write-only burst therefore pays one copy-on-write
// epoch in total instead of one per commit — without this, N sequential
// commits to one trace clone the trace's shard N times (quadratic).
// Read-your-writes still holds: a write is acknowledged only after the
// dirty mark (or publish), so any later read observes it.
func (s *Store) publishLocked() {
	if s.snapCount.readerLoads.Load() == s.loadsAtPublish {
		s.snapDirty.Store(true)
		return
	}
	s.forcePublishLocked()
}

// forcePublishLocked unconditionally publishes a fresh immutable
// snapshot of the working state. Caller holds logMu.
func (s *Store) forcePublishLocked() {
	s.snap.Store(&snapshot{
		graph: s.graph.Snapshot(),
		idx:   s.idx.snapshot(),
		seq:   s.seq,
	})
	s.snapDirty.Store(false)
	s.loadsAtPublish = s.snapCount.readerLoads.Load()
	s.snapCount.publishes.Add(1)
}
