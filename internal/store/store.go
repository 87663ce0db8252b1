package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
)

// Options configures a Store.
type Options struct {
	// Dir is the directory holding the disk log. Empty means a purely
	// in-memory store (used by tests and short-lived analyses).
	Dir string
	// Model is the provenance data model records are validated against.
	// Required unless SkipValidation is set.
	Model *provenance.Model
	// Sync demands fsync durability: an append only returns once its log
	// frame is fsynced. Appends are group-committed — concurrent writers
	// share one write+fsync per batch — so sync throughput scales with
	// writer concurrency instead of collapsing to one fsync round trip
	// per record. Off by default: the recorder clients of the paper
	// tolerate losing the in-flight events on a crash.
	Sync bool
	// FlushWindow bounds how long the group committer waits for more
	// concurrent appends to join a batch after the first arrives. Zero
	// batches opportunistically: whatever queued during the previous
	// flush+fsync forms the next batch, adding no artificial latency.
	FlushWindow time.Duration
	// MaxCommitBatch caps the entries per group-commit batch (0 = 512).
	MaxCommitBatch int
	// FS is the filesystem the durability layer runs on; nil means the
	// process filesystem. Fault-injection tests substitute
	// internal/store/faultfs to exercise torn writes, fsync failures and
	// crash recovery.
	FS FS
	// SkipValidation disables model checking of incoming records.
	SkipValidation bool
	// DisableTiering turns the tiered-storage layer off: no segment scan
	// at Open, Compact never demotes, and reads never consult the cold
	// tier — the store keeps every trace in RAM. Kept as a retention
	// policy (all-resident), not an ablation: a deployment whose whole
	// history fits in memory pays no cold-read cost (experiment E15 has
	// the trade). Opening a directory that already holds sealed segments
	// with tiering disabled leaves the sealed traces unreadable, so set
	// it on fresh stores, not on live data.
	DisableTiering bool
	// SegmentColdAfter is the demotion policy: during Compact, a trace
	// whose last mutation is at least this many commits behind the
	// current sequence is sealed into an on-disk segment and dropped
	// from RAM. Zero disables automatic demotion; DemoteTraces still
	// seals explicitly.
	SegmentColdAfter uint64
	// SegmentCacheBytes caps the sealed-segment block cache (0 = 32 MiB).
	SegmentCacheBytes int64
	// SegmentBlockBytes is the target data-block size inside sealed
	// segments (0 = 64 KiB).
	SegmentBlockBytes int
	// DisableSegmentGC keeps every sealed segment on disk even when all
	// of its trace copies were promoted back, superseded by a newer
	// segment, or dropped by shard handoff. GC reclaims the space but
	// also deletes the older as-of versions those copies served. Kept as
	// a retention policy: set it to retain full point-in-time audit
	// depth.
	DisableSegmentGC bool
}

var errClosed = errors.New("store: closed")

// ErrNoHistory is returned by TraceAsOf when neither the live state nor
// any sealed segment holds a version of the trace valid at the requested
// sequence.
var ErrNoHistory = errors.New("store: no trace state at or before the requested sequence")

// durabilityCounters tracks the write path's observable durability work.
type durabilityCounters struct {
	Fsyncs             atomic.Uint64
	SyncFailures       atomic.Uint64
	CommitBatches      atomic.Uint64
	GroupedCommits     atomic.Uint64
	MaxCommitBatch     atomic.Uint64
	Compactions        atomic.Uint64
	CompactionFailures atomic.Uint64
}

// snapCounters tracks the MVCC read path's observable work.
type snapCounters struct {
	publishes   atomic.Uint64
	readerLoads atomic.Uint64
}

// DurabilityStats is a snapshot of the durability layer's counters,
// served under "durability" in the HTTP /stats endpoint.
type DurabilityStats struct {
	// GroupCommit reports whether the batched commit pipeline is active.
	GroupCommit bool
	// Fsyncs counts log-file fsyncs issued by the commit path.
	Fsyncs uint64
	// SyncFailures counts fsyncs that returned an error.
	SyncFailures uint64
	// CommitBatches counts group-commit batches made durable.
	CommitBatches uint64
	// GroupedCommits counts entries committed through batches; divided by
	// CommitBatches it yields the achieved batching factor.
	GroupedCommits uint64
	// MaxCommitBatch is the largest batch committed so far.
	MaxCommitBatch uint64
	// Compactions counts completed log compactions.
	Compactions uint64
	// CompactionFailures counts compactions aborted by an error. An
	// aborted compaction loses nothing: appends continue on the side log
	// and recovery replays main + side.
	CompactionFailures uint64
	// ReplayDroppedBytes is the torn-tail byte count truncated during the
	// last Open.
	ReplayDroppedBytes int64
	// ReplaySkipped counts log entries skipped during the last Open
	// because they failed to apply (the original writer rejected them
	// too).
	ReplaySkipped int
}

// SnapshotStats is a snapshot of the MVCC read path's counters, served
// under "snapshots" in the HTTP /stats endpoint.
type SnapshotStats struct {
	// Publishes counts snapshots published — at most one per commit on
	// the in-memory path, one per batch on the group-commit path.
	Publishes uint64
	// ReaderLoads counts lock-free snapshot pointer loads by readers.
	ReaderLoads uint64
	// CopiedShards / CopiedNodes / CopiedEdges count the copy-on-write
	// work writers did: trace shards (and the records inside them)
	// cloned because a published snapshot froze the previous version.
	// CopiedNodes/Publishes approximates the per-publish copy cost.
	CopiedShards uint64
	CopiedNodes  uint64
	CopiedEdges  uint64
}

// Store is the provenance store: the append-only row log, the in-memory
// provenance graph, secondary indexes, and the change feed.
//
// Reads are MVCC (design decision D7): every commit publishes an
// immutable snapshot of the full state through an atomic pointer, and
// readers run against the snapshot with no locking. The mu RWMutex
// serializes writers' mutations of the working state; the few readers of
// the working state itself (write-path pre-validation, lastTouch) take it
// shared.
type Store struct {
	opts Options
	fs   FS

	mu     sync.RWMutex
	graph  *provenance.Graph // working graph; the pointer itself is stable
	rows   *rowTable         // working row table; pointer stable
	idx    *indexSet         // working indexes; pointer stable
	seq    uint64
	closed bool

	// snap is the published snapshot readers load. Written only under
	// logMu (the commit boundary), so a loaded snapshot is always a
	// prefix-consistent batch boundary — never a torn batch. snapDirty
	// flags commits whose publication was deferred to the next read;
	// loadsAtPublish (guarded by logMu) is the reader-load count at the
	// last publish, used to detect write-only bursts.
	snap           atomic.Pointer[snapshot]
	snapDirty      atomic.Bool
	loadsAtPublish uint64
	snapCount      snapCounters

	logMu      sync.Mutex // serializes log writes and the compaction swap
	log        *logWriter
	compactGen uint64 // highest side-log generation created or folded

	compactMu sync.Mutex // one Compact at a time
	comm      *committer // group-commit pipeline (nil: in-memory store)

	// tier is the sealed-segment cold tier (nil: in-memory store or the
	// DisableTiering ablation). lastTouch records the sequence of each
	// resident trace's last mutation — the demotion policy's coldness
	// signal and the validity bound for as-of reads; guarded by mu.
	tier      *tierManager
	lastTouch map[string]uint64

	stats         durabilityCounters
	replayDropped int64
	replaySkipped int

	subMu   sync.Mutex
	subs    map[int]*Subscription
	nextSub int
}

// Open opens (or creates) a store. When opts.Dir is non-empty the existing
// log — the main file plus any side logs a crashed or aborted compaction
// left behind — is replayed; torn tails are truncated silently, matching
// the at-most-one-batch loss the log format guarantees.
func Open(opts Options) (*Store, error) {
	if opts.Model == nil && !opts.SkipValidation {
		return nil, fmt.Errorf("store: Options.Model is required")
	}
	s := &Store{
		opts:      opts,
		fs:        opts.FS,
		graph:     provenance.NewGraph(),
		rows:      newRowTable(),
		idx:       newIndexSet(),
		subs:      make(map[int]*Subscription),
		lastTouch: make(map[string]uint64),
	}
	if s.fs == nil {
		s.fs = OSFS{}
	}
	if opts.Model != nil {
		for _, tf := range opts.Model.IndexedFields() {
			s.idx.declare(tf[0], tf[1])
		}
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
		// A leftover snapshot scratch file is garbage from a compaction
		// that crashed before its atomic rename.
		if err := s.fs.Remove(tmpLogPath(opts.Dir)); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %v", err)
		}
		// Load the cold tier before replay: sealed traces are absent from
		// the log by design, so reads that miss the replayed hot tier fall
		// through to the segments. Half-sealed files (crash mid-seal) are
		// removed here; their rows are still in the log.
		if !opts.DisableTiering {
			t, err := newTierManager(s.fs, opts.Dir, opts.SegmentCacheBytes)
			if err != nil {
				return nil, err
			}
			s.tier = t
		}
		active, err := s.replayAll()
		if err != nil {
			return nil, err
		}
		s.reconcileTiers()
		w, err := createOrOpenLog(s.fs, active, opts.Sync)
		if err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
		s.log = w
		s.comm = newCommitter(s, opts.FlushWindow, opts.MaxCommitBatch)
	}
	// Publish the initial snapshot (replayed state, or empty) so readers
	// never observe a nil pointer.
	s.forcePublishLocked()
	return s, nil
}

// replayAll replays the main log and every live side log in generation
// order, removes stale side logs (already folded into the main log), and
// returns the path appends must continue on: the newest live side log if
// any survive, else the main log.
func (s *Store) replayAll() (activePath string, err error) {
	dir := s.opts.Dir
	apply := func(e entry) error {
		_, err := s.apply(e)
		return err
	}
	rr, err := replayLog(s.fs, logPath(dir), apply)
	if err != nil {
		return "", err
	}
	s.replayDropped = rr.dropped
	s.replaySkipped = rr.skipped
	s.compactGen = rr.folded

	gens, err := sideLogGens(s.fs, dir)
	if err != nil {
		return "", fmt.Errorf("store: listing side logs: %v", err)
	}
	activePath = logPath(dir)
	for _, gen := range gens {
		side := sideLogPath(dir, gen)
		if gen <= rr.folded {
			// Already folded into the main log by a compaction whose
			// rename committed but whose cleanup did not finish.
			if err := s.fs.Remove(side); err != nil && !os.IsNotExist(err) {
				return "", fmt.Errorf("store: removing stale side log: %v", err)
			}
			continue
		}
		srr, err := replayLog(s.fs, side, apply)
		if err != nil {
			return "", err
		}
		s.replayDropped += srr.dropped
		s.replaySkipped += srr.skipped
		s.compactGen = gen
		activePath = side
	}
	return activePath, nil
}

// reconcileTiers resolves hot/cold conflicts after replay, before the
// store goes live (single-threaded, so no locks). A resident trace whose
// version is BELOW its newest sealed copy's is the torn prefix of an
// interrupted promotion — the crash hit while the trace's base rows were
// re-entering the log — and the complete sealed copy wins: the partial
// hot shard is dropped so reads fall through to the segment. Completed
// promotions and compaction rewrites always replay with a version pin,
// so a legitimately hot trace compares >= its sealed copy.
func (s *Store) reconcileTiers() {
	if s.tier == nil || !s.tier.hasSegments() {
		return
	}
	dropped := false
	for _, app := range s.graph.AppIDs() {
		hot := s.graph.TraceVersion(app)
		_, tr, ok := s.tier.lookupTrace(app, 0)
		if !ok || tr.Ver <= hot {
			continue
		}
		var ids []string
		for _, n := range s.graph.Nodes(provenance.NodeFilter{AppID: app}) {
			s.idx.remove(n)
			ids = append(ids, n.ID)
		}
		for _, e := range s.graph.AllEdges(provenance.EdgeFilter{AppID: app}) {
			ids = append(ids, e.ID)
		}
		s.graph.DropTrace(app)
		s.graph.EvictRouting(ids)
		s.rows.dropApp(app)
		delete(s.lastTouch, app)
		dropped = true
	}
	if dropped {
		s.graph.Vacuum()
		s.rows.vacuum()
		s.idx.vacuum()
	}
	// Replay may have rebuilt handoff tombstones (opTraceDrop) whose
	// sealed copies a crash left unscrubbed; finish the scrub now. Open
	// runs single-threaded, so no compaction races the rewrite. On error
	// the tombstones stay and keep guarding lookups.
	_ = s.scrubDroppedLocked()
}

// Close flushes the log and stops every subscription.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.subMu.Lock()
	for _, sub := range s.subs {
		sub.stop()
	}
	s.subs = map[int]*Subscription{}
	s.subMu.Unlock()

	// Drain in-flight group commits before the log goes away.
	if s.comm != nil {
		s.comm.stop()
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log != nil {
		err := s.log.close()
		s.log = nil
		return err
	}
	return nil
}

// PutNode validates, persists and indexes a new node record, then notifies
// the change feed.
func (s *Store) PutNode(n *provenance.Node) error {
	if err := s.checkNode(n); err != nil {
		return err
	}
	row, err := EncodeNode(n)
	if err != nil {
		return err
	}
	return s.commit(entry{op: opPutNode, row: row})
}

// UpdateNode replaces an existing node's attributes (enrichment). Identity
// fields (class, type, app ID) must not change.
func (s *Store) UpdateNode(n *provenance.Node) error {
	if err := s.checkNode(n); err != nil {
		return err
	}
	row, err := EncodeNode(n)
	if err != nil {
		return err
	}
	return s.commit(entry{op: opUpdateNode, row: row})
}

// PutEdge validates, persists and indexes a new relation record, then
// notifies the change feed.
func (s *Store) PutEdge(e *provenance.Edge) error {
	if !s.opts.SkipValidation {
		// Pre-validate against the working graph under the state lock
		// (not a snapshot): the write path must not trigger the read
		// barrier, and the working graph also sees batch-mates already
		// applied but not yet published. AddEdge re-checks authoritatively
		// at apply time. Endpoints missing from the hot tier may be
		// sealed — the commit below will promote the trace — so the cold
		// tier answers for them here.
		s.mu.RLock()
		src := s.graph.Node(e.Source)
		dst := s.graph.Node(e.Target)
		s.mu.RUnlock()
		if src == nil {
			src = s.coldNode(e.Source)
		}
		if dst == nil {
			dst = s.coldNode(e.Target)
		}
		if err := s.opts.Model.CheckEdge(e, src, dst); err != nil {
			return err
		}
	}
	row, err := EncodeEdge(e)
	if err != nil {
		return err
	}
	return s.commit(entry{op: opPutEdge, row: row})
}

// PutNodes validates, persists and indexes a run of node records as ONE
// commit unit: one log flush (and in Sync mode one shared fsync), one
// snapshot publish, one change-feed emission covering the whole run. The
// ingestion gateway's batcher workers use it to amortize the commit
// pipeline's per-record coordination across a coalesced event batch. The
// run is not transactional — each node stands or falls alone — and the
// returned slice aligns per-node errors with ns (nil entries succeeded).
func (s *Store) PutNodes(ns []*provenance.Node) []error {
	errs := make([]error, len(ns))
	entries := make([]entry, 0, len(ns))
	at := make([]int, 0, len(ns)) // entries[j] belongs to ns[at[j]]
	for i, n := range ns {
		if err := s.checkNode(n); err != nil {
			errs[i] = err
			continue
		}
		row, err := EncodeNode(n)
		if err != nil {
			errs[i] = err
			continue
		}
		entries = append(entries, entry{op: opPutNode, row: row})
		at = append(at, i)
	}
	if len(entries) == 0 {
		return errs
	}
	for j, err := range s.commitAll(entries) {
		errs[at[j]] = err
	}
	return errs
}

// commitAll makes a run of entries durable and applies them as one commit
// unit. Durable stores enqueue the run on the group committer as a single
// request (one wait, one shared fsync). An in-memory store has no log and
// no cold tier, so its path is the committer's discipline minus the disk:
// under logMu apply in order, publish one snapshot, emit the events.
// Per-entry errors align with entries.
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
	// logMu is held across the apply, the snapshot publish and the
	// change-feed emit, so the order the state, the published snapshots
	// and the change feed observe is one order. Lock order is always
	// logMu -> mu.
	s.logMu.Lock()
	defer s.logMu.Unlock()
	errs := make([]error, len(entries))
	evs := make([]Event, 0, len(entries))
	for i, e := range entries {
		ev, err := s.apply(e)
		errs[i] = err
		if err == nil {
			evs = append(evs, ev)
		}
	}
	// Rejected applies left the state untouched; with none accepted the
	// published snapshot is still current.
	if len(evs) == 0 {
		return errs
	}
	s.publishLocked()
	for _, ev := range evs {
		s.publish(ev)
	}
	return errs
}

func (s *Store) checkNode(n *provenance.Node) error {
	if s.opts.SkipValidation {
		return n.Validate()
	}
	return s.opts.Model.CheckNode(n)
}

// commit is commitAll for one entry.
func (s *Store) commit(e entry) error {
	return s.commitAll([]entry{e})[0]
}

// apply mutates the in-memory working state and returns the change-feed
// event describing the mutation. It does NOT publish a snapshot or emit
// the event — the commit paths do both after the whole batch applied, so
// readers and subscribers only ever observe batch boundaries.
func (s *Store) apply(e entry) (Event, error) {
	if e.op == opTraceVer {
		// Version pin written by a trace promotion: the base rows replayed
		// just before it restarted the trace's version counter from the
		// row count; pin it back to the sealed value so versions survive
		// restarts. Never reaches the change feed.
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.graph.SetTraceVersion(e.row.AppID, e.gen); err != nil {
			return Event{}, err
		}
		return Event{}, nil
	}
	if e.op == opTraceDrop {
		// Trace tombstone (shard handoff): remove the trace from every
		// hot-tier structure, exactly as reconcileTiers evicts a stale
		// shard, and tell the tier which sealed copies are now dead.
		// Dropping an absent trace is a no-op — replay may see the
		// tombstone after a compaction already rebuilt the dropped state.
		app := e.row.AppID
		s.mu.Lock()
		defer s.mu.Unlock()
		var ids []string
		for _, n := range s.graph.Nodes(provenance.NodeFilter{AppID: app}) {
			s.idx.remove(n)
			ids = append(ids, n.ID)
		}
		for _, ed := range s.graph.AllEdges(provenance.EdgeFilter{AppID: app}) {
			ids = append(ids, ed.ID)
		}
		s.graph.DropTrace(app)
		s.graph.EvictRouting(ids)
		s.rows.dropApp(app)
		delete(s.lastTouch, app)
		s.seq++
		if s.tier != nil {
			s.tier.markDropped(app, e.gen)
		}
		return Event{}, nil
	}
	n, ed, err := DecodeRow(e.row)
	if err != nil {
		return Event{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var ev Event
	switch e.op {
	case opPutNode:
		if n == nil {
			return Event{}, fmt.Errorf("store: put-node entry decoded to non-node %s", e.row.ID)
		}
		if err := s.graph.AddNode(n); err != nil {
			return Event{}, err
		}
		s.idx.add(n)
		ev.Kind, ev.Node = EventNode, n
	case opUpdateNode:
		if n == nil {
			return Event{}, fmt.Errorf("store: update entry decoded to non-node %s", e.row.ID)
		}
		old := s.graph.Node(n.ID)
		if err := s.graph.UpdateNode(n); err != nil {
			return Event{}, err
		}
		s.idx.remove(old)
		s.idx.add(n)
		ev.Kind, ev.Node, ev.Prev = EventNodeUpdate, n, old
	case opPutEdge:
		if ed == nil {
			return Event{}, fmt.Errorf("store: put-edge entry decoded to non-edge %s", e.row.ID)
		}
		if err := s.graph.AddEdge(ed); err != nil {
			return Event{}, err
		}
		ev.Kind, ev.Edge = EventEdge, ed
	}
	s.rows.put(e.row)
	s.seq++
	ev.Seq = s.seq
	// Every mutating commit bumps the touched trace's monotonic version
	// (maintained inside the graph's trace shard): the continuous-checking
	// cache keys results by it, so "unchanged trace" is decidable without
	// comparing graphs. Replay bumps too, so a recovered store reports the
	// same versions the writer saw. The event carries the post-commit
	// version.
	if app := e.row.AppID; app != "" {
		ev.TraceVersion = s.graph.TraceVersion(app)
		s.lastTouch[app] = s.seq
	}
	return ev, nil
}

// pendingPromo is a staged trace promotion: its base frames are already
// buffered in the log, but the in-memory restoration waits until the
// batch they share a flush/fsync with is durable — otherwise a failed
// flush would leave the trace resident while the log lacks its rows, and
// a later commit would skip re-logging it.
type pendingPromo struct {
	app   string
	ver   uint64
	rows  []entry
	nodes []*provenance.Node
	edges []*provenance.Edge
}

// stagePromotionLocked checks whether app is sealed-but-not-resident and,
// if so, buffers its base rows plus an opTraceVer pin into the log ahead
// of the delta entry about to commit, returning the staged promotion for
// applyPromotionsLocked. staged dedups within one batch. Caller holds
// logMu.
func (s *Store) stagePromotionLocked(app string, staged map[string]bool) (*pendingPromo, error) {
	if s.tier == nil || app == "" || staged[app] || !s.tier.hasSegments() {
		return nil, nil
	}
	s.mu.RLock()
	resident := s.graph.TraceVersion(app) != 0
	s.mu.RUnlock()
	if resident {
		return nil, nil
	}
	seg, tr, ok := s.tier.lookupTrace(app, 0)
	if !ok {
		return nil, nil // genuinely new trace
	}
	rows, err := s.tier.traceRows(seg, tr)
	if err != nil {
		return nil, fmt.Errorf("store: promoting trace %s: %v", app, err)
	}
	nodes, edges, err := decodeTrace(rows)
	if err != nil {
		return nil, fmt.Errorf("store: promoting trace %s: %v", app, err)
	}
	if s.log != nil {
		for _, e := range rows {
			if err := s.log.writeEntry(e); err != nil {
				return nil, fmt.Errorf("store: promoting trace %s: %v", app, err)
			}
		}
		pin := entry{op: opTraceVer, row: Row{AppID: app}, gen: tr.Ver}
		if err := s.log.writeEntry(pin); err != nil {
			return nil, fmt.Errorf("store: promoting trace %s: %v", app, err)
		}
	}
	staged[app] = true
	return &pendingPromo{app: app, ver: tr.Ver, rows: rows, nodes: nodes, edges: edges}, nil
}

// applyPromotionsLocked restores staged promotions into the hot tier
// after their log frames are durable. Runs before the batch's delta
// entries apply, so an edge landing on a freshly promoted trace finds its
// endpoints resident. Caller holds logMu.
func (s *Store) applyPromotionsLocked(promos []*pendingPromo) error {
	for _, p := range promos {
		if p == nil {
			continue
		}
		s.mu.Lock()
		err := s.graph.RestoreTrace(p.app, p.nodes, p.edges, p.ver)
		if err == nil {
			for _, e := range p.rows {
				s.rows.put(e.row)
			}
			for _, n := range p.nodes {
				s.idx.add(n)
			}
			s.lastTouch[p.app] = s.seq
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: promoting trace %s: %v", p.app, err)
		}
		s.tier.promoted.Add(1)
	}
	return nil
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
		rows:  s.rows.snapshot(),
		idx:   s.idx.snapshot(),
		seq:   s.seq,
	})
	s.snapDirty.Store(false)
	s.loadsAtPublish = s.snapCount.readerLoads.Load()
	s.snapCount.publishes.Add(1)
}

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

// ReadTx is a consistent read-only view of the whole store state: graph,
// row table and secondary indexes all from the same published snapshot.
// Obtained through Store.ReadTx.
type ReadTx struct {
	g    *provenance.Graph
	rows *rowTable
	idx  *indexSet
	seq  uint64
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

// ReadTx runs fn with a consistent view of graph, rows and indexes: one
// atomic pointer load, then fn runs lock-free against the immutable
// snapshot.
func (s *Store) ReadTx(fn func(tx ReadTx) error) error {
	return s.readTx(fn)
}

func (s *Store) readTx(fn func(tx ReadTx) error) error {
	snap := s.loadSnap()
	return fn(ReadTx{g: snap.graph, rows: snap.rows, idx: snap.idx, seq: snap.seq})
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
		if _, tr, ok := s.coldLookup(appID); ok {
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
	if g, ver, ok := s.coldTrace(appID); ok {
		return fn(g, ver)
	}
	return fn(snap.graph, 0)
}

// coldLookup finds the newest sealed copy of a trace, gated on the tier
// actually holding segments.
func (s *Store) coldLookup(appID string) (*segment, segTrace, bool) {
	if s.tier == nil || !s.tier.hasSegments() {
		return nil, segTrace{}, false
	}
	return s.tier.lookupTrace(appID, 0)
}

// coldTrace materializes the newest sealed copy of a trace as a frozen
// read-only graph. A segment read error degrades to "absent": the caller
// then reports the trace missing rather than failing the read — segments
// are CRC-checked, so a bad read can only miss data, never invent it.
func (s *Store) coldTrace(appID string) (*provenance.Graph, uint64, bool) {
	seg, tr, ok := s.coldLookup(appID)
	if !ok {
		return nil, 0, false
	}
	g, err := s.tier.materialize(seg, tr)
	if err != nil {
		return nil, 0, false
	}
	return g, tr.Ver, true
}

// coldOwner resolves which trace owns a demoted record ID: the router
// fast path when the ID was demoted this session and a read raced the
// eviction, otherwise the segments' row-ID bloom filters — the only
// route that works after a restart, when the rewritten log never told
// the router about sealed traces.
func (s *Store) coldOwner(id string) (string, bool) {
	if app, ok := s.graph.TraceHint(id); ok {
		return app, true
	}
	return s.tier.ownerOf(id)
}

// coldNode resolves a record ID against the cold tier; the owning
// trace's materialized graph serves the record.
func (s *Store) coldNode(id string) *provenance.Node {
	if s.tier == nil || !s.tier.hasSegments() {
		return nil
	}
	app, ok := s.coldOwner(id)
	if !ok {
		return nil
	}
	if g, _, ok := s.coldTrace(app); ok {
		return g.Node(id)
	}
	return nil
}

// coldEdge is coldNode for relation records.
func (s *Store) coldEdge(id string) *provenance.Edge {
	if s.tier == nil || !s.tier.hasSegments() {
		return nil
	}
	app, ok := s.coldOwner(id)
	if !ok {
		return nil
	}
	if g, _, ok := s.coldTrace(app); ok {
		return g.Edge(id)
	}
	return nil
}

// TraceAsOf returns a read-only graph of one trace as it stood at commit
// sequence seq, together with the trace version of that state. The live
// state serves when its last mutation is at or before seq; otherwise the
// newest sealed copy old enough qualifies — sealed segments are the
// durable history that makes the MVCC snapshots auditable after the
// fact. ErrNoHistory means no state that old survives (the trace never
// existed then, or its history was never sealed). Sequence numbers are
// the store session's commit sequence, as exposed by Stats().Seq and the
// change feed.
func (s *Store) TraceAsOf(appID string, seq uint64) (*provenance.Graph, uint64, error) {
	snap := s.loadSnap()
	if ver := snap.graph.TraceVersion(appID); ver != 0 {
		s.mu.RLock()
		last := s.lastTouch[appID]
		s.mu.RUnlock()
		if last <= seq {
			return snap.graph.Trace(appID), ver, nil
		}
	}
	if s.tier != nil && s.tier.hasSegments() {
		if seg, tr, ok := s.tier.lookupTrace(appID, seq); ok {
			cg, err := s.tier.materialize(seg, tr)
			if err != nil {
				return nil, 0, err
			}
			return cg, tr.Ver, nil
		}
	}
	return nil, 0, ErrNoHistory
}

// Node returns the node record, or nil when absent. The record is shared
// with the store's immutable state and must be treated as read-only;
// callers that want to mutate (e.g. to build an enrichment update) must
// Clone first.
func (s *Store) Node(id string) *provenance.Node {
	n := s.loadSnap().graph.Node(id)
	if n == nil {
		n = s.coldNode(id)
	}
	return n
}

// Edge returns the edge record, or nil when absent. Read-only, like Node.
func (s *Store) Edge(id string) *provenance.Edge {
	e := s.loadSnap().graph.Edge(id)
	if e == nil {
		e = s.coldEdge(id)
	}
	return e
}

// Row returns the stored Table-1 row for a record ID, hot tier first and
// sealed segments second.
func (s *Store) Row(id string) (Row, bool) {
	var (
		r  Row
		ok bool
	)
	s.readTx(func(tx ReadTx) error {
		if app, found := tx.g.TraceOf(id); found {
			r, ok = tx.rows.get(app, id)
		}
		return nil
	})
	if ok {
		return r, true
	}
	return s.coldRow(id)
}

// coldRow serves Row from a trace's sealed copy.
func (s *Store) coldRow(id string) (Row, bool) {
	if s.tier == nil || !s.tier.hasSegments() {
		return Row{}, false
	}
	app, ok := s.coldOwner(id)
	if !ok {
		return Row{}, false
	}
	seg, tr, ok := s.tier.lookupTrace(app, 0)
	if !ok {
		return Row{}, false
	}
	rows, err := s.tier.traceRows(seg, tr)
	if err != nil {
		return Row{}, false
	}
	for _, e := range rows {
		if e.row.ID == id {
			return e.row, true
		}
	}
	return Row{}, false
}

// RowsForApp returns every row of one trace, sorted by record ID. This is
// the query the paper's Table 1 illustrates: all provenance entities of an
// execution trace. A demoted trace answers from its sealed segment.
func (s *Store) RowsForApp(appID string) []Row {
	var res []Row
	s.readTx(func(tx ReadTx) error {
		res = tx.rows.forApp(appID)
		return nil
	})
	if len(res) != 0 || s.tier == nil || !s.tier.hasSegments() {
		return res
	}
	seg, tr, ok := s.tier.lookupTrace(appID, 0)
	if !ok {
		return res
	}
	rows, err := s.tier.traceRows(seg, tr)
	if err != nil {
		return res
	}
	res = make([]Row, 0, len(rows))
	for _, e := range rows {
		res = append(res, e.row)
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

// Stats summarizes the store contents.
type Stats struct {
	Nodes     int
	Edges     int
	Rows      int
	Seq       uint64
	Indexes   int
	Snapshots SnapshotStats
	// RuleIndexes counts graph secondary-index hits versus scans; the
	// working graph and all snapshots share one counter set.
	RuleIndexes provenance.IndexStats
	// ResidentTraces counts the traces currently held in RAM; with
	// tiering on, Tiering carries the sealed side of the split.
	ResidentTraces int
	// Tiering is the tiered-storage layer's state (Enabled=false when the
	// store is in-memory or the D12 ablation is on).
	Tiering TieringStats
}

// Stats returns current store statistics. Nodes/Edges/Rows count the hot
// tier only; sealed traces are under Tiering.
func (s *Store) Stats() Stats {
	var st Stats
	s.readTx(func(tx ReadTx) error {
		st = Stats{
			Nodes:          tx.g.NumNodes(),
			Edges:          tx.g.NumEdges(),
			Rows:           tx.rows.count,
			Seq:            tx.seq,
			Indexes:        tx.idx.size(),
			ResidentTraces: tx.g.NumTraces(),
		}
		return nil
	})
	st.Snapshots = s.SnapshotCounters()
	st.RuleIndexes = s.graph.IndexStats()
	if s.tier != nil {
		st.Tiering = s.tier.stats(st.ResidentTraces)
	}
	return st
}

// Tiering returns the tiered-storage layer's counters. The zero value
// (Enabled=false) means no cold tier exists: the store is in-memory or
// running the DisableTiering ablation.
func (s *Store) Tiering() TieringStats {
	if s.tier == nil {
		return TieringStats{}
	}
	var resident int
	s.readTx(func(tx ReadTx) error {
		resident = tx.g.NumTraces()
		return nil
	})
	return s.tier.stats(resident)
}

// Segments lists the sealed segments on disk, ascending by ID. Nil when
// tiering is off.
func (s *Store) Segments() []SegmentInfo {
	if s.tier == nil {
		return nil
	}
	return s.tier.segments()
}

// SnapshotCounters returns the MVCC read path's counters. The working
// graph pointer is stable for the store's lifetime, so the copy counters
// (atomics inside the graph) are read without locks.
func (s *Store) SnapshotCounters() SnapshotStats {
	cs := s.graph.CopyStats()
	return SnapshotStats{
		Publishes:    s.snapCount.publishes.Load(),
		ReaderLoads:  s.snapCount.readerLoads.Load(),
		CopiedShards: cs.Shards,
		CopiedNodes:  cs.Nodes,
		CopiedEdges:  cs.Edges,
	}
}

// Durability returns a snapshot of the durability layer's counters.
func (s *Store) Durability() DurabilityStats {
	return DurabilityStats{
		GroupCommit:        s.comm != nil,
		Fsyncs:             s.stats.Fsyncs.Load(),
		SyncFailures:       s.stats.SyncFailures.Load(),
		CommitBatches:      s.stats.CommitBatches.Load(),
		GroupedCommits:     s.stats.GroupedCommits.Load(),
		MaxCommitBatch:     s.stats.MaxCommitBatch.Load(),
		Compactions:        s.stats.Compactions.Load(),
		CompactionFailures: s.stats.CompactionFailures.Load(),
		ReplayDroppedBytes: s.replayDropped,
		ReplaySkipped:      s.replaySkipped,
	}
}

// AppIDs lists the distinct traces in the store: resident traces plus
// every trace sealed in the cold tier, deduplicated and sorted.
func (s *Store) AppIDs() []string {
	var ids []string
	s.readTx(func(tx ReadTx) error {
		ids = tx.g.AppIDs()
		return nil
	})
	if s.tier == nil || !s.tier.hasSegments() {
		return ids
	}
	sealed, err := s.tier.apps()
	if err != nil || len(sealed) == 0 {
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

// Model returns the data model the store validates against (may be nil
// when SkipValidation is set).
func (s *Store) Model() *provenance.Model { return s.opts.Model }

// Compact rewrites the disk log to contain exactly the current state:
// every node row first, then every edge row, update chains collapsed to
// the latest version. No-op for in-memory stores.
//
// The rewrite is crash-safe and runs concurrently with writers:
//
//  1. A brief pause under logMu snapshots the row table and redirects
//     appends to a fresh side log (generation G). "Snapshots the row
//     table" is one pointer load — the published snapshot IS the log's
//     content at this quiescent point — so the pause does not scale with
//     store size and concurrent readers are never blocked.
//  2. With no locks held, the snapshot is written to a scratch file
//     headed by a marker frame recording "side generations ≤ G folded",
//     then fsynced.
//  3. A second brief pause folds the side log's frames into the scratch
//     file, fsyncs it, and atomically renames it over the main log — the
//     single commit point — then fsyncs the directory and cleans up.
//
// A crash before the rename leaves the old main log plus the side log
// (recovery replays both, in order); a crash after it leaves the new main
// log whose marker proves the side log is stale (recovery deletes it). An
// error aborts the compaction without data loss: the scratch file is
// removed and appends simply continue on the side log.
//
// With tiering on and SegmentColdAfter set, Compact also demotes: traces
// whose last mutation is at least SegmentColdAfter commits behind the
// current sequence are sealed into a new on-disk segment and their rows
// are excluded from the rewritten log — the segment, validated before the
// rename commits it, becomes their durable home and the hot tier drops
// them. The rename stays the single commit point for both the log rewrite
// and the demotion.
func (s *Store) Compact() error {
	var selectCold func(app string, last, cur uint64) bool
	if s.tier != nil && s.opts.SegmentColdAfter > 0 {
		coldAfter := s.opts.SegmentColdAfter
		selectCold = func(app string, last, cur uint64) bool {
			return cur >= last && cur-last >= coldAfter
		}
	}
	return s.compact(selectCold)
}

// DemoteTraces seals the named traces into a segment immediately,
// regardless of the SegmentColdAfter policy, by running a compaction with
// a membership selector. Traces not resident in the hot tier are ignored.
func (s *Store) DemoteTraces(apps ...string) error {
	if s.tier == nil {
		return errors.New("store: tiering is disabled")
	}
	want := make(map[string]bool, len(apps))
	for _, a := range apps {
		want[a] = true
	}
	return s.compact(func(app string, last, cur uint64) bool { return want[app] })
}

// compact implements Compact and DemoteTraces. selectCold, when non-nil,
// picks the resident traces to demote into a sealed segment as part of
// the rewrite; nil compacts without demoting.
func (s *Store) compact(selectCold func(app string, last, cur uint64) bool) error {
	if s.opts.Dir == "" {
		return nil
	}
	if s.tier == nil {
		selectCold = nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	dir := s.opts.Dir
	fsys := s.fs

	// Phase 1: freeze the current log at a quiescent point (logMu held, so
	// no commit is mid-flight and the in-memory state equals the log) and
	// redirect appends to a fresh side log.
	s.logMu.Lock()
	if s.log == nil {
		s.logMu.Unlock()
		return errClosed
	}
	if err := s.log.flush(); err != nil {
		s.logMu.Unlock()
		return fmt.Errorf("store: compact: %v", err)
	}
	if s.opts.Sync {
		if err := s.log.syncFile(); err != nil {
			s.logMu.Unlock()
			return fmt.Errorf("store: compact: %v", err)
		}
	}
	gen := s.compactGen + 1
	side, err := createOrOpenLog(fsys, sideLogPath(dir, gen), s.opts.Sync)
	if err != nil {
		s.logMu.Unlock()
		return fmt.Errorf("store: compact: opening side log: %v", err)
	}
	if s.opts.Sync {
		if err := syncParentDir(fsys, logPath(dir)); err != nil {
			side.close()
			fsys.Remove(sideLogPath(dir, gen))
			s.logMu.Unlock()
			return fmt.Errorf("store: compact: %v", err)
		}
	}
	frozen := s.log
	s.log = side
	s.compactGen = gen

	var entries []entry
	var nNodes int
	// Demotion state, captured at the freeze point: which traces are cold,
	// their rows diverted out of the rewrite, and the version each was
	// sealed at (phase 3 re-checks it to spot traces written during the
	// compaction).
	var (
		sealSeq uint64
		coldEnt map[string][]entry
		verAt   map[string]uint64
		lastAt  map[string]uint64
		hotVers map[string]uint64 // freeze-time version of every trace kept hot
	)
	// Grab the current snapshot's row table — O(1) under logMu; the
	// entry list is built lock-free below. Deferred commits must be
	// published first so the snapshot equals the frozen log.
	if s.snapDirty.Load() {
		s.forcePublishLocked()
	}
	snap := s.snap.Load()
	rows := snap.rows
	hotVers = map[string]uint64{}
	for _, app := range snap.graph.AppIDs() {
		hotVers[app] = snap.graph.TraceVersion(app)
	}
	var cold map[string]bool
	if selectCold != nil {
		sealSeq = snap.seq
		s.mu.RLock()
		lastAt = make(map[string]uint64, len(s.lastTouch))
		for app, last := range s.lastTouch {
			lastAt[app] = last
		}
		s.mu.RUnlock()
		cold = map[string]bool{}
		verAt = map[string]uint64{}
		for app, last := range lastAt {
			if ver := snap.graph.TraceVersion(app); ver != 0 && selectCold(app, last, sealSeq) {
				cold[app] = true
				verAt[app] = ver
			}
		}
	}
	s.logMu.Unlock()
	entries = make([]entry, 0, rows.count)
	coldEnt = map[string][]entry{}
	rows.each(func(r Row) {
		if r.Class != provenance.ClassRelation.String() {
			if cold[r.AppID] {
				coldEnt[r.AppID] = append(coldEnt[r.AppID], entry{op: opPutNode, row: r})
			} else {
				entries = append(entries, entry{op: opPutNode, row: r})
			}
		}
	})
	nNodes = len(entries)
	rows.each(func(r Row) {
		if r.Class == provenance.ClassRelation.String() {
			if cold[r.AppID] {
				coldEnt[r.AppID] = append(coldEnt[r.AppID], entry{op: opPutEdge, row: r})
			} else {
				entries = append(entries, entry{op: opPutEdge, row: r})
			}
		}
	})

	// The frozen log never receives another byte; release its handle now.
	// Its file stays on disk until the rename (main) or cleanup (side).
	if err := frozen.close(); err != nil {
		return s.compactAbort(fmt.Errorf("store: compact: closing frozen log: %v", err))
	}

	// Seal the cold traces into a new segment before the scratch log is
	// even created: the file is written, fsynced and re-validated through
	// openSegment here, so any structural failure aborts the compaction
	// while the log still holds every row. segPath is cleared once the
	// rename commits; until then every abort removes the orphan file.
	var (
		seg       *segment
		segPath   string
		coldNodes map[string][]*provenance.Node
	)
	abort := func(err error) error {
		if segPath != "" {
			fsys.Remove(segPath)
		}
		return s.compactAbort(err)
	}
	if len(coldEnt) > 0 {
		demote := make([]segTraceRows, 0, len(coldEnt))
		coldNodes = make(map[string][]*provenance.Node, len(coldEnt))
		for app, es := range coldEnt {
			nn := 0
			for _, e := range es {
				if e.op == opPutNode {
					nn++
				}
			}
			sort.Slice(es[:nn], func(i, j int) bool { return es[i].row.ID < es[j].row.ID })
			sort.Slice(es[nn:], func(i, j int) bool { return es[nn+i].row.ID < es[nn+j].row.ID })
			tr, nodes, err := newSegTraceRows(app, verAt[app], lastAt[app], es)
			if err != nil {
				return abort(fmt.Errorf("store: compact: sealing %s: %v", app, err))
			}
			coldNodes[app] = nodes
			demote = append(demote, tr)
		}
		id := s.tier.allocID()
		segPath = segmentPath(dir, id)
		if _, err := writeSegment(fsys, segPath, sealSeq, demote, s.opts.SegmentBlockBytes); err != nil {
			segPath = "" // writeSegment removed its own partial file
			return abort(fmt.Errorf("store: compact: sealing segment: %v", err))
		}
		if err := syncParentDir(fsys, segPath); err != nil {
			return abort(fmt.Errorf("store: compact: fsync segments dir: %v", err))
		}
		var err error
		if seg, err = openSegment(fsys, segPath, id); err != nil {
			return abort(fmt.Errorf("store: compact: validating sealed segment: %v", err))
		}
	}

	// Phase 2: write the snapshot to the scratch file — no store locks
	// held, writers are appending to the side log in parallel.
	sort.Slice(entries[:nNodes], func(i, j int) bool { return entries[i].row.ID < entries[j].row.ID })
	sort.Slice(entries[nNodes:], func(i, j int) bool {
		return entries[nNodes+i].row.ID < entries[nNodes+j].row.ID
	})
	tmp := tmpLogPath(dir)
	if err := fsys.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return abort(fmt.Errorf("store: compact: %v", err))
	}
	tw, err := createOrOpenLog(fsys, tmp, false)
	if err != nil {
		fsys.Remove(tmp) // created-but-unwritable scratch must not linger
		return abort(fmt.Errorf("store: compact: %v", err))
	}
	cleanupTmp := func(err error) error {
		tw.close()
		fsys.Remove(tmp)
		return abort(err)
	}
	if err := tw.writeEntry(entry{op: opCompactMark, gen: gen}); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: %v", err))
	}
	for _, e := range entries {
		if err := tw.writeEntry(e); err != nil {
			return cleanupTmp(fmt.Errorf("store: compact: %v", err))
		}
	}
	// Pin every hot trace to its freeze-time version: the rewrite
	// collapsed update chains, so without the pins a replay would count
	// fewer mutations than the writer acknowledged. Pins follow all the
	// rewritten rows and precede the folded side-log deltas, which bump
	// from the pinned value — replayed versions stay exact across
	// compaction. Cold traces are excluded: their pins live in their
	// segment (or, for changed candidates, are re-logged in phase 3).
	pinApps := make([]string, 0, len(hotVers))
	for app := range hotVers {
		if verAt[app] == 0 {
			pinApps = append(pinApps, app)
		}
	}
	sort.Strings(pinApps)
	for _, app := range pinApps {
		pin := entry{op: opTraceVer, row: Row{AppID: app}, gen: hotVers[app]}
		if err := tw.writeEntry(pin); err != nil {
			return cleanupTmp(fmt.Errorf("store: compact: %v", err))
		}
	}
	if err := tw.flush(); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: %v", err))
	}

	// Phase 3: fold the side log in and commit with one atomic rename.
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		tw.close()
		fsys.Remove(tmp)
		if segPath != "" {
			fsys.Remove(segPath)
		}
		return errClosed
	}
	// A cold trace written during the compaction stays hot: its sealed
	// copy is stale the moment it lands. The trace's base rows re-enter
	// the rewritten log, pinned to the seal-time version, AHEAD of the
	// side-log deltas that changed it — replay then rebuilds base + pin +
	// deltas into exactly the live state.
	var changed map[string]bool
	if seg != nil {
		changed = map[string]bool{}
		s.mu.RLock()
		for app := range coldEnt {
			if s.graph.TraceVersion(app) != verAt[app] {
				changed[app] = true
			}
		}
		s.mu.RUnlock()
		for app := range changed {
			for _, e := range coldEnt[app] {
				if err := tw.writeEntry(e); err != nil {
					return cleanupTmp(fmt.Errorf("store: compact: re-logging %s: %v", app, err))
				}
			}
			pin := entry{op: opTraceVer, row: Row{AppID: app}, gen: verAt[app]}
			if err := tw.writeEntry(pin); err != nil {
				return cleanupTmp(fmt.Errorf("store: compact: re-logging %s: %v", app, err))
			}
		}
	}
	if err := s.log.flush(); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: flushing side log: %v", err))
	}
	if err := copyFrames(fsys, s.log.path, tw); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: folding side log: %v", err))
	}
	if err := tw.flush(); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: %v", err))
	}
	if err := tw.syncFile(); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: fsync snapshot: %v", err))
	}
	if err := tw.close(); err != nil {
		return cleanupTmp(fmt.Errorf("store: compact: %v", err))
	}
	if err := fsys.Rename(tmp, logPath(dir)); err != nil {
		fsys.Remove(tmp)
		return abort(fmt.Errorf("store: compact: %v", err))
	}
	// The rename is the commit point; everything below is cleanup and
	// must leave the store coherent even on error.
	var retErr error
	if err := syncParentDir(fsys, logPath(dir)); err != nil {
		retErr = fmt.Errorf("store: compact: fsync dir: %v", err)
	}
	// The demotion committed with the rename: the new main log excludes
	// the unchanged cold traces, so the segment MUST serve them from here
	// on — register it and drop the hot copies before anything below can
	// fail. Register-then-drop means a concurrent reader always finds the
	// trace in at least one tier.
	if seg != nil {
		s.tier.register(seg)
		segPath = "" // committed; no longer removable by error paths
		s.mu.Lock()
		for app := range coldEnt {
			if changed[app] {
				continue
			}
			for _, n := range coldNodes[app] {
				s.idx.remove(n)
			}
			s.graph.DropTrace(app)
			// The registered segment now answers ID-based reads through
			// its row-ID bloom, so the router entries are pure overhead:
			// evict them, or the router grows with every trace ever
			// sealed and resident memory tracks total history again.
			ids := make([]string, 0, len(coldEnt[app]))
			for _, e := range coldEnt[app] {
				ids = append(ids, e.row.ID)
			}
			s.graph.EvictRouting(ids)
			s.rows.dropApp(app)
			delete(s.lastTouch, app)
			s.tier.demoted.Add(1)
		}
		// A mass demotion leaves every app-keyed container at its peak
		// map capacity (Go maps never shrink); rebuild them at resident
		// size so memory tracks the working set, not total history.
		s.graph.Vacuum()
		s.rows.vacuum()
		s.idx.vacuum()
		lt := make(map[string]uint64, len(s.lastTouch))
		for k, v := range s.lastTouch {
			lt[k] = v
		}
		s.lastTouch = lt
		s.mu.Unlock()
		s.forcePublishLocked()
	}
	oldSide := s.log
	nw, err := createOrOpenLog(fsys, logPath(dir), s.opts.Sync)
	if err != nil {
		// The folded main log cannot accept appends; route them to a
		// fresh side log so nothing is lost (recovery folds it later).
		s.stats.CompactionFailures.Add(1)
		gen2 := gen + 1
		nw2, err2 := createOrOpenLog(fsys, sideLogPath(dir, gen2), s.opts.Sync)
		if err2 != nil {
			s.log = nil // fail closed: appends error rather than corrupt
			return fmt.Errorf("store: compact: reopening log: %v (side fallback: %v)", err, err2)
		}
		oldSide.close()
		fsys.Remove(oldSide.path)
		s.log = nw2
		s.compactGen = gen2
		return fmt.Errorf("store: compact: reopening log: %v", err)
	}
	oldSide.close()
	s.log = nw
	if gens, err := sideLogGens(fsys, dir); err == nil {
		for _, g := range gens {
			if g <= gen {
				fsys.Remove(sideLogPath(dir, g))
			}
		}
	}
	if s.opts.Sync {
		if err := syncParentDir(fsys, logPath(dir)); err != nil && retErr == nil {
			retErr = fmt.Errorf("store: compact: fsync dir: %v", err)
		}
	}
	s.stats.Compactions.Add(1)
	// Segment GC rides every successful compaction: with the new segment
	// (if any) registered and the hot state settled, delete sealed files
	// none of whose trace copies are live anymore. compactMu is still
	// held, so no seal races the scan.
	if s.tier != nil && !s.opts.DisableSegmentGC {
		s.gcSegmentsLocked()
	}
	return retErr
}

// compactAbort records a failed compaction. Appends keep flowing to the
// side log, which recovery (and the next successful Compact) folds back
// in, so an aborted compaction never loses data.
func (s *Store) compactAbort(err error) error {
	s.stats.CompactionFailures.Add(1)
	return err
}
