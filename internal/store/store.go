package store

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

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
	// FS is the filesystem the durability layer runs on; nil means the
	// process filesystem. Fault-injection tests substitute
	// internal/store/faultfs to exercise torn writes, fsync failures and
	// crash recovery.
	FS FS
	// SkipValidation disables model checking of incoming records.
	SkipValidation bool
	// SegmentColdAfter is the demotion policy: during Compact, a trace
	// whose last mutation is at least this many commits behind the
	// current sequence is sealed into an on-disk segment and dropped
	// from RAM. Zero disables automatic demotion — every trace stays
	// resident, the all-resident retention policy; DemoteTraces still
	// seals explicitly.
	SegmentColdAfter uint64
	// SegmentCacheBytes caps the sealed-segment block cache (0 = 32 MiB).
	SegmentCacheBytes int64
	// SegmentBlockBytes is the target data-block size inside sealed
	// segments (0 = 16 KiB).
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
	LogRewrites        atomic.Uint64
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
	// Compactions counts completed compactions: a demotion pass, a log
	// rewrite, or both.
	Compactions uint64
	// LogRewrites counts the compactions that rewrote the log. A periodic
	// compaction rewrites only when LogBytes is at least 1 MiB and at least
	// twice what the rewrite would write; DemoteTraces and a Compact without
	// a demotion policy always do.
	LogRewrites uint64
	// LogBytes is the size of the log files replay would read: the main
	// log and any side logs.
	LogBytes int64
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

// Store is the provenance store: the append-only record log, the in-memory
// provenance graph, secondary indexes, and the change feed.
//
// Reads are MVCC (design decision D7): every commit publishes an
// immutable snapshot of the full state through an atomic pointer, and
// readers run against the snapshot with no locking. The mu RWMutex
// serializes writers' mutations of the working state; the few readers of
// the working state itself (write-path pre-validation, promotion's
// residency check) take it shared.
type Store struct {
	opts Options
	fs   FS

	mu     sync.RWMutex
	graph  *provenance.Graph // working graph; the pointer itself is stable
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
	// logBytes is the size of every log file replay would read; it moves
	// under logMu and is read without it.
	logBytes atomic.Int64

	compactMu sync.Mutex // one Compact at a time
	comm      *committer // group-commit pipeline (nil: in-memory store)

	// tier is the sealed-segment cold tier (nil: in-memory store).
	tier *tierManager

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
		opts:  opts,
		fs:    opts.FS,
		graph: provenance.NewGraph(),
		idx:   newIndexSet(),
		subs:  make(map[int]*Subscription),
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
		t, err := newTierManager(s.fs, opts.Dir, opts.SegmentCacheBytes)
		if err != nil {
			return nil, err
		}
		s.tier = t
		// The sequence restarts each session. Start this one past every
		// sealed copy's, or a drop tombstone it commits could sit below a
		// segment sealed earlier and leave the dropped trace readable.
		// Replay then moves every last-touch by the same amount, so the
		// demotion policy's distances do not change.
		for _, seg := range t.segs {
			s.seq = max(s.seq, seg.sealSeq)
		}
		active, err := s.replayAll()
		if err != nil {
			return nil, err
		}
		// Replay may have rebuilt handoff tombstones (opTraceDrop) whose
		// sealed copies a crash left unscrubbed; finish the scrub now. Open
		// runs single-threaded, so no compaction races the rewrite. On
		// error the tombstones stay and keep guarding lookups.
		_ = s.scrubDroppedLocked()
		w, err := createOrOpenLog(s.fs, active, opts.Sync)
		if err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
		s.log = w
		s.logBytes.Add(w.size)
		s.comm = newCommitter(s)
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
//
// An entry that fails to apply is skipped (replayLog says why), with one
// exception: a promotion marker whose sealed copy is missing or unreadable.
// The rows it stands for exist nowhere else, so the deltas behind it would
// build a partial trace that still evaluates to a verdict; Open fails
// instead, naming the segment — unless a later tombstone drops the trace,
// whose scrub is what removed the copy.
//
// It also sets logBytes to the size of the files it leaves behind, the
// active one excepted (Open adds that one's once it is open for appends).
func (s *Store) replayAll() (activePath string, err error) {
	dir := s.opts.Dir
	unrestored := map[string]error{} // trace -> why its marker did not replay
	evicted := false
	apply := func(e entry) error {
		_, err := s.apply(e)
		switch {
		case e.op == opPromote && err != nil:
			unrestored[e.app] = err
		case e.op == opTraceDrop:
			delete(unrestored, e.app)
		case e.op == opDemote && errors.Is(err, errDemoteStale):
			err = nil // the live commit's no-op, reproduced
		case e.op == opDemote && err == nil:
			evicted = true
		}
		return err
	}
	rr, err := replayLog(s.fs, logPath(dir), apply)
	if err != nil {
		return "", err
	}
	s.replayDropped = rr.dropped
	s.replaySkipped = rr.skipped
	s.compactGen = rr.folded
	others, activeSize := int64(0), rr.size

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
		others, activeSize = others+activeSize, srr.size
		activePath = side
	}
	s.logBytes.Store(others)
	if evicted {
		s.vacuumLocked()
	}
	if len(unrestored) > 0 {
		apps := make([]string, 0, len(unrestored))
		for app := range unrestored {
			apps = append(apps, app)
		}
		slices.Sort(apps)
		return "", unrestored[apps[0]]
	}
	return activePath, nil
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
	// store is in-memory).
	Tiering TieringStats
}

// Stats returns current store statistics. Nodes/Edges/Rows count the hot
// tier only (Rows is Nodes + Edges: every resident record has exactly one
// row); sealed traces are under Tiering.
func (s *Store) Stats() Stats {
	var st Stats
	s.readTx(func(tx ReadTx) error {
		st = Stats{
			Nodes:          tx.g.NumNodes(),
			Edges:          tx.g.NumEdges(),
			Rows:           tx.g.NumNodes() + tx.g.NumEdges(),
			Seq:            tx.seq,
			Indexes:        tx.idx.size(),
			ResidentTraces: tx.g.NumTraces(),
		}
		return nil
	})
	st.Snapshots = s.SnapshotCounters()
	st.RuleIndexes = s.graph.IndexStats()
	if s.tier != nil {
		st.Tiering = s.tierStats(st.ResidentTraces)
	}
	return st
}

// Tiering returns the tiered-storage layer's counters. The zero value
// (Enabled=false) means no cold tier exists: the store is in-memory.
func (s *Store) Tiering() TieringStats {
	if s.tier == nil {
		return TieringStats{}
	}
	var resident int
	s.readTx(func(tx ReadTx) error {
		resident = tx.g.NumTraces()
		return nil
	})
	return s.tierStats(resident)
}

// tierStats is the tier's counters with the store's side filled in.
func (s *Store) tierStats(resident int) TieringStats {
	st := s.tier.stats(resident)
	for _, n := range s.segmentBacked() {
		st.SegmentBackedTraces += n
	}
	return st
}

// segmentBacked counts, per segment, the resident traces whose base rows
// live in it (tierManager.backed), judged on the working graph.
func (s *Store) segmentBacked() map[uint64]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.backed(func(app string) bool { return s.graph.TraceVersion(app) != 0 })
}

// Segments lists the sealed segments on disk, ascending by ID. Nil for an
// in-memory store.
func (s *Store) Segments() []SegmentInfo {
	if s.tier == nil {
		return nil
	}
	return s.tier.segments(s.segmentBacked())
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
		LogRewrites:        s.stats.LogRewrites.Load(),
		LogBytes:           s.logBytes.Load(),
		CompactionFailures: s.stats.CompactionFailures.Load(),
		ReplayDroppedBytes: s.replayDropped,
		ReplaySkipped:      s.replaySkipped,
	}
}

// Model returns the data model the store validates against (may be nil
// when SkipValidation is set).
func (s *Store) Model() *provenance.Model { return s.opts.Model }
