package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/provenance"
)

// tierManager owns the cold tier: the set of sealed segments on disk plus
// the block cache fronting them. Segments are immutable once registered,
// so the only lock is around the segment list itself; probing, paging and
// materialization all run lock-free against immutable state.
//
// Lookups go newest-first. A trace demoted, promoted back, and demoted
// again exists in two segments; the newer segment always carries the
// newer copy, so newest-first resolves supersession with no tombstone
// bookkeeping. The zone map (trace-ID range) and the trace bloom filter
// gate each probe, so a cold lookup touches at most one segment plus the
// bloom's false-positive tail — the invariant E15 verifies by counters:
// SegmentProbes == ColdHits + FalseProbes.
type tierManager struct {
	fs    FS
	dir   string
	cache *blockCache
	// names is the store's name table (Store.names).
	names nameTable

	mu     sync.RWMutex
	segs   []*segment // ascending by id
	nextID uint64
	// dropped maps trace ID -> drop sequence for traces tombstoned by
	// shard handoff whose sealed copies have not been scrubbed out of
	// their segments yet. Lookups treat a sealed copy from a segment
	// sealed at or before the drop as dead; scrubDropped clears entries
	// once the copies are physically gone. Rebuilt from the log's
	// opTraceDrop tombstones at Open.
	dropped map[string]uint64
	// pins maps every segment an opPromote marker in the current log names
	// to the traces those markers promoted, each with the log generation
	// (Store.compactGen) of its newest such marker. Replay restores the
	// marker's trace from that segment however the trace moved since —
	// evicted again by a demotion marker, its copy superseded by a newer
	// segment — so GC keeps a pinned segment whole until a rewrite drops the
	// markers (unpinBefore). A resident trace's base rows live in the newest
	// segment that pins it (backed). A handoff tombstone unpins its trace:
	// replay excuses that trace's markers (replayAll).
	pins map[uint64]map[string]uint64

	// removedAtOpen counts half-sealed segment files deleted during load:
	// a crash mid-seal leaves a file without a valid trailer/footer, and
	// the log still holds every row it would have carried.
	removedAtOpen int

	coldLookups   atomic.Uint64
	coldHits      atomic.Uint64
	segmentProbes atomic.Uint64
	bloomSkips    atomic.Uint64
	falseProbes   atomic.Uint64
	demoted       atomic.Uint64
	promoted      atomic.Uint64
	// segmentsReclaimed counts sealed files deleted by segment GC —
	// every trace they held was promoted back to hot, superseded by a
	// newer segment, or dropped by shard handoff.
	segmentsReclaimed atomic.Uint64
	// readErrors counts sealed blocks that failed to read: I/O, CRC, or a
	// payload that does not decode.
	readErrors atomic.Uint64
}

// newTierManager scans dir's segments directory, validates every segment
// file, removes half-sealed garbage, and returns the manager.
func newTierManager(fsys FS, dir string, cacheBytes int64, names nameTable) (*tierManager, error) {
	if err := os.MkdirAll(segmentsDir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	t := &tierManager{fs: fsys, dir: dir, cache: newBlockCache(cacheBytes), names: names, nextID: 1,
		pins: map[uint64]map[string]uint64{}}
	// A crash between a scrub rewrite and its rename leaves a .tmp next
	// to the intact original; it is garbage.
	cleanSegmentTmp(fsys, dir)
	ids, err := segmentIDs(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing segments: %v", err)
	}
	for _, id := range ids {
		path := segmentPath(dir, id)
		seg, err := openSegment(fsys, path, id)
		if errors.Is(err, errSegFormat) {
			// Whole, but in a format this binary does not read: deleting it
			// would lose every trace it holds.
			return nil, fmt.Errorf("%v: refusing to open or delete it", err)
		}
		if err != nil {
			// Half-sealed or corrupt: a crash mid-seal leaves such a file
			// before any marker names it, so the log still holds these
			// traces.
			if rerr := fsys.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
				return nil, fmt.Errorf("store: removing invalid segment: %v", rerr)
			}
			t.removedAtOpen++
			continue
		}
		t.segs = append(t.segs, seg)
		if id >= t.nextID {
			t.nextID = id + 1
		}
	}
	return t, nil
}

// allocID reserves the next segment ID.
func (t *tierManager) allocID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	return id
}

// register adds a sealed, fsynced segment to the lookup set.
func (t *tierManager) register(seg *segment) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.segs = append(t.segs, seg)
	sort.Slice(t.segs, func(i, j int) bool { return t.segs[i].id < t.segs[j].id })
}

// unregister removes a segment from the lookup set (GC or handoff scrub).
// The caller deletes the file; readers holding the previous segment list
// degrade to a false probe on it, which lookup paths already tolerate.
func (t *tierManager) unregister(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.segs {
		if s.id == id {
			t.segs = append(append([]*segment(nil), t.segs[:i]...), t.segs[i+1:]...)
			return
		}
	}
}

// markDropped records a handoff tombstone: sealed copies of app in
// segments sealed at or before seq are dead, and its promotion markers pin
// nothing. Cleared by scrubDropped.
func (t *tierManager) markDropped(app string, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped == nil {
		t.dropped = map[string]uint64{}
	}
	t.dropped[app] = seq
	t.unpinLocked(func(a string, _ uint64) bool { return a == app })
}

// droppedAt returns the pending drop sequence for app (0 = not dropped).
func (t *tierManager) droppedAt(app string) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dropped[app]
}

// pendingDrops snapshots the tombstone set.
func (t *tierManager) pendingDrops() map[string]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]uint64, len(t.dropped))
	for k, v := range t.dropped {
		out[k] = v
	}
	return out
}

// clearDrops forgets tombstones whose sealed copies were scrubbed.
func (t *tierManager) clearDrops(apps []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range apps {
		delete(t.dropped, a)
	}
}

// pin notes that a promotion marker logged in generation gen promoted app
// from segID.
func (t *tierManager) pin(segID uint64, app string, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins[segID] == nil {
		t.pins[segID] = map[string]uint64{}
	}
	t.pins[segID][app] = gen
}

// unpinBefore forgets the pins of markers logged before generation gen: a
// rewrite frozen at gen replaced the files that held them.
func (t *tierManager) unpinBefore(gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.unpinLocked(func(_ string, g uint64) bool { return g < gen })
}

// unpinLocked forgets the pins drop picks. Caller holds mu.
func (t *tierManager) unpinLocked(drop func(app string, gen uint64) bool) {
	for id, apps := range t.pins {
		for app, g := range apps {
			if drop(app, g) {
				delete(apps, app)
			}
		}
		if len(apps) == 0 {
			delete(t.pins, id)
		}
	}
}

// pinned snapshots the set of pinned segment IDs.
func (t *tierManager) pinned() map[uint64]bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[uint64]bool, len(t.pins))
	for id := range t.pins {
		out[id] = true
	}
	return out
}

// backed counts, per segment, the resident traces whose base rows live in
// it: a trace's base is the newest segment that pins it, since a trace is
// only ever promoted from its newest sealed copy. A trace whose rows a
// rewrite put into the log is pinned nowhere.
func (t *tierManager) backed(resident func(app string) bool) map[uint64]int {
	t.mu.RLock()
	base := map[string]uint64{}
	for id, apps := range t.pins {
		for app := range apps {
			base[app] = max(base[app], id)
		}
	}
	t.mu.RUnlock()
	out := map[uint64]int{}
	for app, id := range base {
		if resident(app) {
			out[id]++
		}
	}
	return out
}

// copyAt finds the sealed copy a marker names: trace app in segment segID
// at exactly version ver. Lookups go by segment ID, not newest-first — the
// marker says where the writer put the trace; moved says how ("promoted
// from", "demoted into") for the error.
func (t *tierManager) copyAt(app string, segID, ver uint64, moved string) (*segment, segTrace, error) {
	for _, seg := range t.snapshotSegs() {
		if seg.id != segID {
			continue
		}
		tr, ok := seg.findTrace(app)
		if !ok || tr.Ver != ver {
			return nil, tr, fmt.Errorf("store: segment %s holds no copy of trace %s at version %d, which the log says it was %s", seg.path, app, ver, moved)
		}
		return seg, tr, nil
	}
	return nil, segTrace{}, fmt.Errorf("store: segment %s, which the log says trace %s was %s, is missing", segmentPath(t.dir, segID), app, moved)
}

// sealedAt materializes the sealed copy a promotion marker names.
func (t *tierManager) sealedAt(app string, segID, ver uint64) (*provenance.Graph, error) {
	seg, tr, err := t.copyAt(app, segID, ver, "promoted from")
	if err != nil {
		return nil, err
	}
	return t.materialize(seg, tr)
}

// hasSegments reports whether the cold tier holds anything — the cheap
// gate read paths consult before paying a lookup.
func (t *tierManager) hasSegments() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs) > 0
}

// snapshotSegs returns the current segment list (shared, immutable).
func (t *tierManager) snapshotSegs() []*segment {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.segs
}

// readErr counts a failed read of a sealed block and names where it was.
func (t *tierManager) readErr(seg *segment, blk int, err error) error {
	t.readErrors.Add(1)
	return fmt.Errorf("store: segment %s block %d: %w", seg.path, blk, err)
}

// block returns a data block's verified payload through the cache.
func (t *tierManager) block(seg *segment, blk int) ([]byte, error) {
	key := cacheKey{seg: seg.id, blk: blk}
	if p, ok := t.cache.get(key); ok {
		return p, nil
	}
	p, err := seg.readBlock(blk)
	if err != nil {
		return nil, t.readErr(seg, blk, err)
	}
	t.cache.put(key, p)
	return p, nil
}

// lookupTrace finds the newest sealed copy of a trace. maxSeq, when
// non-zero, bounds the copy's last-touch sequence — the as-of read path.
func (t *tierManager) lookupTrace(app string, maxSeq uint64) (*segment, segTrace, bool) {
	t.coldLookups.Add(1)
	dropSeq := t.droppedAt(app)
	segs := t.snapshotSegs()
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		if dropSeq != 0 && seg.sealSeq <= dropSeq {
			// Sealed before the trace's handoff tombstone: the copy is
			// dead even though the scrub hasn't rewritten the file yet.
			t.bloomSkips.Add(1)
			continue
		}
		if app < seg.minApp || app > seg.maxApp || !seg.bloomTrace.mightContain(app) {
			t.bloomSkips.Add(1)
			continue
		}
		if maxSeq != 0 && seg.minSeq > maxSeq {
			t.bloomSkips.Add(1)
			continue
		}
		t.segmentProbes.Add(1)
		tr, ok := seg.findTrace(app)
		if !ok || (maxSeq != 0 && tr.Last > maxSeq) {
			t.falseProbes.Add(1)
			continue
		}
		t.coldHits.Add(1)
		return seg, tr, true
	}
	return nil, segTrace{}, false
}

// ownerOf resolves a raw record ID to the trace that owns it by probing
// the segments' row-ID bloom filters, newest-first. It is the routing
// path for ID-based cold reads when the hot tier's record-ID router has
// no entry — always the case after a restart, and after demotion evicts
// the trace's entries. A bloom hit scans the segment's data blocks
// through the cache; record IDs are write-once, so the first segment
// that truly holds the ID names the owning trace for every copy. A block
// that fails to read ends that segment's scan as a counted false probe.
func (t *tierManager) ownerOf(id string) (string, bool) {
	segs := t.snapshotSegs()
	if len(segs) == 0 {
		return "", false // nothing sealed: not a cold lookup
	}
	t.coldLookups.Add(1)
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		if !seg.bloomID.mightContain(id) {
			t.bloomSkips.Add(1)
			continue
		}
		t.segmentProbes.Add(1)
		for blk := range seg.blocks {
			p, err := t.block(seg, blk)
			if err != nil {
				break
			}
			app, found, err := seg.owner(p, blk, id, t.names)
			if err != nil {
				t.readErrors.Add(1) // ownerOf has no error result
				break
			}
			if found {
				if ds := t.droppedAt(app); ds != 0 && seg.sealSeq <= ds {
					// Newest copy predates the trace's handoff
					// tombstone — every older copy does too.
					return "", false
				}
				t.coldHits.Add(1)
				return app, true
			}
		}
		t.falseProbes.Add(1) // bloom false positive (or unreadable block)
	}
	return "", false
}

// sealed reads one sealed trace copy's records out of its block.
func (t *tierManager) sealed(seg *segment, tr segTrace) (sealedTrace, error) {
	p, err := t.block(seg, tr.Blk)
	if err != nil {
		return sealedTrace{}, err
	}
	st, err := seg.records(p, tr, t.names)
	if err != nil {
		return sealedTrace{}, t.readErr(seg, tr.Blk, err)
	}
	return st, nil
}

// materialize builds the frozen read-only graph of one sealed trace copy
// from its cached block. Only the block is cached: each call decodes the
// trace's run and files it in a one-trace graph. The graph has no router
// and shares nothing with the hot tier, so it never blocks writers and may
// be retained indefinitely like any snapshot.
func (t *tierManager) materialize(seg *segment, tr segTrace) (*provenance.Graph, error) {
	st, err := t.sealed(seg, tr)
	if err != nil {
		return nil, err
	}
	g, err := provenance.SealedTrace(tr.App, st.nodes, st.edges, tr.Ver)
	if err != nil {
		return nil, t.readErr(seg, tr.Blk, err)
	}
	return g, nil
}

// apps returns every trace ID sealed in the tier, deduplicated across
// segments and sorted.
func (t *tierManager) apps() []string {
	seen := map[string]bool{}
	for _, seg := range t.snapshotSegs() {
		for _, tr := range seg.traces {
			seen[tr.App] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SegmentInfo describes one sealed segment for operators (pctl segments,
// the /segments endpoint).
type SegmentInfo struct {
	ID        uint64 `json:"id"`
	Path      string `json:"path"`
	SizeBytes int64  `json:"size_bytes"`
	// IndexBytes is the memory the segment's block table and trace index
	// hold for as long as it is registered.
	IndexBytes int64   `json:"index_bytes"`
	Traces     int     `json:"traces"`
	Rows       int     `json:"rows"`
	Blocks     int     `json:"blocks"`
	SealSeq    uint64  `json:"seal_seq"`
	MinSeq     uint64  `json:"min_seq"`
	MaxSeq     uint64  `json:"max_seq"`
	MinApp     string  `json:"min_app"`
	MaxApp     string  `json:"max_app"`
	BloomFill  float64 `json:"bloom_fill"`
	BloomFPP   float64 `json:"bloom_fpp"`
	// SegmentBackedTraces counts resident traces whose base rows still live
	// in this segment (promoted by reference, not yet rewritten into the
	// log): while it is non-zero, GC keeps the file however dead it looks.
	SegmentBackedTraces int `json:"segment_backed_traces"`
	// Pinned reports that a promotion marker in the current log names the
	// segment: replay reads it, so GC keeps it until the next log rewrite.
	Pinned bool `json:"pinned"`
}

// segments lists the sealed segments, ascending by ID; backed is what
// tierManager.backed counts.
func (t *tierManager) segments(backed map[uint64]int) []SegmentInfo {
	segs := t.snapshotSegs()
	pinned := t.pinned()
	out := make([]SegmentInfo, 0, len(segs))
	for _, s := range segs {
		out = append(out, SegmentInfo{
			ID: s.id, Path: s.path, SizeBytes: s.size, IndexBytes: s.indexBytes,
			Traces: len(s.traces), Rows: s.nRows, Blocks: len(s.blocks),
			SealSeq: s.sealSeq, MinSeq: s.minSeq, MaxSeq: s.maxSeq,
			MinApp: s.minApp, MaxApp: s.maxApp,
			BloomFill: s.bloomTrace.fillRatio(), BloomFPP: s.bloomTrace.estFPP(),
			SegmentBackedTraces: backed[s.id], Pinned: pinned[s.id],
		})
	}
	return out
}

// TieringStats is the tiered-storage layer's observable state, served
// under "tiering" in the HTTP /stats endpoint.
type TieringStats struct {
	// Enabled is false for an in-memory store, which has no cold tier.
	Enabled bool `json:"enabled"`
	// Segments / SealedTraces / SealedRows / SealedBytes describe the
	// cold tier's extent; IndexBytes is the memory its pinned segment
	// indexes (block tables and trace indexes) hold.
	Segments     int   `json:"segments"`
	SealedTraces int   `json:"sealed_traces"`
	SealedRows   int   `json:"sealed_rows"`
	SealedBytes  int64 `json:"sealed_bytes"`
	IndexBytes   int64 `json:"index_bytes"`
	// ResidentTraces counts hot-tier trace shards; DemotedTraces and
	// PromotedTraces are lifetime movement counters.
	ResidentTraces int    `json:"resident_traces"`
	DemotedTraces  uint64 `json:"demoted_traces"`
	PromotedTraces uint64 `json:"promoted_traces"`
	// SegmentBackedTraces counts the resident traces whose base rows still
	// live in a segment: promoted by reference and not yet rewritten into
	// the log (SegmentInfo has the count per segment).
	SegmentBackedTraces int `json:"segment_backed_traces"`
	// ColdLookups / ColdHits / SegmentProbes / BloomSkips / FalseProbes
	// verify the one-probe-per-lookup promise:
	// SegmentProbes == ColdHits + FalseProbes.
	ColdLookups   uint64 `json:"cold_lookups"`
	ColdHits      uint64 `json:"cold_hits"`
	SegmentProbes uint64 `json:"segment_probes"`
	BloomSkips    uint64 `json:"bloom_skips"`
	FalseProbes   uint64 `json:"false_probes"`
	// ReadErrors counts sealed blocks that failed to read (I/O, CRC, or a
	// payload that does not scan). ViewTrace, TraceAsOf and writes return
	// the error; Node, Edge, Row and RowsForApp have no error result and
	// answer "absent", so this counter is where their failures show.
	ReadErrors uint64 `json:"read_errors"`
	// RemovedAtOpen counts half-sealed segment files deleted during Open.
	RemovedAtOpen int `json:"removed_at_open"`
	// SegmentsReclaimed counts sealed files deleted by segment GC: every
	// trace they held was promoted back to hot, superseded by a newer
	// segment, or dropped by shard handoff.
	SegmentsReclaimed uint64     `json:"segments_reclaimed"`
	Cache             CacheStats `json:"cache"`
}

// stats summarizes the tier. residentTraces and SegmentBackedTraces are
// supplied by the store (the tier does not see the hot graph).
func (t *tierManager) stats(residentTraces int) TieringStats {
	st := TieringStats{
		Enabled:           true,
		ResidentTraces:    residentTraces,
		DemotedTraces:     t.demoted.Load(),
		PromotedTraces:    t.promoted.Load(),
		ColdLookups:       t.coldLookups.Load(),
		ColdHits:          t.coldHits.Load(),
		SegmentProbes:     t.segmentProbes.Load(),
		BloomSkips:        t.bloomSkips.Load(),
		FalseProbes:       t.falseProbes.Load(),
		ReadErrors:        t.readErrors.Load(),
		RemovedAtOpen:     t.removedAtOpen,
		SegmentsReclaimed: t.segmentsReclaimed.Load(),
		Cache:             t.cache.stats(),
	}
	for _, s := range t.snapshotSegs() {
		st.Segments++
		st.SealedTraces += len(s.traces)
		st.SealedRows += s.nRows
		st.SealedBytes += s.size
		st.IndexBytes += s.indexBytes
	}
	return st
}
