package store

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/provenance"
)

// Compact rewrites the disk log to contain exactly the current state:
// every node first, then every edge, update chains collapsed to the latest
// version, in commit frames of about commitFrameBytes. No-op for in-memory
// stores.
//
// The rewrite is crash-safe and runs concurrently with writers:
//
//  1. A brief pause under logMu (freezeLog) redirects appends to a fresh
//     side log (generation G) and loads the published snapshot pointer —
//     the snapshot IS the frozen log's content at this quiescent point.
//     The pause is a flush, a file swap and a pointer load: it does not
//     scale with store size and concurrent readers are never blocked.
//  2. With no locks held, the snapshot graph picks the traces to demote,
//     seals them, and is encoded into a scratch file headed by a marker
//     frame recording "side generations ≤ G folded", then fsynced — the
//     whole rewrite reaches the device here, while writers run.
//  3. A second brief pause folds the side log's frames into the scratch
//     file, fsyncs it (only the folded frames are still unsynced), and
//     atomically renames it over the main log — the single commit point —
//     then fsyncs the directory and cleans up.
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

// freezeLog is compaction's first critical section. At a quiescent point
// (logMu held, so no commit is mid-flight and the in-memory state equals
// the log) it redirects appends to a fresh side log of generation gen and
// returns the frozen log with the published snapshot, which holds exactly
// the frozen log's content. Nothing here walks traces: cold selection,
// version pins and every row are computed from the snapshot once the lock
// is released.
func (s *Store) freezeLog() (frozen *logWriter, snap *snapshot, gen uint64, err error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		return nil, nil, 0, errClosed
	}
	if err := s.log.flush(); err != nil {
		return nil, nil, 0, fmt.Errorf("store: compact: %v", err)
	}
	if s.opts.Sync {
		if err := s.log.syncFile(); err != nil {
			return nil, nil, 0, fmt.Errorf("store: compact: %v", err)
		}
	}
	gen = s.compactGen + 1
	sidePath := sideLogPath(s.opts.Dir, gen)
	side, err := createOrOpenLog(s.fs, sidePath, s.opts.Sync)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: compact: opening side log: %v", err)
	}
	if s.opts.Sync {
		if err := syncParentDir(s.fs, sidePath); err != nil {
			side.close()
			s.fs.Remove(sidePath)
			return nil, nil, 0, fmt.Errorf("store: compact: %v", err)
		}
	}
	frozen, s.log, s.compactGen = s.log, side, gen
	// Deferred commits must be published first so the snapshot equals the
	// frozen log.
	if s.snapDirty.Load() {
		s.forcePublishLocked()
	}
	return frozen, s.snap.Load(), gen, nil
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

	// Phase 1: freeze the current log and redirect appends to a side log.
	frozen, snap, gen, err := s.freezeLog()
	if err != nil {
		return err
	}
	// The frozen log never receives another byte; release its handle now.
	// Its file stays on disk until the rename (main) or cleanup (side).
	if err := frozen.close(); err != nil {
		return s.compactAbort(fmt.Errorf("store: compact: closing frozen log: %v", err))
	}

	// Everything the rewrite needs comes from the frozen snapshot's graph:
	// a trace's records, version and last-touch are one consistent state.
	// Cold traces are taken for sealing and stay out of the rewrite
	// (phase 3 re-checks each one's version to spot traces written during
	// the compaction); every other resident trace is pinned to its
	// freeze-time version.
	g := snap.graph
	cold := map[string]sealedTrace{}
	var pins []entry
	frozenApps := g.AppIDs()
	for _, app := range frozenApps {
		if selectCold != nil && selectCold(app, g.TraceLastTouch(app), snap.seq) {
			cold[app] = residentTrace(g, app)
		} else {
			pins = append(pins, entry{op: opTraceVer, app: app, gen: g.TraceVersion(app)})
		}
	}

	// Seal the cold traces into a new segment before the scratch log is
	// even created: the file is written, fsynced and re-validated through
	// openSegment here, so any structural failure aborts the compaction
	// while the log still holds every row. segPath is cleared once the
	// rename commits; until then every abort removes the orphan file.
	var (
		seg     *segment
		segPath string
	)
	abort := func(err error) error {
		if segPath != "" {
			fsys.Remove(segPath)
		}
		return s.compactAbort(err)
	}
	if len(cold) > 0 {
		demote := make([]sealedTrace, 0, len(cold))
		for _, tr := range cold {
			demote = append(demote, tr)
		}
		id := s.tier.allocID()
		segPath = segmentPath(dir, id)
		if _, err := writeSegment(fsys, segPath, snap.seq, demote, s.opts.SegmentBlockBytes); err != nil {
			segPath = "" // writeSegment removed its own partial file
			return abort(fmt.Errorf("store: compact: sealing segment: %v", err))
		}
		if err := syncParentDir(fsys, segPath); err != nil {
			return abort(fmt.Errorf("store: compact: fsync segments dir: %v", err))
		}
		if seg, err = openSegment(fsys, segPath, id); err != nil {
			return abort(fmt.Errorf("store: compact: validating sealed segment: %v", err))
		}
	}

	// Phase 2: encode the snapshot into the scratch file — no store locks
	// held, writers are appending to the side log in parallel.
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
	var (
		frame []byte
		enc   commitEnc
	)
	// emit writes the frames a call appended to frame[:0]. put adds a record
	// to the pending commit frame, written once enc cuts it; endRecords
	// writes what is pending.
	emit := func(b []byte, err error) error {
		frame = b
		if err != nil {
			return err
		}
		return tw.write(b)
	}
	put := func(e entry) error { return emit(enc.add(frame[:0], e)) }
	endRecords := func() error { return emit(enc.flush(frame[:0])) }
	writeEntry := func(e entry) error { return emit(appendEntryFrame(frame[:0], e), nil) }
	// Every hot node by ID, then every hot edge by ID — the order replay
	// rebuilds last-touch sequences in, which segments sealed after a
	// reopen record — then the pins. The rewrite collapsed update chains,
	// so without the pins a replay would count fewer mutations than the
	// writer acknowledged; they follow all the rewritten records and
	// precede the folded side-log deltas, which bump from the pinned value
	// — replayed versions stay exact across compaction. Cold traces are
	// excluded: their pins live in their segment (or, for changed
	// candidates, are re-logged in phase 3).
	writeHot := func() error {
		if err := writeEntry(entry{op: opCompactMark, gen: gen}); err != nil {
			return err
		}
		for _, n := range g.Nodes(provenance.NodeFilter{}) {
			if _, isCold := cold[n.AppID]; !isCold {
				if err := put(entry{op: opPutNode, app: n.AppID, node: n}); err != nil {
					return err
				}
			}
		}
		for _, e := range g.AllEdges(provenance.EdgeFilter{}) {
			if _, isCold := cold[e.AppID]; !isCold {
				if err := put(entry{op: opPutEdge, app: e.AppID, edge: e}); err != nil {
					return err
				}
			}
		}
		if err := endRecords(); err != nil {
			return err
		}
		for _, pin := range pins {
			if err := writeEntry(pin); err != nil {
				return err
			}
		}
		// Sync here, with no lock held: phase 3 syncs again under logMu,
		// and whatever this leaves for it every writer waits out.
		if err := tw.flush(); err != nil {
			return err
		}
		return tw.syncFile()
	}
	if err := writeHot(); err != nil {
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
	// copy is stale the moment it lands. The trace's base records — the
	// frozen snapshot's, which is what was sealed — re-enter the rewritten
	// log, pinned to the seal-time version, AHEAD of the side-log deltas
	// that changed it — replay then rebuilds base + pin + deltas into
	// exactly the live state.
	changed := map[string]bool{}
	s.mu.RLock()
	for app, tr := range cold {
		if s.graph.TraceVersion(app) != tr.ver {
			changed[app] = true
		}
	}
	s.mu.RUnlock()
	for app := range changed {
		var err error
		for _, e := range traceEntries(g, app) {
			if err = put(e); err != nil {
				break
			}
		}
		if err == nil {
			err = endRecords()
		}
		if err == nil {
			err = writeEntry(entry{op: opTraceVer, app: app, gen: cold[app].ver})
		}
		if err != nil {
			return cleanupTmp(fmt.Errorf("store: compact: re-logging %s: %v", app, err))
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
	if s.tier != nil {
		// Every trace of the freeze snapshot has its records in the new main
		// log (or was sealed again): no marker names a segment as its base
		// anymore. A trace promoted since the freeze keeps its note — its
		// marker is among the folded side-log frames.
		s.tier.clearBase(frozenApps...)
	}
	var retErr error
	if err := syncParentDir(fsys, logPath(dir)); err != nil {
		retErr = fmt.Errorf("store: compact: fsync dir: %v", err)
	}
	// The demotion committed with the rename: the new main log excludes
	// the unchanged cold traces, so the segment MUST serve them from here
	// on — register it and evict the hot copies before anything below can
	// fail. Register-then-evict means a concurrent reader always finds the
	// trace in at least one tier.
	if seg != nil {
		s.tier.register(seg)
		segPath = "" // committed; no longer removable by error paths
		s.mu.Lock()
		for app := range cold {
			if !changed[app] {
				s.evictTraceLocked(app)
				s.tier.demoted.Add(1)
			}
		}
		s.vacuumLocked()
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
