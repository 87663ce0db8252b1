package store

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/provenance"
)

// Compaction has two jobs, and they are separate steps:
//
//   - Demotion (demote) seals the traces a selector picks from the
//     published snapshot into a new segment — written, validated from the
//     page cache and registered, with no fsync — then commits one opDemote
//     marker per trace through the ordinary group commit, sharing an fsync
//     with whatever writers run at the same time. A marker evicts its trace
//     only if the trace is still resident at the sealed version, so a write
//     that landed between the seal and the marker keeps the trace hot.
//     Demotion costs its segment's writes and a 42-byte frame per trace: no
//     device sync of its own, no freeze, no side log, no second logMu
//     critical section.
//   - The log rewrite (rewriteLog) replaces the log with exactly the current
//     state. Demotion leaves a demoted trace's records in the log behind its
//     marker; replay applies them and the marker evicts them again, so they
//     cost restart time, not correctness. The rewrite drops them, at the
//     price of two fsyncs of the live set and a fold under logMu.
//
// The log is the segment's write-ahead log. Until a rewrite drops a demoted
// trace's records, they make the trace durable, and its segment may lose
// any of its bytes in a crash: replay lets a marker evict its trace only
// for a copy that reads back (replayAll), and Open deletes an invalid
// segment sealed since the last rewrite. The rewrite is where a segment
// becomes the only copy of its traces, so before its rename it fsyncs every
// segment sealed since the last one, then the segments directory, and
// raises the durable mark over them (tierManager.syncSealed). Open fails on
// an invalid segment at or below the mark instead of deleting it.
//
// Compact demotes by the SegmentColdAfter policy and then rewrites only
// when the rewrite is due (rewriteDue); without a demotion policy it is a
// rewrite. DemoteTraces seals the named traces and always rewrites. Segment
// GC rides every compaction.

// rewriteFloor is the smallest log a periodic compaction rewrites. Replay
// costs about 55 ms per MiB at Open (BenchmarkReopenPlain: 68 ms for a
// 1.24 MB log), which is what the dead records below the floor can cost a
// restart; a rewrite costs every compaction two fsyncs of the live set.
const rewriteFloor = 1 << 20

// Compact demotes the traces whose last mutation is at least
// SegmentColdAfter commits behind the current sequence (with the policy set)
// and rewrites the log when it is due. Without a demotion policy it
// rewrites the log. No-op for in-memory stores.
func (s *Store) Compact() error {
	if s.opts.SegmentColdAfter == 0 {
		return s.compact(nil, true)
	}
	coldAfter := s.opts.SegmentColdAfter
	return s.compact(func(app string, last, cur uint64) bool {
		return cur >= last && cur-last >= coldAfter
	}, false)
}

// DemoteTraces seals the named traces into a segment immediately,
// regardless of the SegmentColdAfter policy, and rewrites the log, so no
// record of theirs is left in it. Traces not resident in the hot tier are
// ignored.
func (s *Store) DemoteTraces(apps ...string) error {
	if s.tier == nil {
		return errors.New("store: an in-memory store has no cold tier")
	}
	want := make(map[string]bool, len(apps))
	for _, a := range apps {
		want[a] = true
	}
	return s.compact(func(app string, last, cur uint64) bool { return want[app] }, true)
}

// compact implements Compact and DemoteTraces: selectCold, when non-nil,
// picks the resident traces to demote; rewrite forces the log rewrite that
// is otherwise run only when due.
func (s *Store) compact(selectCold func(app string, last, cur uint64) bool, rewrite bool) error {
	if s.opts.Dir == "" {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if selectCold != nil {
		if err := s.demote(selectCold); err != nil {
			return err
		}
	}
	if rewrite || s.rewriteDue() {
		if err := s.rewriteLog(); err != nil {
			return err
		}
	}
	s.stats.Compactions.Add(1)
	// With the new segment (if any) registered and the hot state settled,
	// delete sealed files none of whose trace copies are live anymore.
	// compactMu is still held, so no seal races the scan.
	if !s.opts.DisableSegmentGC {
		s.gcSegmentsLocked()
	}
	return nil
}

// demote seals the resident traces selectCold picks into a new segment and
// commits their demotion markers. The segment is written and re-validated
// through openSegment before any marker names it, so a structural failure
// aborts the demotion while the log still holds every record; nothing is
// fsynced, since the log keeps those records until a rewrite has synced the
// segment. It is registered before the markers commit: the traces are still
// resident, so no read reaches it yet, and each marker's apply finds the
// copy it names. Caller holds compactMu.
func (s *Store) demote(selectCold func(app string, last, cur uint64) bool) error {
	snap := s.loadSnap()
	g := snap.graph
	var cold []sealedTrace
	for _, app := range g.AppIDs() {
		if selectCold(app, g.TraceLastTouch(app), snap.seq) {
			cold = append(cold, residentTrace(g, app))
		}
	}
	if len(cold) == 0 {
		return nil
	}
	id := s.tier.allocID()
	path := segmentPath(s.opts.Dir, id)
	if _, err := writeSegment(s.fs, path, snap.seq, cold, s.opts.SegmentBlockBytes); err != nil {
		return s.compactAbort(fmt.Errorf("store: compact: sealing segment: %v", err))
	}
	seg, err := openSegment(s.fs, path, id)
	if err != nil {
		s.fs.Remove(path)
		return s.compactAbort(fmt.Errorf("store: compact: validating sealed segment: %v", err))
	}
	s.tier.register(seg)
	markers := make([]entry, len(cold))
	for i, tr := range cold {
		markers[i] = entry{op: opDemote, app: tr.app, gen: tr.ver, seg: id}
	}
	for _, err := range s.commitAll(markers) {
		switch {
		case err == nil:
			s.tier.demoted.Add(1)
		case !errors.Is(err, errDemoteStale):
			// Nothing of the failed request applied: its traces stay hot,
			// and the segment's copies are dead for GC.
			return s.compactAbort(fmt.Errorf("store: compact: committing demotion markers: %v", err))
		}
	}
	return nil
}

// rewriteDue reports whether the log is at least rewriteFloor bytes and at
// least twice what a rewrite would write (rewriteBytes of the published
// snapshot), counted only once the floor is passed.
func (s *Store) rewriteDue() bool {
	n := s.logBytes.Load()
	return n >= rewriteFloor && n >= 2*rewriteBytes(s.loadSnap().graph)
}

// rewriteBytes is the size of the log a rewrite of g writes: its encoder
// run into a counter, with no I/O.
func rewriteBytes(g *provenance.Graph) int64 {
	n := int64(len(logMagic))
	encodeState(g, 0, func(b []byte) error {
		n += int64(len(b))
		return nil
	})
	return n
}

// encodeState writes g as a rewritten log's frames: a compaction marker of
// generation gen, then every trace in ID order, each its nodes by ID, then
// its edges by ID — a run that replay restores in one step (replayRuns) —
// in commit frames of about commitFrameBytes, then one version pin per
// trace. A trace that would carry a frame holding other traces past
// commitFrameBytes starts the next frame instead, so a frame holds whole
// traces; only a trace larger than that spans frames. The rewrite
// collapses update chains, so without the pins a replay would count fewer
// mutations than the writer acknowledged; they follow all the rewritten
// records and precede the folded side-log deltas, which bump from the
// pinned value — replayed versions stay exact across compaction.
func encodeState(g *provenance.Graph, gen uint64, write func([]byte) error) error {
	var (
		frame []byte
		enc   commitEnc
	)
	// emit writes the frames a call appended to frame[:0].
	emit := func(b []byte, err error) error {
		frame = b
		if err != nil {
			return err
		}
		return write(b)
	}
	if err := emit(appendEntryFrame(frame[:0], entry{op: opCompactMark, gen: gen}), nil); err != nil {
		return err
	}
	apps := g.AppIDs()
	for _, app := range apps {
		nodes, edges := traceRecords(g, app)
		if err := emit(enc.addTrace(frame[:0], nodes, edges)); err != nil {
			return err
		}
	}
	if err := emit(enc.flush(frame[:0])); err != nil {
		return err
	}
	for _, app := range apps {
		if err := emit(appendEntryFrame(frame[:0], entry{op: opTraceVer, app: app, gen: g.TraceVersion(app)}), nil); err != nil {
			return err
		}
	}
	return nil
}

// freezeLog is the rewrite's first critical section. At a quiescent point
// (logMu held, so no commit is mid-flight and the in-memory state equals
// the log) it redirects appends to a fresh side log of generation gen and
// returns the frozen log with the published snapshot, which holds exactly
// the frozen log's content. Nothing here walks traces.
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
		side.fresh = false
	}
	frozen, s.log, s.compactGen = s.log, side, gen
	s.logBytes.Add(side.size)
	// Deferred commits must be published first so the snapshot equals the
	// frozen log.
	if s.snapDirty.Load() {
		s.forcePublishLocked()
	}
	return frozen, s.snap.Load(), gen, nil
}

// rewriteLog rewrites the disk log to contain exactly the current state
// (encodeState), crash-safe and concurrently with writers:
//
//  1. A brief pause under logMu (freezeLog) redirects appends to a fresh
//     side log (generation G) and loads the published snapshot pointer —
//     the snapshot IS the frozen log's content at this quiescent point.
//  2. With no locks held, the snapshot is encoded into a scratch file
//     headed by a marker frame recording "side generations ≤ G folded", then
//     fsynced — the whole rewrite reaches the device here, while writers
//     run. The segments sealed since the last rewrite follow it to the
//     device (syncSealed), because the new log no longer holds the records
//     of the traces they took.
//  3. A second brief pause folds the side log's frames into the scratch
//     file, fsyncs it (only the folded frames are still unsynced), and
//     atomically renames it over the main log — the single commit point —
//     then fsyncs the directory and cleans up.
//
// A crash before the rename leaves the old main log plus the side log
// (recovery replays both, in order); a crash after it leaves the new main
// log whose marker proves the side log is stale (recovery deletes it). An
// error aborts the rewrite without data loss: the scratch file is removed
// and appends simply continue on the side log. Caller holds compactMu.
func (s *Store) rewriteLog() error {
	dir, fsys := s.opts.Dir, s.fs
	frozen, snap, gen, err := s.freezeLog()
	if err != nil {
		return err
	}
	// The frozen log never receives another byte; release its handle now.
	// Its file stays on disk until the rename (main) or cleanup (side).
	if err := frozen.close(); err != nil {
		return s.compactAbort(fmt.Errorf("store: compact: closing frozen log: %v", err))
	}
	tmp := tmpLogPath(dir)
	if err := fsys.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return s.compactAbort(fmt.Errorf("store: compact: %v", err))
	}
	tw, err := createOrOpenLog(fsys, tmp, false)
	if err != nil {
		fsys.Remove(tmp) // created-but-unwritable scratch must not linger
		return s.compactAbort(fmt.Errorf("store: compact: %v", err))
	}
	abort := func(what string, err error) error {
		tw.close()
		fsys.Remove(tmp)
		return s.compactAbort(fmt.Errorf("store: compact: %s%v", what, err))
	}
	// Sync here, with no lock held: phase 3 syncs again under logMu, and
	// whatever this leaves for it every writer waits out.
	err = encodeState(snap.graph, gen, tw.write)
	if err == nil {
		err = tw.flush()
	}
	if err == nil {
		err = tw.syncFile()
	}
	if err != nil {
		return abort("", err)
	}
	if err := s.tier.syncSealed(); err != nil {
		return abort("syncing sealed segments: ", err)
	}

	// Phase 3: fold the side log in and commit with one atomic rename.
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		tw.close()
		fsys.Remove(tmp)
		return errClosed
	}
	if err := s.log.flush(); err != nil {
		return abort("flushing side log: ", err)
	}
	if err := copyFrames(fsys, s.log.path, tw); err != nil {
		return abort("folding side log: ", err)
	}
	if err := tw.flush(); err != nil {
		return abort("", err)
	}
	if err := tw.syncFile(); err != nil {
		return abort("fsync snapshot: ", err)
	}
	if err := tw.close(); err != nil {
		return abort("", err)
	}
	if err := fsys.Rename(tmp, logPath(dir)); err != nil {
		fsys.Remove(tmp)
		return s.compactAbort(fmt.Errorf("store: compact: %v", err))
	}
	// The rename is the commit point; everything below is cleanup and must
	// leave the store coherent even on error.
	s.logBytes.Store(tw.size)
	// Every trace of the freeze snapshot has its records in the new main
	// log: no marker names a segment as its base anymore. A trace promoted
	// since the freeze keeps its pin — its marker is among the folded
	// side-log frames.
	s.tier.unpinBefore(gen)
	s.stats.LogRewrites.Add(1)
	var retErr error
	if err := syncParentDir(fsys, logPath(dir)); err != nil {
		retErr = fmt.Errorf("store: compact: fsync dir: %v", err)
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
		s.logBytes.Add(nw2.size)
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
	return retErr
}

// compactAbort records a failed compaction. Appends keep flowing to the
// side log, which recovery (and the next successful Compact) folds back
// in, so an aborted compaction never loses data.
func (s *Store) compactAbort(err error) error {
	s.stats.CompactionFailures.Add(1)
	return err
}
