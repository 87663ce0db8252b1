package store

import (
	"fmt"
	"os"
	"strings"
)

// Segment GC: compaction deletes sealed seg-*.seg files none of whose
// trace copies are live anymore. A segment an opPromote marker in the
// current log names is live whatever its copies look like
// (tierManager.pins): replay restores the marker's trace from it, even if
// the trace was demoted into a newer segment since. Promotion writes such a
// marker, not the records, so the segment stays pinned until a log rewrite
// drops the marker. In any other segment a sealed copy is dead when
//
//   - the trace is hot-resident at a version >= the sealed one: the log
//     holds its records (a write landed between the seal and the demotion
//     marker, or a rewrite since its promotion put them there); or
//   - a newer segment holds a copy at a version >= the sealed one
//     (demoted again after a promotion — the newest-first read path
//     never reaches the old copy), or
//   - the trace was tombstoned by shard handoff at or after the
//     segment's seal point.
//
// Deleting a dead segment also deletes its older as-of versions: GC
// trades point-in-time audit depth for space. Operators who need full
// as-of retention run with DisableSegmentGC (provd -no-segment-gc).
//
// Crash safety: a reclaimable segment is redundant by definition, so
// deletion at any moment (or a crash between deletions) leaves every
// trace readable from its live home. Readers holding the previous
// segment list degrade to a bloom false probe on the vanished file,
// which lookup paths already tolerate.

// gcSegmentsLocked scans the cold tier and deletes fully-dead segments.
// Caller holds compactMu (so no seal races the scan). Returns the number
// of files reclaimed.
//
// The hot versions come from the working graph, not a snapshot, so a
// commit applied but not yet published counts. Working state is safe to
// judge by: a promotion pins its segment when its marker is staged, before
// the trace becomes resident, and a rewrite unpins only the markers of the
// files it replaced — a trace promoted between its freeze and its rename
// keeps its segment.
func (s *Store) gcSegmentsLocked() int {
	t := s.tier
	if t == nil {
		return 0
	}
	hotVer := map[string]uint64{}
	s.mu.RLock()
	for _, app := range s.graph.AppIDs() {
		hotVer[app] = s.graph.TraceVersion(app)
	}
	s.mu.RUnlock()
	pinned := t.pinned()
	drops := t.pendingDrops()
	segs := t.snapshotSegs()
	reclaimed := 0
	for i, seg := range segs {
		if pinned[seg.id] {
			continue
		}
		dead := true
		for _, tr := range seg.traces {
			if ds := drops[tr.App]; ds != 0 && seg.sealSeq <= ds {
				continue // handoff tombstone
			}
			if hv, ok := hotVer[tr.App]; ok && hv >= tr.Ver {
				continue // the log holds its records
			}
			if newerSegmentHolds(segs[i+1:], tr.App, tr.Ver) {
				continue // superseded by a later demotion
			}
			dead = false
			break
		}
		if !dead {
			continue
		}
		t.unregister(seg.id)
		t.cache.dropSegment(seg.id)
		if err := s.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			// The file outlives its registration; harmless (it is
			// redundant). Open registers it again, and the GC pass of the
			// next compaction after that reclaims it.
			continue
		}
		t.segmentsReclaimed.Add(1)
		reclaimed++
	}
	return reclaimed
}

// newerSegmentHolds reports whether any of the (strictly newer) segments
// carries a copy of app at version >= ver.
func newerSegmentHolds(newer []*segment, app string, ver uint64) bool {
	for _, seg := range newer {
		if app < seg.minApp || app > seg.maxApp || !seg.bloomTrace.mightContain(app) {
			continue
		}
		if tr, ok := seg.findTrace(app); ok && tr.Ver >= ver {
			return true
		}
	}
	return false
}

// GCSegments runs one segment-GC pass outside a compaction (tests,
// operator tooling). Returns the number of segment files reclaimed.
func (s *Store) GCSegments() int {
	if s.tier == nil {
		return 0
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.gcSegmentsLocked()
}

// scrubDroppedLocked physically removes handoff-tombstoned trace copies
// from the cold tier: a segment whose every trace is dead is deleted, a
// partially-dead one is rewritten in place (temp file + atomic rename
// under its own ID, block cache invalidated). Tombstones are forgotten
// once no sealed copy survives. No-op without a cold tier. Caller holds
// compactMu.
func (s *Store) scrubDroppedLocked() error {
	t := s.tier
	if t == nil {
		return nil
	}
	drops := t.pendingDrops()
	if len(drops) == 0 {
		return nil
	}
	for _, seg := range t.snapshotSegs() {
		var deadCount int
		deadApps := map[string]bool{}
		for _, tr := range seg.traces {
			if ds := drops[tr.App]; ds != 0 && seg.sealSeq <= ds {
				deadApps[tr.App] = true
				deadCount++
			}
		}
		if deadCount == 0 {
			continue
		}
		if deadCount == len(seg.traces) {
			t.unregister(seg.id)
			t.cache.dropSegment(seg.id)
			if err := s.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("segment %d: %v", seg.id, err)
			}
			t.segmentsReclaimed.Add(1)
			continue
		}
		if err := s.rewriteSegmentWithout(seg, deadApps); err != nil {
			return fmt.Errorf("segment %d: %v", seg.id, err)
		}
	}
	apps := make([]string, 0, len(drops))
	for app := range drops {
		apps = append(apps, app)
	}
	t.clearDrops(apps)
	return nil
}

// rewriteSegmentWithout rebuilds one sealed segment minus the dead
// traces, preserving its ID, seal sequence and therefore its position in
// the newest-first lookup order, in the current format (a scrubbed
// format-1 segment comes out as format 2). The temp file is fully written
// and re-validated before an atomic rename replaces the original.
func (s *Store) rewriteSegmentWithout(seg *segment, dead map[string]bool) error {
	t := s.tier
	keep := make([]sealedTrace, 0, len(seg.traces)-len(dead))
	for _, tr := range seg.traces {
		if dead[tr.App] {
			continue
		}
		k, err := t.sealed(seg, tr)
		if err != nil {
			return err
		}
		keep = append(keep, k)
	}
	tmp := seg.path + ".tmp"
	if err := s.fs.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return err
	}
	if _, err := writeSegment(s.fs, tmp, seg.sealSeq, keep, s.opts.SegmentBlockBytes); err != nil {
		return err
	}
	if _, err := openSegment(s.fs, tmp, seg.id); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("validating rewrite: %v", err)
	}
	if err := s.fs.Rename(tmp, seg.path); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := syncParentDir(s.fs, seg.path); err != nil {
		return err
	}
	newSeg, err := openSegment(s.fs, seg.path, seg.id)
	if err != nil {
		// The renamed file validated moments ago; treat a re-open failure
		// as fatal for the scrub (tombstones stay, lookups stay guarded).
		return err
	}
	t.cache.dropSegment(seg.id)
	t.mu.Lock()
	for i, cur := range t.segs {
		if cur.id == seg.id {
			segs := append([]*segment(nil), t.segs...)
			segs[i] = newSeg
			t.segs = segs
			break
		}
	}
	t.mu.Unlock()
	t.segmentsReclaimed.Add(1)
	return nil
}

// cleanSegmentTmp removes leftover rewrite temp files (crash between
// writeSegment and rename); the original segment files are intact.
func cleanSegmentTmp(fsys FS, dir string) {
	names, err := fsys.ReadDir(segmentsDir(dir))
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".tmp") {
			fsys.Remove(segmentsDir(dir) + string(os.PathSeparator) + name)
		}
	}
}
