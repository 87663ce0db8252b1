package store

// Promotion by reference: a write to a sealed trace logs one opPromote
// marker (trace, sealed version, segment) ahead of its delta, and the
// segment stays the trace's durable base until a compaction rewrites the
// resident trace into the main log. These tests pin what that asks of
// replay, segment GC, compaction's sync order, handoff scrubs and logs
// written before the marker existed.

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fsOp is one mutating filesystem operation hookFS saw; n is the byte
// count of a write.
type fsOp struct {
	kind, path string
	n          int
}

// hookFS is an op-recording FS over the real one. hook, when set, runs
// before each operation with no hookFS lock held, so it may call back
// into the store (faultfs decides under its own mutex, and as an importer
// of this package it is out of reach of an internal test anyway); once
// crashed is set every mutating operation fails, which freezes the
// directory as a power cut at that point would.
type hookFS struct {
	OSFS
	mu      sync.Mutex
	ops     []fsOp
	hook    func(fsOp)
	crashed atomic.Bool
}

var errHookCrash = errors.New("hookFS: crashed")

func (f *hookFS) step(kind, path string, n int) error {
	if f.crashed.Load() {
		return errHookCrash
	}
	op := fsOp{kind, path, n}
	if f.hook != nil {
		f.hook(op)
	}
	f.mu.Lock()
	f.ops = append(f.ops, op)
	f.mu.Unlock()
	return nil
}

func (f *hookFS) recorded() []fsOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fsOp(nil), f.ops...)
}

func (f *hookFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.crashed.Load() {
		return nil, errHookCrash
	}
	inner, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: inner, fs: f, path: name}, nil
}

func (f *hookFS) Rename(oldpath, newpath string) error {
	if err := f.step("rename", newpath, 0); err != nil {
		return err
	}
	return f.OSFS.Rename(oldpath, newpath)
}

func (f *hookFS) Remove(name string) error {
	if err := f.step("remove", name, 0); err != nil {
		return err
	}
	return f.OSFS.Remove(name)
}

func (f *hookFS) SyncDir(dir string) error {
	if err := f.step("syncdir", dir, 0); err != nil {
		return err
	}
	return f.OSFS.SyncDir(dir)
}

type hookFile struct {
	File
	fs   *hookFS
	path string
}

func (w *hookFile) Write(p []byte) (int, error) {
	if err := w.fs.step("write", w.path, len(p)); err != nil {
		return 0, err
	}
	return w.File.Write(p)
}

func (w *hookFile) Sync() error {
	if err := w.fs.step("sync", w.path, 0); err != nil {
		return err
	}
	return w.File.Sync()
}

// logEntries reads every intact entry of the main log.
func logEntries(t testing.TB, dir string) []entry {
	t.Helper()
	var out []entry
	if _, err := replayLog(OSFS{}, logPath(dir), func(e entry) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// appendFrames appends raw frame bytes to the main log of a closed store.
func appendFrames(t testing.TB, dir string, frames []byte) {
	t.Helper()
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionWritesOneMarker: the late event costs its own bytes. The
// log gains exactly one marker frame and the delta, none of the sealed
// rows, and the tier reports the segment as the trace's base.
func TestPromotionWritesOneMarker(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 6) // ver 8
	seedTrace(t, s, "B", 1)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	delta := mkReq("r-A-late", "A", "REQ-A-LATE")
	if err := s.PutNode(delta); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	marker := entry{op: opPromote, app: "A", gen: 8, seg: 1}
	want := len(frameBytes(marker)) + len(commitFrame(nodeRec(opPutNode, delta)))
	if got := int(after.Size() - before.Size()); got != want {
		t.Fatalf("promotion + delta grew the log by %d bytes, want %d (marker %d)", got, want, len(frameBytes(marker)))
	}
	if n := len(frameBytes(marker)); n > 48 {
		t.Fatalf("marker frame is %d bytes", n)
	}
	var forA []entry
	for _, e := range logEntries(t, dir) {
		if e.app == "A" {
			forA = append(forA, e)
		}
	}
	if len(forA) != 2 || !reflect.DeepEqual(forA[0], marker) || forA[1].node.ID != "r-A-late" {
		t.Fatalf("log entries for A = %+v, want the marker then the delta", forA)
	}
	ti := s.Tiering()
	if ti.PromotedTraces != 1 || ti.SegmentBackedTraces != 1 {
		t.Fatalf("tiering = %+v, want 1 promoted, 1 segment-backed", ti)
	}
	if segs := s.Segments(); len(segs) != 1 || segs[0].SegmentBackedTraces != 1 {
		t.Fatalf("segments = %+v, want segment 1 backing one resident trace", segs)
	}
	// A rewrite puts A's rows into the main log; only then is the segment
	// (which holds nothing else) dead.
	if n := s.GCSegments(); n != 0 {
		t.Fatalf("GC reclaimed %d segments while a marker names one", n)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if ti := s.Tiering(); ti.SegmentBackedTraces != 0 || ti.Segments != 0 || ti.SegmentsReclaimed != 1 {
		t.Fatalf("after the rewrite tiering = %+v, want no base, no segment", ti)
	}
	for _, e := range logEntries(t, dir) {
		if e.op == opPromote {
			t.Fatalf("rewritten log still carries a marker: %+v", e)
		}
	}
}

// promoteDuringCompaction opens a store on a hookFS, seals B, and runs a
// Compact during which — at the rewrite's own sync, when no store lock is
// held — a late write promotes B, so the marker lands in the side log.
// crashAt, when non-empty, names the operation ("sync2": the phase-3 sync
// of the rewrite; "rename": right after the commit point) at which the
// filesystem dies.
func promoteDuringCompaction(t *testing.T, dir, crashAt string) (*Store, *hookFS) {
	t.Helper()
	fsys := &hookFS{}
	s := tierStore(t, dir, func(o *Options) { o.FS = fsys; o.Sync = true })
	seedTrace(t, s, "B", 2) // ver 4
	seedTrace(t, s, "H", 2) // stays hot
	if err := s.DemoteTraces("B"); err != nil {
		t.Fatal(err)
	}
	tmp, syncs := tmpLogPath(dir), 0
	fsys.hook = func(op fsOp) {
		switch {
		case op.kind == "sync" && op.path == tmp:
			syncs++
			if syncs == 1 {
				// Commits inside the hook prove the point: were logMu held
				// across this sync, they would deadlock.
				if err := s.PutNode(mkReq("r-B-late", "B", "REQ-B-LATE")); err != nil {
					t.Errorf("promotion during compaction: %v", err)
				}
			} else if crashAt == "sync2" {
				fsys.crashed.Store(true)
			}
		case op.kind == "syncdir" && crashAt == "rename" && syncs == 2:
			fsys.crashed.Store(true) // the first operation after the rename
		}
	}
	err := s.Compact()
	fsys.hook = nil
	if (err != nil) != (crashAt != "") {
		t.Fatalf("Compact with crash at %q: %v", crashAt, err)
	}
	return s, fsys
}

// TestSegmentGCKeepsPromotionBase: a trace promoted between freezeLog and
// the rename is hot at a version above its sealed copy, but the rewritten
// log holds only its marker. That compaction's GC must keep the segment;
// the next one, whose rewrite carries the rows, reclaims it.
func TestSegmentGCKeepsPromotionBase(t *testing.T) {
	dir := t.TempDir()
	s, _ := promoteDuringCompaction(t, dir, "")
	if got := s.TraceVersion("B"); got != 5 {
		t.Fatalf("B version = %d, want 5", got)
	}
	ti := s.Tiering()
	if ti.Segments != 1 || ti.SegmentsReclaimed != 0 || ti.SegmentBackedTraces != 1 {
		t.Fatalf("after the compaction B was promoted in: %+v, want its segment kept", ti)
	}
	var marker *entry
	for _, e := range logEntries(t, dir) {
		if e.op == opPromote {
			e := e
			marker = &e
		}
	}
	if marker == nil || marker.app != "B" || marker.seg != 1 || marker.gen != 4 {
		t.Fatalf("folded main log marker = %+v, want B from segment 1 at version 4", marker)
	}
	fp := traceFingerprint(t, s, "B")

	// A restart here replays the marker out of the kept segment.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := tierStore(t, dir, nil)
	if got := traceFingerprint(t, s2, "B"); !reflect.DeepEqual(got, fp) {
		t.Fatalf("restart diverged:\nbefore %v\nafter  %v", fp, got)
	}
	if ti := s2.Tiering(); ti.SegmentBackedTraces != 1 {
		t.Fatalf("replayed marker left no base note: %+v", ti)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if ti := s2.Tiering(); ti.Segments != 0 || ti.SegmentsReclaimed != 1 || ti.SegmentBackedTraces != 0 {
		t.Fatalf("next compaction did not reclaim the base: %+v", ti)
	}
	if got := traceFingerprint(t, s2, "B"); !reflect.DeepEqual(got, fp) {
		t.Fatalf("B changed when its base was reclaimed:\nbefore %v\nafter  %v", fp, got)
	}
}

// TestCompactSyncsRewriteOutsideLock pins the order of compaction's
// syncs: the scratch file is synced once at the end of phase 2 — with no
// store lock held, so a commit completes inside that very call — and the
// sync under logMu covers only what phase 3 appended: the side log's
// frames.
func TestCompactSyncsRewriteOutsideLock(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{}
	s := tierStore(t, dir, func(o *Options) { o.FS = fsys; o.Sync = true })
	for _, app := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		seedTrace(t, s, app, 12)
	}
	tmp, fired := tmpLogPath(dir), false
	fsys.hook = func(op fsOp) {
		if op.kind != "sync" || op.path != tmp || fired {
			return
		}
		fired = true
		// One write to a trace that stays hot, one to the trace the
		// compaction demoted before its rewrite (promoted by a marker).
		if err := s.PutNode(mkReq("r-A-mid", "A", "REQ-A-MID")); err != nil {
			t.Errorf("commit during the rewrite's sync: %v", err)
		}
		if err := s.PutNode(mkReq("r-D-mid", "D", "REQ-D-MID")); err != nil {
			t.Errorf("commit during the rewrite's sync: %v", err)
		}
	}
	start := len(fsys.recorded())
	if err := s.DemoteTraces("D"); err != nil {
		t.Fatal(err)
	}
	fsys.hook = nil

	var beforeSync, underLock, side, tmpSyncs int
	renamed := false
	for _, op := range fsys.recorded()[start:] {
		switch {
		case op.kind == "write" && op.path == tmp && tmpSyncs == 0:
			beforeSync += op.n
		case op.kind == "write" && op.path == tmp:
			underLock += op.n
		case op.kind == "write" && strings.Contains(op.path, ".side."):
			side += op.n
		case op.kind == "sync" && op.path == tmp:
			if renamed {
				t.Fatal("scratch file synced after its rename")
			}
			tmpSyncs++
		case op.kind == "rename" && op.path == logPath(dir):
			renamed = true
		}
	}
	if !fired || !renamed || tmpSyncs != 2 {
		t.Fatalf("fired=%v renamed=%v scratch syncs=%d, want 2 (end of phase 2, phase 3)", fired, renamed, tmpSyncs)
	}
	side -= len(logMagic)
	if side <= 0 || underLock > side {
		t.Fatalf("%d bytes synced under logMu; the side log holds %d", underLock, side)
	}
	if beforeSync < 4*underLock {
		t.Fatalf("phase 2 synced %d bytes, phase 3 %d: the rewrite still drains under the lock", beforeSync, underLock)
	}
	if got := s.TraceVersion("D"); got != 15 {
		t.Fatalf("D version = %d, want 15", got)
	}
}

// TestPromotionCrashPoints: every place a by-reference promotion can be
// cut recovers to the sealed trace with or without its delta, never to a
// partial one, and the store stays writable with exact versions.
func TestPromotionCrashPoints(t *testing.T) {
	recovered := func(t *testing.T, dir string, wantLate bool) {
		t.Helper()
		s := tierStore(t, dir, nil)
		fp := traceFingerprint(t, s, "B")
		wantVer := "4"
		if wantLate {
			wantVer = "5"
		}
		if fp["ver"] != wantVer || fp["view-ver"] != wantVer || fp["node:r-B-0"] == "" || fp["edge:e-B"] == "" ||
			(fp["node:r-B-late"] != "") != wantLate {
			t.Fatalf("recovered B = %v, want version %s, late write %v", fp, wantVer, wantLate)
		}
		if err := s.PutNode(mkReq("r-B-fresh", "B", "REQ-B-FRESH")); err != nil {
			t.Fatal(err)
		}
		want := traceFingerprint(t, s, "B")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := tierStore(t, dir, nil)
		if got := traceFingerprint(t, s2, "B"); !reflect.DeepEqual(got, want) {
			t.Fatalf("close/reopen diverged:\nfirst  %v\nsecond %v", want, got)
		}
		if err := s2.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := traceFingerprint(t, s2, "B"); !reflect.DeepEqual(got, want) {
			t.Fatalf("compaction after recovery diverged:\nbefore %v\nafter  %v", want, got)
		}
	}

	sealedB := func(t *testing.T) string {
		dir := t.TempDir()
		s := tierStore(t, dir, nil)
		seedTrace(t, s, "B", 2)
		seedTrace(t, s, "H", 2)
		if err := s.DemoteTraces("B"); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	marker := frameBytes(entry{op: opPromote, app: "B", gen: 4, seg: 1})
	delta := commitFrame(nodeRec(opPutNode, mkReq("r-B-late", "B", "REQ-B-LATE")))

	t.Run("marker torn", func(t *testing.T) {
		dir := sealedB(t)
		appendFrames(t, dir, marker[:len(marker)-3])
		recovered(t, dir, false)
	})
	t.Run("marker durable, delta torn", func(t *testing.T) {
		dir := sealedB(t)
		appendFrames(t, dir, append(append([]byte(nil), marker...), delta[:len(delta)/2]...))
		s := tierStore(t, dir, nil)
		if ti := s.Tiering(); ti.ResidentTraces != 2 || ti.SegmentBackedTraces != 1 || s.Durability().ReplayDroppedBytes == 0 {
			t.Fatalf("tiering = %+v, dropped %d: want B resident from its segment and the torn delta cut", ti, s.Durability().ReplayDroppedBytes)
		}
		s.Close()
		recovered(t, dir, false)
	})
	t.Run("marker and delta durable", func(t *testing.T) {
		dir := sealedB(t)
		appendFrames(t, dir, append(append([]byte(nil), marker...), delta...))
		recovered(t, dir, true)
	})
	t.Run("promoted in the side log, crash before the rename", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := promoteDuringCompaction(t, dir, "sync2")
		s.Close()
		if gens, _ := sideLogGens(OSFS{}, dir); len(gens) == 0 {
			t.Fatal("no side log survived the aborted compaction")
		}
		recovered(t, dir, true)
	})
	t.Run("promoted in the side log, crash between the rename and GC", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := promoteDuringCompaction(t, dir, "rename")
		s.Close()
		if _, err := os.Stat(segmentPath(dir, 1)); err != nil {
			t.Fatalf("the marker's segment: %v", err)
		}
		recovered(t, dir, true)
	})
}

// TestOpenFailsOnUnreadablePromotionBase: the rows behind a marker exist
// nowhere but in the segment it names. When they cannot be read, Open
// says so — naming segment and block — instead of serving the deltas as
// a trace.
func TestOpenFailsOnUnreadablePromotionBase(t *testing.T) {
	promoted := func(t *testing.T) (dir, segPath string) {
		dir = t.TempDir()
		s := tierStore(t, dir, nil)
		seedTrace(t, s, "A", 3)
		if err := s.DemoteTraces("A"); err != nil {
			t.Fatal(err)
		}
		if err := s.PutNode(mkReq("r-A-late", "A", "REQ-A-LATE")); err != nil {
			t.Fatal(err)
		}
		segPath = s.Segments()[0].Path
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, segPath
	}
	openErr := func(t *testing.T, o Options, want ...string) {
		t.Helper()
		s, err := Open(o)
		if err == nil {
			s.Close()
			t.Fatal("Open served a promoted trace without its base")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("Open error %q does not name %q", err, w)
			}
		}
	}

	t.Run("bit flip in the referenced block", func(t *testing.T) {
		dir, segPath := promoted(t)
		f, err := os.OpenFile(segPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		// Block 0's payload follows the 8-byte magic and its frame header.
		if _, err := f.ReadAt(b[:], 16+40); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b[:], 16+40); err != nil {
			t.Fatal(err)
		}
		f.Close()
		openErr(t, Options{Dir: dir, Model: testModel(t)}, segPath, "block 0")
	})
	t.Run("segment file gone", func(t *testing.T) {
		dir, segPath := promoted(t)
		if err := os.Remove(segPath); err != nil {
			t.Fatal(err)
		}
		openErr(t, Options{Dir: dir, Model: testModel(t)}, segPath, "trace A")
	})
	t.Run("tiering disabled", func(t *testing.T) {
		dir, _ := promoted(t)
		openErr(t, Options{Dir: dir, Model: testModel(t), DisableTiering: true}, "trace A", "segment 1")
	})
	t.Run("intact", func(t *testing.T) {
		dir, _ := promoted(t)
		s := tierStore(t, dir, nil)
		if got := s.TraceVersion("A"); got != 6 {
			t.Fatalf("A version = %d, want 6", got)
		}
	})
}

// TestPromotionThenDropReplaysCleanly: a handoff tombstone behind the
// marker excuses the missing base — the scrub that follows DropTraces is
// what removed the sealed copy — whether the scrub rewrote the segment
// around a survivor or deleted it outright.
func TestPromotionThenDropReplaysCleanly(t *testing.T) {
	for _, tc := range []struct {
		name      string
		survivors []string
	}{{"segment rewritten around a survivor", []string{"K"}}, {"segment deleted", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := tierStore(t, dir, nil)
			seedTrace(t, s, "A", 2)
			seedTrace(t, s, "H", 1)
			for _, k := range tc.survivors {
				seedTrace(t, s, k, 2)
			}
			if err := s.DemoteTraces(append([]string{"A"}, tc.survivors...)...); err != nil {
				t.Fatal(err)
			}
			if err := s.PutNode(mkReq("r-A-late", "A", "REQ-A-LATE")); err != nil {
				t.Fatal(err)
			}
			if err := s.PutEdge(mkSubmitter("e-A-late", "A", "p-A", "r-A-late")); err != nil {
				t.Fatal(err)
			}
			if err := s.DropTraces("A"); err != nil {
				t.Fatal(err)
			}
			if ti := s.Tiering(); ti.SegmentBackedTraces != 0 || ti.Segments != len(tc.survivors) {
				t.Fatalf("after the drop: %+v", ti)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := tierStore(t, dir, nil)
			if v := s2.TraceVersion("A"); v != 0 || len(s2.RowsForApp("A")) != 0 {
				t.Fatalf("dropped A came back at version %d", v)
			}
			for _, k := range append([]string{"H"}, tc.survivors...) {
				if fp := traceFingerprint(t, s2, k); fp["node:r-"+k+"-0"] == "" {
					t.Fatalf("%s lost state: %v", k, fp)
				}
			}
			// The trace can come back (a handoff in the other direction).
			seedTrace(t, s2, "A", 1)
			if v := s2.TraceVersion("A"); v != 3 {
				t.Fatalf("re-imported A version = %d, want 3", v)
			}
		})
	}
}

// TestOldFormatPromotionLogReplays: logs written before opPromote carry a
// promoted trace's sealed rows and an opTraceVer pin in front of the
// delta, all as row frames. They replay to the same rows and versions, the
// log (not the segment) is such a trace's home, and the torn form — rows
// without the pin — still loses to the complete sealed copy. Logs written
// after opPromote but before opCommit carry the marker and a row-frame
// delta, and replay the same way the new format does.
func TestOldFormatPromotionLogReplays(t *testing.T) {
	sealed := func(t *testing.T) (dir string, base []byte, want map[string]string) {
		dir = t.TempDir()
		s := tierStore(t, dir, nil)
		seedTrace(t, s, "A", 3) // ver 5
		seedTrace(t, s, "H", 1)
		if err := s.DemoteTraces("A"); err != nil {
			t.Fatal(err)
		}
		seg, tr, ok := s.coldLookup("A", 0)
		if !ok {
			t.Fatal("A not sealed")
		}
		st, err := s.tier.sealed(seg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range renderTrace(st.nodes, st.edges) {
			op := opPutNode
			if r.Class == "relation" {
				op = opPutEdge
			}
			base = append(base, rowFrame(op, r)...)
		}
		want = traceFingerprint(t, s, "A")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, base, want
	}
	pin := frameBytes(entry{op: opTraceVer, app: "A", gen: 5})
	late := mkReq("r-A-late", "A", "REQ-A-LATE")
	delta := rowFrame(opPutNode, nodeRow(late))
	withLate := func(want map[string]string) map[string]string {
		want["ver"], want["view-ver"] = "6", "6"
		want["row:r-A-late"] = nodeRow(late).Class + "|" + nodeRow(late).XML
		want["node:r-A-late"] = "jobRequisition|REQ-A-LATE"
		return want
	}

	t.Run("marker then row frame", func(t *testing.T) {
		dir, _, want := sealed(t)
		appendFrames(t, dir, append(frameBytes(entry{op: opPromote, app: "A", gen: 5, seg: 1}), delta...))
		s := tierStore(t, dir, nil)
		if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, withLate(want)) {
			t.Fatalf("marker + row-frame log replayed to\n%v\nwant\n%v", got, want)
		}
		if ti := s.Tiering(); ti.SegmentBackedTraces != 1 {
			t.Fatalf("tiering = %+v: the marker makes the segment A's base", ti)
		}
	})
	t.Run("complete", func(t *testing.T) {
		dir, base, want := sealed(t)
		appendFrames(t, dir, append(append(base, pin...), delta...))
		s := tierStore(t, dir, nil)
		got := traceFingerprint(t, s, "A")
		want = withLate(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("old-format log replayed to\n%v\nwant\n%v", got, want)
		}
		if ti := s.Tiering(); ti.ResidentTraces != 2 || ti.SegmentBackedTraces != 0 {
			t.Fatalf("tiering = %+v: the re-logged rows make the log A's home", ti)
		}
		if n := s.GCSegments(); n != 1 {
			t.Fatalf("GC reclaimed %d segments, want the re-logged trace's", n)
		}
		if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, want) {
			t.Fatalf("A changed when its stale segment went:\n%v", got)
		}
	})
	t.Run("torn before the pin", func(t *testing.T) {
		dir, base, want := sealed(t)
		first := len(rowFrame(opPutNode, nodeRow(mkReq("r-A-0", "A", "REQ-A-0"))))
		appendFrames(t, dir, base[:first+first/2])
		s := tierStore(t, dir, nil)
		if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, want) {
			t.Fatalf("torn old-format promotion recovered to\n%v\nwant the sealed copy\n%v", got, want)
		}
		if ti := s.Tiering(); ti.ResidentTraces != 1 {
			t.Fatalf("the partial hot shard survived: %+v", ti)
		}
	})
}

// TestTraceEntryCodec: the three trace-naming entries round-trip through
// their payload, a marker is about 40 bytes framed, and a payload cut
// anywhere is rejected rather than read as a shorter trace ID.
func TestTraceEntryCodec(t *testing.T) {
	for _, e := range []entry{
		{op: opTraceVer, app: "hiring-000123", gen: 17},
		{op: opTraceDrop, app: "", gen: 1 << 40},
		{op: opPromote, app: "hiring-000123", gen: 17, seg: 9},
		{op: opPromote, app: "acme::種類", gen: 1, seg: 1<<63 + 5},
	} {
		p := appendEntry(nil, e)
		got, err := decodeEntry(p)
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", e, got, err)
		}
		for cut := 1; cut < len(p); cut++ {
			if short, err := decodeEntry(p[:cut]); err == nil {
				t.Fatalf("%+v cut to %d of %d bytes decoded as %+v", e, cut, len(p), short)
			}
		}
		if _, err := decodeEntry(append(p, 0)); err == nil {
			t.Fatalf("%+v with a trailing byte decoded", e)
		}
	}
	if n := len(frameBytes(entry{op: opPromote, app: "hiring-000123", gen: 17, seg: 9})); n != 42 {
		t.Fatalf("marker frame for a 13-byte trace ID is %d bytes, want 42", n)
	}
}

// BenchmarkReopenPromoted times Open of an image on which a quarter of
// the sealed traces took a late event since the last compaction: 512
// thirteen-record traces sealed at the default block size, 128 promoted.
// Replay restores each from the segment its marker names (a block read
// and a scan per trace, shared through the block cache) where the log
// used to carry the rows; ms/open and the log's size are the numbers
// EXPERIMENTS.md E19 quotes.
func BenchmarkReopenPromoted(b *testing.B) {
	dir := b.TempDir()
	s := tierStore(b, dir, nil)
	apps := make([]string, 512)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%03d", i)
		seedTrace(b, s, apps[i], 11)
	}
	if err := s.DemoteTraces(apps...); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(apps); i += 4 {
		if err := s.PutNode(mkReq("late-"+apps[i], apps[i], "REQ-LATE")); err != nil {
			b.Fatal(err)
		}
	}
	if got := s.Tiering().PromotedTraces; got != 128 {
		b.Fatalf("promoted %d traces, want 128", got)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(logPath(dir))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Dir: dir, Model: testModel(b)})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Stats().ResidentTraces; got != 128 {
			b.Fatalf("reopened with %d resident traces, want 128", got)
		}
		s.Close()
	}
	b.ReportMetric(float64(st.Size()), "log-bytes")
}

// BenchmarkReopenPlain times Open of a compacted, all-resident image of
// 1,500 thirteen-record traces: replay of the rewritten main log alone, no
// segment touched. ms/open and the log's size are the numbers EXPERIMENTS.md
// E21 quotes for the commit-frame format against the row frames it
// replaced.
func BenchmarkReopenPlain(b *testing.B) {
	dir := b.TempDir()
	s := tierStore(b, dir, nil)
	for i := 0; i < 1500; i++ {
		seedTrace(b, s, fmt.Sprintf("hiring-%06d", i), 11)
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(logPath(dir))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Dir: dir, Model: testModel(b)})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Stats().ResidentTraces; got != 1500 {
			b.Fatalf("reopened with %d resident traces, want 1500", got)
		}
		s.Close()
	}
	b.ReportMetric(float64(st.Size()), "log-bytes")
}
