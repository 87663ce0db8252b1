package store_test

// Power-cut sweep of the demotion ordering. Demotion writes its segment
// without an fsync and commits its markers; the log keeps the demoted
// records until the next rewrite, which fsyncs the segment and the
// segments directory before its rename drops them. The sweep cuts the
// power at every mutating filesystem operation of a demotion by marker, a
// promotion out of the fresh segment, a forced rewrite and a promotion
// after it (faultfs.PowerCut: each file keeps only its synced bytes, and a
// file created since its directory's last SyncDir vanishes), then reopens
// the directory. Every acknowledged record must read back with the rows
// and trace version the writer saw, and Open must never fail: a power cut
// corrupts no segment a rewrite made durable.

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

var powerCutApps = []string{"A0", "A1", "A2", "H"}

// powerCutOptions are the options every store of the sweep opens with: a
// synced log, and a periodic compaction that demotes traces idle for two
// commits.
func powerCutOptions(t testing.TB, dir string, fs store.FS) store.Options {
	return store.Options{Dir: dir, Model: crashModel(t), Sync: true, FS: fs, SegmentColdAfter: 2}
}

// powerCutSeed writes the traces the script starts from, H last so that
// only the A traces are cold, on the real filesystem: the sweep is about
// the demotion, not about a store's first files.
func powerCutSeed(t *testing.T, dir string) {
	t.Helper()
	s, err := store.Open(powerCutOptions(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range powerCutApps {
		for j := 0; j < 2; j++ {
			if err := s.PutNode(crashReq(fmt.Sprintf("n%d-%d", i, j), app, fmt.Sprintf("REQ%d-%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// powerCutScript demotes the A traces by marker, promotes A0 out of the
// segment nothing has synced yet, forces a rewrite, and promotes A1 out of
// the segment the rewrite made durable.
func powerCutScript() []scriptOp {
	put := func(id, app string) scriptOp {
		return scriptOp{mutating: true, do: func(s *store.Store) error {
			return s.PutNode(crashReq(id, app, "REQ-"+id))
		}}
	}
	return []scriptOp{
		{do: func(s *store.Store) error { return s.Compact() }},
		put("h1", "H"),
		put("a0", "A0"),
		{do: func(s *store.Store) error { return s.DemoteTraces() }},
		put("a1", "A1"),
	}
}

// powerCutFingerprint is every trace's version and rows, as the
// tier-transparent read paths serve them.
func powerCutFingerprint(t testing.TB, s *store.Store) string {
	t.Helper()
	var b strings.Builder
	for _, app := range powerCutApps {
		fmt.Fprintf(&b, "%s v%d\n", app, s.TraceVersion(app))
		for _, r := range s.RowsForApp(app) {
			fmt.Fprintf(&b, "  %s %s %s\n", r.ID, r.Class, r.XML)
		}
	}
	return b.String()
}

func TestDemotionPowerCutSweep(t *testing.T) {
	ops := powerCutScript()

	// Model: the fingerprint after every mutating prefix, from a store
	// seeded alike and never demoted.
	var mutating []scriptOp
	for _, op := range ops {
		if op.mutating {
			mutating = append(mutating, op)
		}
	}
	var model []string
	for k := 0; k <= len(mutating); k++ {
		dir := t.TempDir()
		powerCutSeed(t, dir)
		s, err := store.Open(store.Options{Dir: dir, Model: crashModel(t)})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range mutating[:k] {
			if err := op.do(s); err != nil {
				t.Fatal(err)
			}
		}
		model = append(model, powerCutFingerprint(t, s))
		s.Close()
	}

	// A clean run on a recording FS numbers the operations and finds the
	// two windows the ordering is about.
	dir := t.TempDir()
	powerCutSeed(t, dir)
	var seen []faultfs.Op
	s, err := store.Open(powerCutOptions(t, dir, faultfs.New(func(op faultfs.Op) faultfs.Fault {
		seen = append(seen, op)
		return faultfs.None
	})))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.do(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, segDir, logFile := filepath.Join(dir, "segments", "seg-00000001.seg"), filepath.Join(dir, "segments"), filepath.Join(dir, "provenance.log")
	var sealed, dirSynced, renamed int // 1-based operation numbers
	for _, op := range seen {
		switch {
		case sealed == 0 && op.Kind == faultfs.OpWrite && op.Path == seg:
			sealed = op.N
		case op.Kind == faultfs.OpSyncDir && op.Path == segDir:
			dirSynced = op.N
		case op.Kind == faultfs.OpRename && op.Path == logFile:
			renamed = op.N
		}
	}
	if !(0 < sealed && sealed < dirSynced && dirSynced < renamed) {
		t.Fatalf("seal at op %d, segments dir synced at %d, log renamed at %d: want them in that order", sealed, dirSynced, renamed)
	}

	for point := 1; point <= len(seen); point++ {
		t.Run(fmt.Sprintf("cut-at-%d", point), func(t *testing.T) {
			dir := t.TempDir()
			powerCutSeed(t, dir)
			committed := 0
			// Open's own clean-up may be where the power goes.
			if s, err := store.Open(powerCutOptions(t, dir, faultfs.New(faultfs.PowerCutAt(point)))); err == nil {
				for _, op := range ops {
					if err := op.do(s); err != nil {
						break
					}
					if op.mutating {
						committed++
					}
				}
				s.Close() // errors after the cut are expected
			}

			s2, err := store.Open(powerCutOptions(t, dir, nil))
			if err != nil {
				t.Fatalf("Open after the power cut: %v", err)
			}
			defer s2.Close()
			got := powerCutFingerprint(t, s2)
			if got != model[committed] && (committed+1 >= len(model) || got != model[committed+1]) {
				t.Fatalf("recovered state matches neither the %d acknowledged writes nor one more:\n%s", committed, got)
			}
			ti := s2.Tiering()
			switch {
			case sealed < point && point <= dirSynced:
				// Sealed, never synced: the segment is gone, and the log
				// keeps every trace resident.
				if ti.Segments != 0 || ti.ResidentTraces != len(powerCutApps) {
					t.Fatalf("cut before the segment reached the device: %+v, want no segment, every trace resident", ti)
				}
			case dirSynced < point && point <= renamed:
				// Mid-rewrite, after the segment sync: the old log's markers
				// find it whole, and A1 and A2 stay sealed.
				if ti.Segments != 1 || ti.ResidentTraces != 2 {
					t.Fatalf("cut after the segment sync: %+v, want the segment, A1 and A2 sealed in it", ti)
				}
			}
			// Writable, one version per write, whichever tier each trace
			// recovered into.
			for _, app := range powerCutApps {
				before := s2.TraceVersion(app)
				if err := s2.PutNode(crashReq("fresh-"+app, app, "REQ-fresh")); err != nil {
					t.Fatalf("write to %s after recovery: %v", app, err)
				}
				if v := s2.TraceVersion(app); v != before+1 {
					t.Fatalf("%s at version %d after a write, want %d", app, v, before+1)
				}
			}
		})
	}
	t.Logf("%d cut points: seal at %d, segments dir synced at %d, log renamed at %d", len(seen), sealed, dirSynced, renamed)
}

// TestFreshStorePowerCut opens a store on an empty directory, acknowledges
// one PutNode and cuts the power at the next filesystem operation. The
// node must read back: the commit that fsynced the new log's first frames
// also synced the directory holding its name.
func TestFreshStorePowerCut(t *testing.T) {
	dir := t.TempDir()
	var cutAt atomic.Int64 // 0: no cut planned
	fs := faultfs.New(func(op faultfs.Op) faultfs.Fault {
		if n := cutAt.Load(); n > 0 && int64(op.N) >= n {
			return faultfs.PowerCut
		}
		return faultfs.None
	})
	s, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), Sync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(crashReq("n1", "A", "REQ-1")); err != nil {
		t.Fatal(err)
	}
	cut := fs.Ops() + 1
	cutAt.Store(int64(cut))
	s.Close() // its fsync is where the power goes
	if fs.Ops() != cut {
		t.Fatalf("the FS saw %d operations, want the cut at %d", fs.Ops(), cut)
	}

	s2, err := store.Open(store.Options{Dir: dir, Model: crashModel(t)})
	if err != nil {
		t.Fatalf("Open after the power cut: %v", err)
	}
	defer s2.Close()
	if s2.Node("n1") == nil || s2.TraceVersion("A") != 1 {
		t.Fatalf("the acknowledged node is gone after the power cut (trace A at version %d)", s2.TraceVersion("A"))
	}
}
