package store_test

// Crash-recovery sweep for the tiered-storage layer: a script that seeds
// three traces, demotes two, promotes one back by writing to it, demotes
// again, promotes another, rewrites the log while that one's base is
// still its segment, and promotes out of the second segment — run on the
// fault-injection filesystem that kills the machine at the Nth mutating
// filesystem operation. A promotion is one marker frame buffered with its
// delta, so the torn write of that flush (faultfs keeps the first half)
// is "marker durable, delta torn"; the sweep also lands inside the
// rewrite that moves a promoted trace's rows into the log and inside the
// GC that then reclaims its segment; a multi-record request promotes a
// trace with its marker and its one commit frame in the same flush; then a
// periodic compaction demotes two traces by marker, one of them is promoted
// out of that segment, and a second periodic compaction demotes it again by
// marker, so the sweep lands between a seal and its markers and inside the
// group commit that carries them. For every N the
// recovered store must present every acknowledged record — from the hot
// tier, a sealed segment, or the log, whichever survived — with exact
// trace versions (the script has no update chains, so versions never
// collapse), and stay writable.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

var tierCrashApps = []string{"A0", "A1", "A2"}

// tierScript returns the workload; demote steps do not change the
// observable state, so only mutating steps advance the model.
func tierCrashScript() []scriptOp {
	var ops []scriptOp
	put := func(id, app, reqID string) {
		ops = append(ops, scriptOp{mutating: true, do: func(s *store.Store) error {
			return s.PutNode(crashReq(id, app, reqID))
		}})
	}
	demote := func(apps ...string) {
		ops = append(ops, scriptOp{do: func(s *store.Store) error {
			return s.DemoteTraces(apps...)
		}})
	}
	for i := 0; i < 9; i++ {
		put(fmt.Sprintf("n%d", i), tierCrashApps[i%3], fmt.Sprintf("REQ%d", i))
	}
	demote("A0", "A1")
	put("n9", "A0", "REQ9") // promotes A0 out of its fresh segment
	put("n10", "A2", "REQ10")
	demote("A0", "A2")                                 // A0's second seal supersedes its first
	put("n11", "A1", "REQ11")                          // promotes A1: the log gets a marker naming segment 1
	demote()                                           // plain rewrite: A1's rows enter the log, GC reclaims segment 1
	ops = append(ops, batchOp("A2", "b0", "b1", "b2")) // promotes A2 out of segment 2: marker + one commit frame
	put("n12", "A0", "REQ12")                          // promotes A0 out of segment 2
	put("n13", "A0", "REQ13")                          // a delta on a segment-backed trace
	// Periodic compactions below the rewrite floor demote by marker: A1 and
	// A2 are idle for tierColdAfter commits, A0 is not.
	compact := func() {
		ops = append(ops, scriptOp{do: func(s *store.Store) error { return s.Compact() }})
	}
	compact()                 // seals A1 and A2 into segment 3 and commits their markers
	put("n14", "A1", "REQ14") // promotes the marker-demoted A1 out of segment 3
	put("n15", "A0", "REQ15")
	put("n16", "A0", "REQ16")
	compact() // demotes A1 again, into segment 4; segment 3 stays pinned
	return ops
}

// tierColdAfter is the script's demotion policy, in commits.
const tierColdAfter = 2

// tierOptions are the options every store of the sweep opens with.
func tierOptions(t testing.TB, dir string, fs store.FS) store.Options {
	return store.Options{Dir: dir, Model: crashModel(t), Sync: true, FS: fs, SegmentColdAfter: tierColdAfter}
}

// tierFingerprint captures per-trace versions and rows through the
// tier-transparent read paths (ExportRows sees only the hot tier).
func tierFingerprint(t testing.TB, s *store.Store) string {
	t.Helper()
	var b strings.Builder
	for _, app := range tierCrashApps {
		fmt.Fprintf(&b, "%s v%d:", app, s.TraceVersion(app))
		rows := s.RowsForApp(app)
		ids := make([]string, 0, len(rows))
		for _, r := range rows {
			ids = append(ids, r.ID)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, " %s\n", strings.Join(ids, ","))
	}
	return b.String()
}

func TestTierCrashRecovery(t *testing.T) {
	ops := tierCrashScript()

	// Model: the expected fingerprint after every mutating prefix, from
	// in-memory stores (demotion changes placement, never content).
	var mutating []scriptOp
	for _, op := range ops {
		if op.mutating {
			mutating = append(mutating, op)
		}
	}
	var model []string
	for k := 0; k <= len(mutating); k++ {
		m, err := store.Open(store.Options{Model: crashModel(t)})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range mutating[:k] {
			if err := op.do(m); err != nil {
				t.Fatal(err)
			}
		}
		model = append(model, tierFingerprint(t, m))
		m.Close()
	}

	// Count fault points on a clean run.
	probe := faultfs.New(nil)
	{
		dir := t.TempDir()
		s, err := store.Open(tierOptions(t, dir, probe))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := op.do(s); err != nil {
				t.Fatal(err)
			}
		}
		if d := s.Durability(); d.LogRewrites != 3 || d.Compactions != 5 {
			t.Fatalf("clean run: %d rewrites in %d compactions, want 3 in 5 (the periodic ones demote by marker)", d.LogRewrites, d.Compactions)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Sanity: the clean run really did tier — segment 1 (A0 superseded,
		// A1 rewritten into the log) is reclaimed; segment 2 (A0, A2) is the
		// base of A0 and, like segment 3 (A1, A2), named by a promotion
		// marker; segment 4 holds A1. Only A0 is resident after the reopen
		// replays the markers.
		s2, err := store.Open(store.Options{Dir: dir, Model: crashModel(t)})
		if err != nil {
			t.Fatal(err)
		}
		if ti := s2.Tiering(); ti.Segments != 3 || ti.SealedTraces != 5 || ti.SegmentBackedTraces != 1 || ti.ResidentTraces != 1 {
			t.Fatalf("clean run tiered unexpectedly: %+v", ti)
		}
		for _, seg := range s2.Segments() {
			if seg.Pinned != (seg.ID != 4) {
				t.Fatalf("segment %d pinned = %v", seg.ID, seg.Pinned)
			}
		}
		if got := tierFingerprint(t, s2); got != model[len(mutating)] {
			t.Fatalf("clean run diverged from model:\n%s\nwant:\n%s", got, model[len(mutating)])
		}
		s2.Close()
	}
	points := probe.Ops()
	if points < 40 {
		t.Fatalf("suspiciously few fault points: %d", points)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}

	for point := 1; point <= points; point += stride {
		point := point
		t.Run(fmt.Sprintf("crash-at-%d", point), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(faultfs.CrashAt(point))
			committed := 0
			s, err := store.Open(tierOptions(t, dir, ffs))
			if err == nil {
				for _, op := range ops {
					if err := op.do(s); err != nil {
						break
					}
					if op.mutating {
						committed++
					}
				}
				s.Close() // post-crash close errors are expected; ignore
			}

			s2, err := store.Open(tierOptions(t, dir, nil))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer s2.Close()
			got := tierFingerprint(t, s2)
			matched := -1
			for k := committed; k <= committed+1 && k < len(model); k++ {
				if got == model[k] {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("recovered state matches no allowed prefix (committed=%d):\n%s", committed, got)
			}

			// Writable, with exact version accounting, across all traces
			// whatever tier they recovered into.
			for _, app := range tierCrashApps {
				before := s2.TraceVersion(app)
				if err := s2.PutNode(crashReq("fresh-"+app, app, "REQ-fresh")); err != nil {
					t.Fatalf("post-recovery write to %s failed: %v", app, err)
				}
				if gotV := s2.TraceVersion(app); gotV != before+1 {
					t.Fatalf("version of %s after write = %d, want %d", app, gotV, before+1)
				}
			}
			want2 := tierFingerprint(t, s2)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := store.Open(store.Options{Dir: dir, Model: crashModel(t)})
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			defer s3.Close()
			if got3 := tierFingerprint(t, s3); got3 != want2 {
				t.Fatalf("close/reopen diverged:\nfirst:\n%s\nsecond:\n%s", want2, got3)
			}
		})
	}
}
