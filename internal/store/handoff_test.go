package store

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestExportImportRoundTrip ships two traces (one hot, one sealed) to a
// second store and checks the externally observable state survives the
// move, including dedup on redelivery.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	src := tierStore(t, t.TempDir(), nil)
	seedTrace(t, src, "A", 3)
	seedTrace(t, src, "B", 2)
	seedTrace(t, src, "C", 1)
	if err := src.DemoteTraces("B"); err != nil {
		t.Fatal(err)
	}
	fpA, fpB := traceFingerprint(t, src, "A"), traceFingerprint(t, src, "B")

	var buf bytes.Buffer
	st, err := src.ExportTraces(&buf, []string{"A", "B", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != 2 {
		t.Fatalf("exported %d traces, want 2 (ghost skipped)", st.Traces)
	}
	if st.Rows != len(src.RowsForApp("A"))+len(src.RowsForApp("B")) {
		t.Fatalf("exported %d rows", st.Rows)
	}

	dst := tierStore(t, t.TempDir(), nil)
	stream := buf.Bytes()
	ins, skip, err := dst.ImportSegment(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if ins != st.Rows || skip != 0 {
		t.Fatalf("import inserted=%d skipped=%d, want %d/0", ins, skip, st.Rows)
	}
	// Versions restart on the target (it observed each record once), so
	// compare structure, not version counters.
	for _, app := range []string{"A", "B"} {
		want := fpA
		if app == "B" {
			want = fpB
		}
		got := traceFingerprint(t, dst, app)
		delete(got, "ver")
		delete(got, "view-ver")
		w := map[string]string{}
		for k, v := range want {
			if k != "ver" && k != "view-ver" {
				w[k] = v
			}
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("trace %s diverged after handoff:\n got %v\nwant %v", app, got, w)
		}
	}
	if dst.TraceVersion("C") != 0 {
		t.Fatal("unexported trace leaked")
	}
	// Redelivery (bulk/tail overlap, router retry) dedups by record ID.
	ins, skip, err = dst.ImportSegment(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if ins != 0 || skip != st.Rows {
		t.Fatalf("redelivery inserted=%d skipped=%d, want 0/%d", ins, skip, st.Rows)
	}
}

// TestHandoffRedeliveryBuildsEachSealedTraceOnce redelivers a handoff
// stream whose traces the target already holds sealed. Every record is
// skipped, and each trace is materialized once for the existence checks,
// not once per record: ColdHits counts one owner lookup per record plus
// one sealed-copy lookup per build.
func TestHandoffRedeliveryBuildsEachSealedTraceOnce(t *testing.T) {
	src := tierStore(t, t.TempDir(), nil)
	seedTrace(t, src, "A", 4)
	seedTrace(t, src, "B", 3)
	var buf bytes.Buffer
	st, err := src.ExportTraces(&buf, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	dst := tierStore(t, t.TempDir(), nil)
	if _, _, err := dst.ImportSegment(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := dst.DemoteTraces("A", "B"); err != nil {
		t.Fatal(err)
	}
	before := dst.Tiering().ColdHits
	ins, skip, err := dst.ImportSegment(bytes.NewReader(buf.Bytes()))
	if err != nil || ins != 0 || skip != st.Rows {
		t.Fatalf("redelivery inserted=%d skipped=%d err=%v, want 0/%d", ins, skip, err, st.Rows)
	}
	if hits, most := dst.Tiering().ColdHits-before, uint64(st.Rows+st.Traces); hits > most {
		t.Fatalf("redelivery of %d rows in %d traces took %d cold hits, want at most %d", st.Rows, st.Traces, hits, most)
	}
}

func TestExportNothingImportNothing(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	var buf bytes.Buffer
	st, err := s.ExportTraces(&buf, []string{"ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != 0 || buf.Len() != 0 {
		t.Fatalf("empty export: %+v, %d bytes", st, buf.Len())
	}
	if ins, skip, err := s.ImportSegment(&buf); err != nil || ins != 0 || skip != 0 {
		t.Fatalf("empty import: %d/%d/%v", ins, skip, err)
	}
	if _, _, err := s.ImportSegment(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

// TestDropTraces covers the handoff tombstone: hot and sealed traces
// drop, survive restart, and scrub their sealed copies.
func TestDropTraces(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 2) // stays hot
	seedTrace(t, s, "B", 2) // sealed below
	seedTrace(t, s, "K", 2) // kept, sealed in the same segment as B
	if err := s.DemoteTraces("B", "K"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTraces("A", "B"); err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"A", "B"} {
		if v := s.TraceVersion(app); v != 0 {
			t.Fatalf("dropped %s still versioned %d", app, v)
		}
		if n := s.Node("r-" + app + "-0"); n != nil {
			t.Fatalf("dropped %s node still resolvable", app)
		}
		if rows := s.RowsForApp(app); len(rows) != 0 {
			t.Fatalf("dropped %s still has %d rows", app, len(rows))
		}
	}
	for _, app := range s.AppIDs() {
		if app == "A" || app == "B" {
			t.Fatalf("dropped %s still listed", app)
		}
	}
	// K shared B's segment; the scrub rewrote it in place and K survived.
	if got := traceFingerprint(t, s, "K"); got["node:r-K-0"] == "" {
		t.Fatalf("survivor K lost state: %v", got)
	}
	if ti := s.Tiering(); ti.SegmentsReclaimed != 1 {
		t.Fatalf("scrub reclaimed %d segments, want 1 (rewrite)", ti.SegmentsReclaimed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tombstones replay: the drop survives restart.
	s2 := tierStore(t, dir, nil)
	for _, app := range []string{"A", "B"} {
		if v := s2.TraceVersion(app); v != 0 {
			t.Fatalf("restart resurrected %s at version %d", app, v)
		}
	}
	if got := traceFingerprint(t, s2, "K"); got["node:r-K-0"] == "" {
		t.Fatalf("restart lost survivor K: %v", got)
	}
	// A handed-back trace re-imports cleanly after a drop.
	seedTrace(t, s2, "B", 1)
	if v := s2.TraceVersion("B"); v != 3 {
		t.Fatalf("re-imported B version = %d, want 3", v)
	}
}

// TestDropTracesAfterReopen drops a trace sealed in an earlier session.
// The new session's tombstone must cover that seal, so the dropped trace
// reads empty, live and after another reopen.
func TestDropTracesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 5)
	seedTrace(t, s, "B", 6)
	if seq := s.Stats().Seq; seq != 15 {
		t.Fatalf("seq before the seal = %d, want 15", seq)
	}
	if err := s.DemoteTraces("A", "B"); err != nil {
		t.Fatal(err)
	}
	want := traceFingerprint(t, s, "A")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = tierStore(t, dir, nil)
	if err := s.DropTraces("B"); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if rows := s.RowsForApp("B"); len(rows) != 0 {
			t.Fatalf("%s: dropped B still reads %d rows", stage, len(rows))
		}
		if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: A reads %v, want %v", stage, got, want)
		}
	}
	check("live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = tierStore(t, dir, nil)
	check("reopened")
}

// TestSegmentGC covers the compaction GC satellite: promoted-back and
// superseded segments are reclaimed, the ablation keeps them, and live
// reads never break.
func TestSegmentGC(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	seedTrace(t, s, "A", 2)
	seedTrace(t, s, "B", 2)
	if err := s.DemoteTraces("A", "B"); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	// Promote A back (write) and reseal it: the second compaction's GC
	// must NOT reclaim segment 1 — it still holds the only copy of B.
	if err := s.PutNode(mkReq("r-A-new", "A", "REQ-A-NEW")); err != nil {
		t.Fatal(err)
	}
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n != 2 {
		t.Fatalf("segments after reseal = %d (reclaimed=%d), want 2",
			n, s.Tiering().SegmentsReclaimed)
	}
	// Promote B back too: now every copy in segment 1 is dead (A
	// superseded by segment 2, B hot) and GC deletes it.
	if err := s.PutNode(mkReq("r-B-new", "B", "REQ-B-NEW")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	for _, seg := range segs {
		if seg.ID == 1 {
			t.Fatalf("segment 1 not reclaimed: %+v", segs)
		}
	}
	if ti := s.Tiering(); ti.SegmentsReclaimed == 0 {
		t.Fatalf("SegmentsReclaimed = 0 after GC")
	}
	// Both traces still fully readable from their live homes.
	for _, app := range []string{"A", "B"} {
		fp := traceFingerprint(t, s, app)
		if fp["node:r-"+app+"-0"] == "" || fp["node:r-"+app+"-new"] == "" {
			t.Fatalf("trace %s lost state after GC: %v", app, fp)
		}
	}
}

func TestSegmentGCDisabled(t *testing.T) {
	s := tierStore(t, t.TempDir(), func(o *Options) { o.DisableSegmentGC = true })
	seedTrace(t, s, "A", 2)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r-A-new", "A", "REQ-A-NEW")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n != 1 {
		t.Fatalf("ablation reclaimed segments: %d left", n)
	}
	if ti := s.Tiering(); ti.SegmentsReclaimed != 0 {
		t.Fatalf("ablation counted reclaims: %d", ti.SegmentsReclaimed)
	}
	// Explicit GC still works as an operator action.
	if n := s.GCSegments(); n != 1 {
		t.Fatalf("manual GC reclaimed %d, want 1", n)
	}
}

// TestGCKeepsAsOfForLiveSegments: GC must never delete a segment whose
// copy is still the newest sealed state of a non-promoted trace.
func TestGCKeepsLiveColdTraces(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	for i := 0; i < 4; i++ {
		seedTrace(t, s, fmt.Sprintf("T%d", i), 1)
	}
	if err := s.DemoteTraces("T0", "T1", "T2", "T3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // GC pass with nothing dead
		t.Fatal(err)
	}
	if n := len(s.Segments()); n != 1 {
		t.Fatalf("GC deleted a live segment: %d segments", n)
	}
	for i := 0; i < 4; i++ {
		app := fmt.Sprintf("T%d", i)
		if fp := traceFingerprint(t, s, app); fp["node:r-"+app+"-0"] == "" {
			t.Fatalf("cold trace %s unreadable", app)
		}
	}
}
