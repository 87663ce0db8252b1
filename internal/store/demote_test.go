package store

// Demotion by marker: a periodic compaction seals cold traces into a
// segment and commits one opDemote marker per trace, and rewrites the log
// only when it is at least rewriteFloor bytes and mostly dead. These tests
// pin what that asks of segment GC, replay, logs and segments an older or
// newer binary wrote, and restart cost.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/provenance"
)

// coldStore opens a tiering store whose periodic compaction demotes traces
// idle for two commits.
func coldStore(t testing.TB, dir string) *Store {
	return tierStore(t, dir, func(o *Options) { o.SegmentColdAfter = 2 })
}

// TestCompactKeepsSegmentsTheLogNames: a trace promoted by reference out of
// one segment and then demoted by marker into a second leaves the log
// naming the first in its promotion marker. GC must keep that segment until
// a rewrite drops the marker, or the next Open fails on it.
func TestCompactKeepsSegmentsTheLogNames(t *testing.T) {
	dir := t.TempDir()
	s := coldStore(t, dir)
	seedTrace(t, s, "A", 2)
	seedTrace(t, s, "H", 1)
	if err := s.DemoteTraces("A"); err != nil { // A alone into segment 1
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r-A-late", "A", "REQ-A-LATE")); err != nil { // promotes A from 1
		t.Fatal(err)
	}
	seedTrace(t, s, "H2", 1) // A idles past the policy, H2 does not
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	d := s.Durability()
	if d.LogRewrites != 1 || s.Tiering().ResidentTraces != 1 {
		t.Fatalf("periodic compaction: %d rewrites, %+v; want A and H demoted by marker, no rewrite", d.LogRewrites, s.Tiering())
	}
	segs := s.Segments()
	if len(segs) != 2 || !segs[0].Pinned || segs[1].Pinned {
		t.Fatalf("segments = %+v, want 1 pinned by A's promotion marker and 2 not", segs)
	}
	want := s.RowsForApp("A")
	if n := s.GCSegments(); n != 0 {
		t.Fatalf("GC reclaimed %d segments while the log names segment 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := coldStore(t, dir)
	if got := s2.RowsForApp("A"); !reflect.DeepEqual(got, want) {
		t.Fatalf("A after reopen:\n%v\nwant\n%v", got, want)
	}
	// A rewrite drops the marker; segment 1 then holds only a superseded copy.
	if err := s2.DemoteTraces(); err != nil {
		t.Fatal(err)
	}
	if segs := s2.Segments(); len(segs) != 1 || segs[0].ID != 2 || segs[0].Pinned {
		t.Fatalf("after the rewrite segments = %+v, want only segment 2", segs)
	}
	if got := s2.RowsForApp("A"); !reflect.DeepEqual(got, want) {
		t.Fatalf("A after the rewrite:\n%v\nwant\n%v", got, want)
	}
}

// TestLogBytesTracksTheFiles: DurabilityStats.LogBytes, which decides when
// a periodic compaction rewrites, is the size of the log files after
// commits, markers, rewrites and a reopen.
func TestLogBytesTracksTheFiles(t *testing.T) {
	dir := t.TempDir()
	check := func(s *Store, when string) {
		t.Helper()
		st, err := os.Stat(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Durability().LogBytes; got != st.Size() {
			t.Fatalf("%s: LogBytes = %d, the log is %d bytes", when, got, st.Size())
		}
	}
	s := coldStore(t, dir)
	check(s, "fresh")
	seedTrace(t, s, "A", 3)
	seedTrace(t, s, "B", 3)
	check(s, "after commits")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "after demotion markers")
	if err := s.DemoteTraces(); err != nil {
		t.Fatal(err)
	}
	check(s, "after a rewrite")
	if err := s.PutNode(mkReq("r-A-late", "A", "REQ-A-LATE")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(coldStore(t, dir), "after a reopen")
}

// TestDemotionMarkerWrittenDuringSeal: a write that lands between the seal
// and its marker keeps the trace hot — live and on replay — and the stale
// sealed copy is dead for GC.
func TestDemotionMarkerWrittenDuringSeal(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{}
	s := tierStore(t, dir, func(o *Options) { o.FS = fsys; o.SegmentColdAfter = 2 })
	seedTrace(t, s, "A", 2) // ver 4
	seedTrace(t, s, "H", 1)
	fsys.hook = func(op fsOp) {
		if op.kind == "syncdir" && strings.HasSuffix(op.path, "segments") {
			fsys.hook = nil
			if err := s.PutNode(mkReq("r-A-mid", "A", "REQ-A-MID")); err != nil {
				t.Errorf("write during the seal: %v", err)
			}
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fsys.hook = nil
	if ti := s.Tiering(); ti.DemotedTraces != 0 || ti.ResidentTraces != 2 || ti.Segments != 0 {
		t.Fatalf("tiering = %+v: want A and H hot, the stale segment reclaimed", ti)
	}
	fp := traceFingerprint(t, s, "A")
	if fp["ver"] != "5" {
		t.Fatalf("A = %v, want version 5", fp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := tierStore(t, dir, nil)
	if got := traceFingerprint(t, s2, "A"); !reflect.DeepEqual(got, fp) {
		t.Fatalf("replay diverged:\n%v\nwant\n%v", got, fp)
	}
	if d := s2.Durability(); d.ReplaySkipped != 0 {
		t.Fatalf("a stale marker replayed as %d skipped entries, want a no-op", d.ReplaySkipped)
	}
}

// TestCompactMarkersEndTheirBatch: a write queued right behind the
// compaction's demotion markers, in the same group-commit batch, to the
// trace they evict is staged only after they apply. It promotes the trace
// from the segment the marker names and lands on the whole trace, live and
// after a reopen — not on a new trace holding its late records alone.
func TestCompactMarkersEndTheirBatch(t *testing.T) {
	dir := t.TempDir()
	s := coldStore(t, dir)
	seedTrace(t, s, "A", 2) // ver 4
	seedTrace(t, s, "H", 1) // touched last: A is cold, H is not
	before := traceFingerprint(t, s, "A")
	queued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(s.comm.reqs) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d requests queued, want %d", len(s.comm.reqs), n)
			}
		}
	}
	// Stall the committer inside a batch of its own, so that the markers
	// and the late write queue behind it and form the next batch together.
	s.logMu.Lock()
	errs := make(chan error, 4)
	go func() { errs <- s.PutNode(mkReq("r-H-mid", "H", "REQ-H-MID")) }()
	time.Sleep(50 * time.Millisecond)
	go func() { errs <- s.Compact() }()
	queued(1)
	go func() {
		be := s.Commit(Batch{
			Nodes:   []*provenance.Node{mkReq("r-A-late", "A", "REQ-A-LATE")},
			Updates: []*provenance.Node{mkReq("r-A-1", "A", "REQ-A-1-v2")},
		})
		errs <- be.Nodes[0]
		errs <- be.Updates[0]
	}()
	queued(2)
	s.logMu.Unlock()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if ti := s.Tiering(); ti.DemotedTraces != 1 || ti.PromotedTraces != 1 || ti.ResidentTraces != 2 {
		t.Fatalf("tiering = %+v, want A demoted by its marker and promoted by the late write", ti)
	}
	if ops := frameOpcodes(t, dir); !reflect.DeepEqual(ops[len(ops)-3:], []opcode{opDemote, opPromote, opCommit}) {
		t.Fatalf("log frames end %v, want the marker, a promotion marker, then the write", ops[len(ops)-3:])
	}
	live := traceFingerprint(t, s, "A")
	for k, v := range before {
		if k != "ver" && k != "view-ver" && k != "row:r-A-1" && k != "node:r-A-1" && live[k] != v {
			t.Fatalf("A lost %s = %q: %v", k, v, live)
		}
	}
	if live["ver"] != "6" || live["node:r-A-1"] == before["node:r-A-1"] || live["node:r-A-late"] == "" {
		t.Fatalf("A = %v, want version 6 with the late node and the update", live)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := traceFingerprint(t, coldStore(t, dir), "A"); !reflect.DeepEqual(got, live) {
		t.Fatalf("A after reopen:\n%v\nwant\n%v", got, live)
	}
}

// fillLog commits one eleven-record trace per commit until the log reaches
// rewriteFloor.
func fillLog(t testing.TB, s *Store) {
	t.Helper()
	for i := 0; s.Durability().LogBytes < rewriteFloor; i++ {
		app := fmt.Sprintf("hiring-%06d", i)
		b := Batch{
			Nodes: []*provenance.Node{mkPerson("p-"+app, app, "who-"+app)},
			Edges: []*provenance.Edge{mkSubmitter("e-"+app, app, "p-"+app, "r-"+app+"-0")},
		}
		for j := 0; j < 9; j++ {
			b.Nodes = append(b.Nodes, mkReq(fmt.Sprintf("r-%s-%d", app, j), app, fmt.Sprintf("REQ-%s-%d", app, j)))
		}
		be := s.Commit(b)
		for _, err := range append(append(be.Nodes, be.Edges...), be.Updates...) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCompactRewritesOnlyPastTheFloor: past rewriteFloor, a periodic
// compaction leaves a mostly live log alone, and rewrites one at least
// twice its live size down to exactly the bytes rewriteBytes counted.
func TestCompactRewritesOnlyPastTheFloor(t *testing.T) {
	t.Run("mostly live", func(t *testing.T) {
		s := tierStore(t, t.TempDir(), func(o *Options) { o.SegmentColdAfter = 1 << 40 })
		fillLog(t, s)
		n := s.Durability().LogBytes
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if d := s.Durability(); d.Compactions != 1 || d.LogRewrites != 0 || d.LogBytes != n {
			t.Fatalf("durability = %+v, want a compaction without a rewrite of the %d-byte log", d, n)
		}
	})
	t.Run("mostly dead", func(t *testing.T) {
		dir := t.TempDir()
		s := coldStore(t, dir)
		fillLog(t, s)
		all := s.loadSnap().graph.AppIDs()
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		d, ti := s.Durability(), s.Tiering()
		if d.LogRewrites != 1 || ti.ResidentTraces != 1 || ti.DemotedTraces != uint64(len(all)-1) {
			t.Fatalf("durability = %+v, tiering = %+v: want every trace but the last demoted, then a rewrite", d, ti)
		}
		st, err := os.Stat(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if want := rewriteBytes(s.loadSnap().graph); d.LogBytes != st.Size() || st.Size() != want {
			t.Fatalf("LogBytes = %d, the log is %d bytes, rewriteBytes counted %d", d.LogBytes, st.Size(), want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := coldStore(t, dir)
		for _, app := range []string{all[0], all[len(all)-1]} {
			if n := len(s2.RowsForApp(app)); n != 11 {
				t.Fatalf("after reopen %s has %d rows, want 11", app, n)
			}
		}
		if got := s2.Tiering().ResidentTraces; got != 1 {
			t.Fatalf("after reopen %d traces are resident, want 1", got)
		}
	})
}

// TestDemotionMarkerThatCannotBeHonoured: a marker naming a missing
// segment, or a segment without the trace at the marker's version, leaves
// the trace resident from its logged records and counts as skipped.
func TestDemotionMarkerThatCannotBeHonoured(t *testing.T) {
	// Each marker names a trace at its resident version; only B is sealed,
	// in segment 1 at version 4.
	for _, tc := range []struct {
		name string
		app  string
		seg  uint64
	}{
		{"missing segment", "A", 9},
		{"segment without the trace", "A", 1},
		{"wrong version", "B", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := tierStore(t, dir, nil)
			seedTrace(t, s, "A", 2)
			seedTrace(t, s, "B", 2) // ver 4, sealed into segment 1 at 4
			if err := s.DemoteTraces("B"); err != nil {
				t.Fatal(err)
			}
			if err := s.PutNode(mkReq("r-B-late", "B", "REQ-B-LATE")); err != nil { // B at 5
				t.Fatal(err)
			}
			if err := s.PutNode(mkReq("r-B-late2", "B", "REQ-B-LATE2")); err != nil {
				t.Fatal(err)
			}
			m := entry{op: opDemote, app: tc.app, gen: s.TraceVersion(tc.app), seg: tc.seg}
			want := traceFingerprint(t, s, m.app)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			appendFrames(t, dir, frameBytes(m))
			s2 := tierStore(t, dir, nil)
			if d := s2.Durability(); d.ReplaySkipped != 1 {
				t.Fatalf("replay skipped %d entries, want the marker", d.ReplaySkipped)
			}
			if ti := s2.Tiering(); ti.ResidentTraces != 2 {
				t.Fatalf("tiering = %+v, want both traces resident", ti)
			}
			if got := traceFingerprint(t, s2, m.app); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after replay:\n%v\nwant\n%v", m.app, got, want)
			}
		})
	}
}

// TestLegacyLogMigratesBeforeMarkers: a log an older binary wrote
// (PROVLOG1) opens and reads unchanged, and a compaction that demotes
// rewrites it as PROVLOG2 before it commits a marker.
func TestLegacyLogMigratesBeforeMarkers(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 2)
	want := traceFingerprint(t, s, "A")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, legacyLogMagic)
	if err := os.WriteFile(logPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s = coldStore(t, dir)
	if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, want) {
		t.Fatalf("PROVLOG1 log replayed to\n%v\nwant\n%v", got, want)
	}
	seedTrace(t, s, "H", 1)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if d, ti := s.Durability(), s.Tiering(); d.LogRewrites != 1 || ti.DemotedTraces != 1 {
		t.Fatalf("%d rewrites, %d demoted; want the migration rewrite, then A's marker", d.LogRewrites, ti.DemotedTraces)
	}
	raw, err = os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:len(logMagic)]) != logMagic {
		t.Fatalf("log header after the first compaction = %q", raw[:len(logMagic)])
	}
	if ops := frameOpcodes(t, dir); ops[len(ops)-1] != opDemote {
		t.Fatalf("log frames %v, want the demotion marker last", ops)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = tierStore(t, dir, nil)
	if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, want) || s.Tiering().ResidentTraces != 1 {
		t.Fatalf("A after reopen = %v (%+v), want it sealed as before", got, s.Tiering())
	}
}

// TestOpenRefusesUnknownOpcode: an intact frame whose opcode this binary
// does not know — a newer binary's — fails Open naming the file and the
// offset, and truncates nothing. The same frame with a bad CRC is a torn
// tail, cut as before.
func TestOpenRefusesUnknownOpcode(t *testing.T) {
	seeded := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		s := tierStore(t, dir, nil)
		seedTrace(t, s, "A", 2)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return dir, st.Size()
	}
	unknown := appendFrame(nil, func(b []byte) []byte { return append(b, 0x42, 1, 2, 3) })
	after := commitFrame(nodeRec(opPutNode, mkReq("r-A-after", "A", "REQ-A-AFTER")))

	t.Run("intact", func(t *testing.T) {
		dir, off := seeded(t)
		appendFrames(t, dir, append(append([]byte(nil), unknown...), after...))
		st, _ := os.Stat(logPath(dir))
		s, err := Open(Options{Dir: dir, Model: testModel(t)})
		if err == nil {
			s.Close()
			t.Fatal("Open replayed past a frame it cannot read")
		}
		for _, w := range []string{logPath(dir), fmt.Sprintf("offset %d", off), "opcode 66"} {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("Open error %q does not name %q", err, w)
			}
		}
		if st2, _ := os.Stat(logPath(dir)); st2.Size() != st.Size() {
			t.Fatalf("log cut from %d to %d bytes", st.Size(), st2.Size())
		}
	})
	t.Run("bad CRC", func(t *testing.T) {
		dir, off := seeded(t)
		torn := bytes.Clone(unknown)
		torn[len(torn)-1] ^= 0xff
		appendFrames(t, dir, append(torn, after...))
		s := tierStore(t, dir, nil)
		if d := s.Durability(); d.ReplayDroppedBytes != int64(len(torn)+len(after)) || s.TraceVersion("A") != 4 {
			t.Fatalf("dropped %d bytes, A at %d; want the tail after offset %d cut", d.ReplayDroppedBytes, s.TraceVersion("A"), off)
		}
	})
}

// TestOpenRefusesUnknownSegmentFormat: a segment whose trailer and footer
// validate but whose format this binary cannot read fails Open and stays
// on disk; a half-sealed one is still removed (TestHalfSealedSegmentRemovedAtOpen).
func TestOpenRefusesUnknownSegmentFormat(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 2)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	path := s.Segments()[0].Path
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restampSegmentFormat(t, path, 3)
	s2, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err == nil {
		s2.Close()
		t.Fatal("Open accepted a segment of an unknown format")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "unsupported segment format 3") {
		t.Fatalf("Open error %q does not name the segment and its format", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("the segment is gone: %v", err)
	}
}

// restampSegmentFormat rewrites the footer of the segment at path with
// another format number, keeping its frame CRC and trailer valid.
func restampSegmentFormat(t *testing.T, path string, format int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := binary.LittleEndian.Uint64(raw[len(raw)-16:])
	n := binary.LittleEndian.Uint32(raw[off:])
	var ft segFooter
	if err := json.Unmarshal(raw[off+8:off+8+uint64(n)], &ft); err != nil {
		t.Fatal(err)
	}
	ft.Format = format
	footer, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	out := appendFrame(bytes.Clone(raw[:off]), func(b []byte) []byte { return append(b, footer...) })
	out = append(binary.LittleEndian.AppendUint64(out, off), segEndMagic...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReopenDemoted times Open of a log at the rewrite floor whose
// traces were all demoted by marker — replay applies every record and the
// markers evict them again — against the same store after the rewrite that
// drops them. ms/open and the log's size are the numbers EXPERIMENTS.md E26
// quotes.
func BenchmarkReopenDemoted(b *testing.B) {
	dir := b.TempDir()
	s := tierStore(b, dir, nil)
	var apps []string
	for i := 0; s.Durability().LogBytes < rewriteFloor; i++ {
		apps = append(apps, fmt.Sprintf("hiring-%06d", i))
		seedTrace(b, s, apps[i], 11)
	}
	s.compactMu.Lock()
	err := s.demote(func(string, uint64, uint64) bool { return true })
	s.compactMu.Unlock()
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	rewritten := copyDir(b, dir)
	s = tierStore(b, rewritten, nil)
	if err := s.DemoteTraces(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, dir string }{{"markers", dir}, {"rewritten", rewritten}} {
		b.Run(c.name, func(b *testing.B) {
			st, err := os.Stat(logPath(c.dir))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				s, err := Open(Options{Dir: c.dir, Model: testModel(b)})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.Stats().ResidentTraces; got != 0 {
					b.Fatalf("reopened with %d resident traces, want 0 of %d", got, len(apps))
				}
				s.Close()
			}
			b.ReportMetric(float64(st.Size()), "log-bytes")
			b.ReportMetric(float64(len(apps)), "traces")
		})
	}
}
