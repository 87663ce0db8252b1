package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/provenance"
)

// tierStore opens a disk store with tiering on (the default) and opt
// applied on top.
func tierStore(t testing.TB, dir string, opt func(*Options)) *Store {
	t.Helper()
	o := Options{Dir: dir, Model: testModel(t)}
	if opt != nil {
		opt(&o)
	}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedTrace writes n requisition nodes, one person and one edge into app.
// Trace version afterwards is n+2.
func seedTrace(t testing.TB, s *Store, app string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.PutNode(mkReq(fmt.Sprintf("r-%s-%d", app, i), app, fmt.Sprintf("REQ-%s-%d", app, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutNode(mkPerson("p-"+app, app, "who-"+app)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEdge(mkSubmitter("e-"+app, app, "p-"+app, fmt.Sprintf("r-%s-0", app))); err != nil {
		t.Fatal(err)
	}
}

// traceFingerprint captures the externally observable state of one trace,
// equally answerable by the hot and the cold tier.
func traceFingerprint(t testing.TB, s *Store, app string) map[string]string {
	t.Helper()
	fp := map[string]string{}
	fp["ver"] = fmt.Sprint(s.TraceVersion(app))
	for _, r := range s.RowsForApp(app) {
		fp["row:"+r.ID] = r.Class + "|" + r.XML
	}
	err := s.ViewTrace(app, func(g *provenance.Graph, ver uint64) error {
		fp["view-ver"] = fmt.Sprint(ver)
		for _, n := range g.Nodes(provenance.NodeFilter{AppID: app}) {
			fp["node:"+n.ID] = n.Type + "|" + n.Attr("reqID").Str()
		}
		for _, e := range g.AllEdges(provenance.EdgeFilter{AppID: app}) {
			fp["edge:"+e.ID] = e.Source + ">" + e.Target
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestDemoteTracesAndColdReads(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	for _, app := range []string{"A", "B", "C"} {
		seedTrace(t, s, app, 3)
	}
	hotA := traceFingerprint(t, s, "A")
	hotB := traceFingerprint(t, s, "B")

	if err := s.DemoteTraces("A", "B"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ResidentTraces != 1 {
		t.Fatalf("resident = %d, want 1", st.ResidentTraces)
	}
	ti := st.Tiering
	if !ti.Enabled || ti.Segments != 1 || ti.SealedTraces != 2 || ti.DemotedTraces != 2 {
		t.Fatalf("tiering = %+v", ti)
	}

	// Every read path answers for the demoted traces exactly as before.
	if got := traceFingerprint(t, s, "A"); !reflect.DeepEqual(got, hotA) {
		t.Fatalf("cold fingerprint of A diverged:\nhot  %v\ncold %v", hotA, got)
	}
	if got := traceFingerprint(t, s, "B"); !reflect.DeepEqual(got, hotB) {
		t.Fatalf("cold fingerprint of B diverged:\nhot  %v\ncold %v", hotB, got)
	}
	if n := s.Node("r-A-1"); n == nil || n.Attr("reqID").Str() != "REQ-A-1" {
		t.Fatalf("cold Node = %v", n)
	}
	if e := s.Edge("e-A"); e == nil || e.Source != "p-A" {
		t.Fatalf("cold Edge = %v", e)
	}
	if r, ok := s.Row("r-B-2"); !ok || r.AppID != "B" {
		t.Fatalf("cold Row = %v %v", r, ok)
	}
	want := []string{"A", "B", "C"}
	if got := s.AppIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppIDs = %v, want %v", got, want)
	}

	// The probe-accounting invariant E15 verifies by counters.
	ti = s.Tiering()
	if ti.SegmentProbes != ti.ColdHits+ti.FalseProbes {
		t.Fatalf("probes %d != hits %d + false %d", ti.SegmentProbes, ti.ColdHits, ti.FalseProbes)
	}
	if ti.ColdHits == 0 {
		t.Fatal("cold reads never hit the tier")
	}
}

func TestPromotionOnWrite(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	seedTrace(t, s, "A", 3) // ver 5
	seedTrace(t, s, "B", 1)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	if got := s.TraceVersion("A"); got != 5 {
		t.Fatalf("sealed version = %d, want 5", got)
	}
	// A write to the sealed trace promotes it transparently.
	if err := s.PutNode(mkReq("r-A-9", "A", "REQ-A-9")); err != nil {
		t.Fatal(err)
	}
	if got := s.TraceVersion("A"); got != 6 {
		t.Fatalf("post-promotion version = %d, want 6", got)
	}
	if s.Tiering().PromotedTraces != 1 {
		t.Fatalf("tiering = %+v", s.Tiering())
	}
	if s.Stats().ResidentTraces != 2 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	fp := traceFingerprint(t, s, "A")

	// Promotion logged a marker naming the segment, so a restart
	// reproduces the promoted trace: sealed base, then the delta.
	dir := s.opts.Dir
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := tierStore(t, dir, nil)
	if got := traceFingerprint(t, s2, "A"); !reflect.DeepEqual(got, fp) {
		t.Fatalf("restart diverged:\nbefore %v\nafter  %v", fp, got)
	}
	if got := s2.TraceVersion("A"); got != 6 {
		t.Fatalf("restart version = %d, want 6", got)
	}
}

func TestDemotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 4)
	seedTrace(t, s, "B", 2)
	fpA := traceFingerprint(t, s, "A")
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := tierStore(t, dir, nil)
	ti := s2.Tiering()
	if ti.Segments != 1 || ti.SealedTraces != 1 {
		t.Fatalf("tiering after restart = %+v", ti)
	}
	if s2.Stats().ResidentTraces != 1 {
		t.Fatalf("demoted trace re-entered RAM: %+v", s2.Stats())
	}
	if got := traceFingerprint(t, s2, "A"); !reflect.DeepEqual(got, fpA) {
		t.Fatalf("sealed trace diverged after restart:\nbefore %v\nafter  %v", fpA, got)
	}
}

// TestColdIDLookupWithoutRouter covers the row-ID bloom routing path:
// demotion evicts the record-ID router entries (which is what keeps the
// router from growing with total history), and a restarted store never
// had them — raw-ID reads must resolve through the segments' row-ID
// bloom filters alone.
func TestColdIDLookupWithoutRouter(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 3)
	seedTrace(t, s, "B", 2)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}

	// Demotion evicted the router entries...
	if app, ok := s.graph.TraceHint("r-A-1"); ok {
		t.Fatalf("router still routes demoted ID r-A-1 to %q", app)
	}
	// ...yet every ID-based read path still resolves the records.
	if n := s.Node("r-A-1"); n == nil || n.Attr("reqID").Str() != "REQ-A-1" {
		t.Fatalf("cold Node = %v", n)
	}
	if e := s.Edge("e-A"); e == nil || e.Source != "p-A" {
		t.Fatalf("cold Edge = %v", e)
	}
	if r, ok := s.Row("r-A-2"); !ok || r.AppID != "A" {
		t.Fatalf("cold Row = %v %v", r, ok)
	}
	// A miss stays a miss: the bloom gates probes, block scans confirm.
	if n := s.Node("r-A-99"); n != nil {
		t.Fatalf("phantom cold node %v", n)
	}

	// After a restart the rewritten log never mentions the sealed trace,
	// so the router cannot know its IDs; the bloom path is the only route.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := tierStore(t, dir, nil)
	if app, ok := s2.graph.TraceHint("r-A-1"); ok {
		t.Fatalf("restarted router knows sealed ID r-A-1 (%q)", app)
	}
	if n := s2.Node("r-A-1"); n == nil || n.Attr("reqID").Str() != "REQ-A-1" {
		t.Fatalf("post-restart cold Node = %v", n)
	}
	if e := s2.Edge("e-A"); e == nil || e.Target != "r-A-0" {
		t.Fatalf("post-restart cold Edge = %v", e)
	}
	if r, ok := s2.Row("r-A-0"); !ok || r.AppID != "A" {
		t.Fatalf("post-restart cold Row = %v %v", r, ok)
	}
	// The hot trace kept its routing and is untouched by eviction.
	if n := s2.Node("r-B-0"); n == nil || n.AppID != "B" {
		t.Fatalf("hot Node = %v", n)
	}
	// The ownerOf path obeys the same probe-accounting invariant.
	ti := s2.Tiering()
	if ti.SegmentProbes != ti.ColdHits+ti.FalseProbes {
		t.Fatalf("probes %d != hits %d + false %d", ti.SegmentProbes, ti.ColdHits, ti.FalseProbes)
	}
}

func TestSegmentColdAfterPolicy(t *testing.T) {
	s := tierStore(t, t.TempDir(), func(o *Options) { o.SegmentColdAfter = 4 })
	seedTrace(t, s, "old", 2) // last touch at seq 4
	seedTrace(t, s, "hot", 6) // pushes the sequence 8 past "old"
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	ti := s.Tiering()
	if ti.SealedTraces != 1 || ti.DemotedTraces != 1 {
		t.Fatalf("tiering = %+v", ti)
	}
	if s.TraceVersion("old") == 0 || s.TraceVersion("hot") == 0 {
		t.Fatal("a trace became unreadable")
	}
	if s.Stats().ResidentTraces != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestTraceAsOf(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	seedTrace(t, s, "A", 2) // seqs 1..4, ver 4
	sealLast := s.Stats().Seq
	sealVer := s.TraceVersion("A")
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	// Promote with newer writes.
	if err := s.PutNode(mkReq("r-A-new", "A", "REQ-NEW")); err != nil {
		t.Fatal(err)
	}
	liveSeq := s.Stats().Seq

	// As of now: the live trace.
	g, ver, err := s.TraceAsOf("A", liveSeq)
	if err != nil {
		t.Fatal(err)
	}
	if ver != sealVer+1 || g.Node("r-A-new") == nil {
		t.Fatalf("live as-of: ver=%d node=%v", ver, g.Node("r-A-new"))
	}
	// As of the seal point: the sealed copy, without the newer write.
	g, ver, err = s.TraceAsOf("A", sealLast)
	if err != nil {
		t.Fatal(err)
	}
	if ver != sealVer {
		t.Fatalf("sealed as-of version = %d, want %d", ver, sealVer)
	}
	if g.Node("r-A-new") != nil {
		t.Fatal("sealed as-of sees a later write")
	}
	if g.Node("r-A-0") == nil {
		t.Fatal("sealed as-of lost a base record")
	}
	// Before the trace's history: no state survives.
	if _, _, err := s.TraceAsOf("A", sealLast-1); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("pre-history as-of err = %v", err)
	}
	if _, _, err := s.TraceAsOf("ghost", liveSeq); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("ghost as-of err = %v", err)
	}
}

// TestTraceAsOfTable asks for three traces — never sealed, sealed, and
// sealed then promoted by a later write — at sequences on both sides of
// every state change, and checks the version and the exact record set
// against the sequence asked for.
func TestTraceAsOfTable(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	seedTrace(t, s, "H", 2) // seqs 1..4
	seedTrace(t, s, "S", 2) // seqs 5..8
	seedTrace(t, s, "P", 2) // seqs 9..12
	if err := s.DemoteTraces("S", "P"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r-P-late", "P", "REQ-LATE")); err != nil { // seq 13, promotes P
		t.Fatal(err)
	}
	if err := s.PutNode(mkReq("r-H-late", "H", "REQ-LATE")); err != nil { // seq 14
		t.Fatal(err)
	}
	if got := s.Stats().Seq; got != 14 {
		t.Fatalf("seq = %d, want 14", got)
	}
	base := func(app string) []string {
		return []string{"e-" + app, "p-" + app, "r-" + app + "-0", "r-" + app + "-1"}
	}
	cases := []struct {
		app     string
		seq     uint64
		ver     uint64   // 0: ErrNoHistory
		records []string // sorted
	}{
		{"H", 3, 0, nil},  // mid-history: the live state is newer, nothing was sealed
		{"H", 13, 0, nil}, // one commit before its last mutation
		{"H", 14, 5, append(base("H"), "r-H-late")},
		{"H", 99, 5, append(base("H"), "r-H-late")},
		{"S", 7, 0, nil}, // before the sealed copy's last mutation
		{"S", 8, 4, base("S")},
		{"S", 14, 4, base("S")},
		{"P", 11, 0, nil},
		{"P", 12, 4, base("P")}, // the sealed copy, without the later write
		{"P", 13, 5, append(base("P"), "r-P-late")},
		{"P", 14, 5, append(base("P"), "r-P-late")},
		{"ghost", 14, 0, nil},
	}
	for _, c := range cases {
		g, ver, err := s.TraceAsOf(c.app, c.seq)
		if c.ver == 0 {
			if !errors.Is(err, ErrNoHistory) {
				t.Errorf("%s as of %d: ver %d, err %v; want ErrNoHistory", c.app, c.seq, ver, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s as of %d: %v", c.app, c.seq, err)
			continue
		}
		var got []string
		for _, n := range g.Nodes(provenance.NodeFilter{AppID: c.app}) {
			got = append(got, n.ID)
		}
		for _, e := range g.AllEdges(provenance.EdgeFilter{AppID: c.app}) {
			got = append(got, e.ID)
		}
		sort.Strings(got)
		if ver != c.ver || !reflect.DeepEqual(got, c.records) {
			t.Errorf("%s as of %d: ver %d records %v; want ver %d records %v", c.app, c.seq, ver, got, c.ver, c.records)
		}
	}
}

func TestHalfSealedSegmentRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 2)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-seal leaves a file without a valid trailer. Fake two:
	// pure garbage, and a truncated copy of the real segment.
	sd := segmentsDir(dir)
	if err := os.WriteFile(filepath.Join(sd, "seg-00000099.seg"), []byte("PROVSEG1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	real, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sd, "seg-00000098.seg"), real[:len(real)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := tierStore(t, dir, nil)
	ti := s2.Tiering()
	if ti.RemovedAtOpen != 2 {
		t.Fatalf("removed %d invalid segments, want 2", ti.RemovedAtOpen)
	}
	if ti.Segments != 1 {
		t.Fatalf("valid segment lost: %+v", ti)
	}
	if s2.TraceVersion("A") == 0 {
		t.Fatal("sealed trace unreadable after cleanup")
	}
	for _, name := range []string{"seg-00000098.seg", "seg-00000099.seg"} {
		if _, err := os.Stat(filepath.Join(sd, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still on disk", name)
		}
	}
}

// TestColdReadEquivalenceRace drives concurrent writers, cold readers and
// demotions against each other; run under -race it is the data-race
// sentinel for the tier, and its assertions check that every trace always
// answers from exactly one coherent tier.
func TestColdReadEquivalenceRace(t *testing.T) {
	s := tierStore(t, t.TempDir(), nil)
	const traces = 6
	apps := make([]string, traces)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%d", i)
		seedTrace(t, s, apps[i], 2)
	}
	var wg sync.WaitGroup
	// Demoter: repeatedly seals the even traces.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := s.DemoteTraces(apps[(i*2)%traces]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Writers: append to the odd traces (and occasionally to a sealed
	// one, forcing promotion races).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				app := apps[(2*i+1)%traces]
				if i%10 == 9 {
					app = apps[(2*i)%traces]
				}
				id := fmt.Sprintf("w%d-%s-%d", w, app, i)
				if err := s.PutNode(mkReq(id, app, id)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers: fingerprint every trace, asserting base records are always
	// visible whichever tier answers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				app := apps[i%traces]
				if s.TraceVersion(app) < 4 {
					t.Errorf("trace %s version regressed below its seed", app)
					return
				}
				if s.Node(fmt.Sprintf("r-%s-0", app)) == nil {
					t.Errorf("trace %s lost its seed node", app)
					return
				}
				if len(s.RowsForApp(app)) < 4 {
					t.Errorf("trace %s lost rows", app)
					return
				}
			}
		}()
	}
	wg.Wait()

	ti := s.Tiering()
	if ti.SegmentProbes != ti.ColdHits+ti.FalseProbes {
		t.Fatalf("probes %d != hits %d + false %d", ti.SegmentProbes, ti.ColdHits, ti.FalseProbes)
	}
}

// TestBlockCacheHoldsOnlyBlocks reads distinct sealed traces, several to
// a block, through a cache big enough to keep everything. The cache must
// end up holding one entry per block touched and nothing per trace: each
// block is missed once, every other read of it is a hit, and re-reading a
// trace is a block hit that adds no entry.
func TestBlockCacheHoldsOnlyBlocks(t *testing.T) {
	s := tierStore(t, t.TempDir(), func(o *Options) { o.SegmentBlockBytes = 1 << 10 })
	apps := make([]string, 24)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%02d", i)
		seedTrace(t, s, apps[i], 3)
	}
	if err := s.DemoteTraces(apps...); err != nil {
		t.Fatal(err)
	}
	seg := s.tier.snapshotSegs()[0]
	blocks := map[int]bool{}
	read := apps[:18]
	for _, app := range read {
		tr, ok := seg.findTrace(app)
		if !ok {
			t.Fatalf("trace %s not sealed", app)
		}
		blocks[tr.Blk] = true
	}
	if len(blocks) < 2 || len(blocks) == len(read) {
		t.Fatalf("%d traces in %d blocks: want several blocks of several traces", len(read), len(blocks))
	}
	view := func(app string) {
		t.Helper()
		if err := s.ViewTrace(app, func(g *provenance.Graph, ver uint64) error {
			if ver != 5 || len(g.Nodes(provenance.NodeFilter{AppID: app})) != 4 {
				return fmt.Errorf("trace %s read at version %d", app, ver)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Tiering().Cache
	for _, app := range read {
		view(app)
	}
	c := s.Tiering().Cache
	if c.Entries > len(blocks) || c.Misses-before.Misses != uint64(len(blocks)) || c.Hits-before.Hits != uint64(len(read)-len(blocks)) {
		t.Fatalf("after %d reads of traces in %d blocks: cache %+v (was %+v)", len(read), len(blocks), c, before)
	}
	view(read[0])
	again := s.Tiering().Cache
	if again.Entries != c.Entries || again.Hits != c.Hits+1 || again.Misses != c.Misses {
		t.Fatalf("re-reading %s: cache %+v, want one more hit than %+v", read[0], again, c)
	}
}

// coldMaterializeStore is BenchmarkColdMaterialize's store: 64 sealed
// traces of 11 requisitions in ID order behind a block cache that keeps
// one block at a time.
func coldMaterializeStore(tb testing.TB) (*Store, []string) {
	s := tierStore(tb, tb.TempDir(), func(o *Options) { o.SegmentCacheBytes = 1 })
	apps := make([]string, 64)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%03d", i)
		seedTrace(tb, s, apps[i], 11)
	}
	if err := s.DemoteTraces(apps...); err != nil {
		tb.Fatal(err)
	}
	return s, apps
}

// coldView reads one sealed trace of a coldMaterializeStore.
func coldView(s *Store, app string) error {
	return s.ViewTrace(app, func(g *provenance.Graph, ver uint64) error {
		if ver != 13 {
			return fmt.Errorf("sealed trace read at version %d", ver)
		}
		return nil
	})
}

// BenchmarkColdMaterialize times one cold read inside the store. The block
// cache keeps one block at a time (every insert evicts the last) and the
// reads walk the traces in ID order, so a block is read once per block of
// about twenty traces, and every ViewTrace pays the scan for the trace's
// records, their decode and the graph build — for one 13-record trace
// (the hiring simulator's size).
func BenchmarkColdMaterialize(b *testing.B) {
	s, apps := coldMaterializeStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coldView(s, apps[i%len(apps)]); err != nil {
			b.Fatal(err)
		}
	}
}

// maxColdMaterializeAllocs is what BenchmarkColdMaterialize's read
// allocates, block reads amortized: one per record ID (13), the run's copy,
// one array each of nodes, edges and attributes and one pointer slice each
// of nodes and edges (6), and the trace's graph (7). Names, the trace ID
// and the edge's endpoints cost nothing.
const maxColdMaterializeAllocs = 26

func TestColdMaterializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	s, apps := coldMaterializeStore(t)
	i := 0
	allocs := testing.AllocsPerRun(len(apps)*4, func() {
		if err := coldView(s, apps[i%len(apps)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > maxColdMaterializeAllocs {
		t.Fatalf("a cold read allocates %.0f objects, budget %d", allocs, maxColdMaterializeAllocs)
	}
}
