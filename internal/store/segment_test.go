package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/provenance"
)

// sealRecs builds one trace's sealed copy from synthetic records: nNodes
// requisitions and, past the first, an edge from each to the first.
func sealRecs(app string, ver, last uint64, nNodes int) sealedTrace {
	tr := sealedTrace{app: app, ver: ver, last: last}
	for i := 0; i < nNodes; i++ {
		tr.nodes = append(tr.nodes, &provenance.Node{
			ID: fmt.Sprintf("%s-r%03d", app, i), Class: provenance.ClassData, Type: "jobRequisition", AppID: app,
			Attrs: map[string]provenance.Value{"v": provenance.String(strings.Repeat("x", 50))},
		})
		if i > 0 {
			tr.edges = append(tr.edges, &provenance.Edge{
				ID: fmt.Sprintf("%s-e%03d", app, i), Type: "follows", AppID: app,
				Source: tr.nodes[i].ID, Target: tr.nodes[0].ID,
			})
		}
	}
	return tr
}

// copyDir copies the closed store directory src into a fresh one.
func copyDir(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		rel, _ := filepath.Rel(src, path)
		switch {
		case err != nil:
			return err
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return dst
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.seg")
	// Small block target forces multiple blocks; traces given unsorted to
	// exercise the writer's sort.
	traces := []sealedTrace{
		sealRecs("C", 7, 31, 6),
		sealRecs("A", 3, 10, 2),
		sealRecs("B", 5, 20, 20),
	}
	want := map[string]sealedTrace{}
	for _, tr := range traces {
		want[tr.app] = tr
	}
	ft, err := writeSegment(OSFS{}, path, 31, traces, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Blocks) < 2 || ft.Format != 2 {
		t.Fatalf("format %d, %d blocks; want format 2 and several blocks", ft.Format, len(ft.Blocks))
	}
	if ft.MinApp != "A" || ft.MaxApp != "C" || ft.MinSeq != 10 || ft.MaxSeq != 31 {
		t.Fatalf("zone map = %s..%s / %d..%d", ft.MinApp, ft.MaxApp, ft.MinSeq, ft.MaxSeq)
	}

	seg, err := openSegment(OSFS{}, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.traces) != 3 || seg.nRows != 3+11+39 || seg.sealSeq != 31 || len(seg.blocks) != len(ft.Blocks) {
		t.Fatalf("segment = %+v", seg)
	}
	if want := int64(len(ft.Blocks)*16 + 3*(56+1)); seg.indexBytes != want {
		t.Fatalf("indexBytes = %d, want %d", seg.indexBytes, want)
	}
	for _, app := range []string{"A", "B", "C"} {
		tr, ok := seg.findTrace(app)
		if !ok || tr.Ver != want[app].ver || tr.Rows != want[app].records() {
			t.Fatalf("findTrace(%s) = %+v %v", app, tr, ok)
		}
		if !seg.bloomTrace.mightContain(app) {
			t.Fatalf("trace bloom misses %s", app)
		}
		p, err := seg.readBlock(tr.Blk)
		if err != nil {
			t.Fatal(err)
		}
		// The run at the index's offset is the trace's commit payload, and
		// it decodes to the records sealed.
		run, err := lenPrefixed(p, tr.Off)
		if err != nil || run[0] != byte(opCommit) {
			t.Fatalf("run of %s at %d: %v", app, tr.Off, err)
		}
		got, err := seg.records(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		w := want[app]
		if !reflect.DeepEqual(renderTrace(got.nodes, got.edges), renderTrace(w.nodes, w.edges)) || got.ver != w.ver || got.last != w.last {
			t.Fatalf("trace %s read back differently", app)
		}
	}
	if !seg.bloomClass.mightContain("data") || !seg.bloomClass.mightContain("relation") ||
		!seg.bloomType.mightContain("jobRequisition") || !seg.bloomType.mightContain("follows") {
		t.Fatal("class/type blooms miss their keys")
	}
	// The row-ID bloom covers every sealed record ID — it is the routing
	// path for raw-ID cold reads once the router entries are evicted.
	for _, tr := range traces {
		for _, r := range renderTrace(tr.nodes, tr.edges) {
			if !seg.bloomID.mightContain(r.ID) {
				t.Fatalf("row-ID bloom misses %s", r.ID)
			}
		}
	}
	if _, ok := seg.findTrace("nope"); ok {
		t.Fatal("findTrace invented a trace")
	}
}

func TestSegmentRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.seg")
	if _, err := writeSegment(OSFS{}, path, 9, []sealedTrace{sealRecs("A", 2, 9, 8)}, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := func(name string, mutate func([]byte) []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSegment(OSFS{}, p, 2); err == nil {
			t.Fatalf("%s: damaged segment validated", name)
		}
	}
	damage("truncated.seg", func(b []byte) []byte { return b[:len(b)/2] })
	damage("no-trailer.seg", func(b []byte) []byte { return b[:len(b)-3] })
	damage("bad-magic.seg", func(b []byte) []byte { b[0] ^= 0xff; return b })
	damage("bad-footer.seg", func(b []byte) []byte { b[len(b)-40] ^= 0xff; return b })
	// A footer whose run offset lies outside its block, re-CRCed so only
	// the offset check can catch it.
	for _, off := range []int{-1, 1 << 20} {
		damage(fmt.Sprintf("off%d.seg", off), func(b []byte) []byte {
			footerOff := int(binary.LittleEndian.Uint64(b[len(b)-16:]))
			var ft segFooter
			if err := json.Unmarshal(b[footerOff+8:len(b)-16], &ft); err != nil {
				t.Fatal(err)
			}
			ft.Traces[0].Off = off
			js, _ := json.Marshal(ft)
			b = appendFrame(b[:footerOff], func(d []byte) []byte { return append(d, js...) })
			return append(binary.LittleEndian.AppendUint64(b, uint64(footerOff)), segEndMagic...)
		})
	}

	// A flipped byte inside a data block passes open (only the footer is
	// validated there) but fails the block read's CRC.
	p := filepath.Join(dir, "bad-block.seg")
	mut := append([]byte(nil), raw...)
	mut[len(segMagic)+12] ^= 0xff
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(OSFS{}, p, 3)
	if err != nil {
		t.Fatalf("block damage rejected at open: %v", err)
	}
	if _, err := seg.readBlock(0); err == nil {
		t.Fatal("corrupt block read succeeded")
	}
}

// TestBlockReadChecksTheTableLength reads a block whose block-table length
// disagrees with its frame header — one byte short, one byte long, shorter
// than a header — and expects each read refused for the disagreement,
// even where the frame the header describes would pass its CRC.
func TestBlockReadChecksTheTableLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-00000001.seg")
	if _, err := writeSegment(OSFS{}, path, 9, []sealedTrace{sealRecs("A", 2, 9, 8), sealRecs("B", 2, 9, 8)}, 1); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(OSFS{}, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.blocks) != 2 {
		t.Fatalf("sealed %d blocks, want 2", len(seg.blocks))
	}
	if _, err := seg.readBlock(0); err != nil {
		t.Fatal(err)
	}
	frameLen := seg.blocks[0].Len
	for _, n := range []int64{frameLen - 1, frameLen + 1, 5} {
		seg.blocks[0].Len = n
		if _, err := seg.readBlock(0); err == nil || !strings.Contains(err.Error(), "index says") {
			t.Errorf("block table length %d for a %d-byte frame: err %v", n, frameLen, err)
		}
	}
}

// TestScanPathAgainstDecode reads every trace of a multi-block segment
// through the tier and compares it with the records sealed, then checks ID
// routing and what damage inside a CRC-valid payload does.
func TestScanPathAgainstDecode(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(segmentsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	const blockTarget = 512
	// "A" is a prefix of "AB" is a prefix of "ABC"; "B" alone is several
	// block targets long.
	traces := []sealedTrace{
		sealRecs("A", 1, 1, 2), sealRecs("AB", 2, 2, 1), sealRecs("ABC", 3, 3, 3),
		sealRecs("B", 4, 4, 30),
		sealRecs("C", 5, 5, 1), sealRecs("D", 6, 6, 2), sealRecs("E", 7, 7, 2),
		sealRecs("F", 8, 8, 1),
	}
	path := segmentPath(dir, 1)
	if _, err := writeSegment(OSFS{}, path, 9, traces, blockTarget); err != nil {
		t.Fatal(err)
	}
	tier, err := newTierManager(OSFS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := tier.snapshotSegs()[0]

	// The layout must offer the cases the table is about.
	perBlock := map[int][]string{}
	for _, tr := range seg.traces {
		perBlock[tr.Blk] = append(perBlock[tr.Blk], tr.App)
	}
	if got := perBlock[0]; !reflect.DeepEqual(got, []string{"A", "AB", "ABC"}) {
		t.Fatalf("block 0 holds %v", got)
	}
	if got := perBlock[1]; !reflect.DeepEqual(got, []string{"B"}) || seg.blocks[1].Len < 4*blockTarget {
		t.Fatalf("block 1 holds %v in %d bytes, want the oversize trace alone", got, seg.blocks[1].Len)
	}
	last := len(seg.blocks) - 1
	if last < 2 || seg.traces[len(seg.traces)-1].Blk != last {
		t.Fatalf("%d blocks, last trace in block %d", last+1, seg.traces[len(seg.traces)-1].Blk)
	}

	for _, want := range traces { // first, middle and last of a block, only trace of a block
		_, tr, ok := tier.lookupTrace(want.app, 0)
		if !ok {
			t.Fatalf("lookupTrace(%s) missed", want.app)
		}
		st, err := tier.sealed(seg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderTrace(st.nodes, st.edges); !reflect.DeepEqual(got, renderTrace(want.nodes, want.edges)) {
			t.Fatalf("trace %s: read %d rows, sealed %d", want.app, len(got), want.records())
		}
	}

	// ID routing: a record of the last block, and a row-ID bloom false
	// positive, which scans every block and finds nothing.
	if app, ok := tier.ownerOf("F-r000"); !ok || app != "F" {
		t.Fatalf("ownerOf(F-r000) = %q %v", app, ok)
	}
	ghost := ""
	for i := 0; ghost == ""; i++ {
		if id := fmt.Sprintf("ghost-%d", i); seg.bloomID.mightContain(id) {
			ghost = id
		}
	}
	before := tier.stats(0)
	if app, ok := tier.ownerOf(ghost); ok {
		t.Fatalf("ownerOf(%s) = %q, the ID was never sealed", ghost, app)
	}
	st := tier.stats(0)
	if st.FalseProbes != before.FalseProbes+1 || st.SegmentProbes != st.ColdHits+st.FalseProbes || st.ReadErrors != 0 {
		t.Fatalf("after a bloom false positive: %+v", st)
	}

	// Damage inside a payload that passes its CRC. "ABC" ends block 0; cut
	// the payload inside its run and inside the run's length prefix: an
	// error, not a panic and not a short read — unless the wanted run ends
	// before the damage, which the read then never meets.
	p, err := seg.readBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	_, abc, _ := tier.lookupTrace("ABC", 0)
	_, ab, _ := tier.lookupTrace("AB", 0)
	for _, cut := range []int{len(p) - 2, abc.Off + 2} {
		if got, err := seg.records(p[:cut], abc); err == nil {
			t.Fatalf("payload cut at %d of %d: read %d records of ABC", cut, len(p), got.records())
		}
		if _, _, err := seg.owner(p[:cut], 0, ghost); err == nil {
			t.Fatalf("payload cut at %d: ID scan reached the end", cut)
		}
		if got, err := seg.records(p[:cut], ab); err != nil || got.records() != traces[1].records() {
			t.Fatalf("payload cut at %d: AB read %d records, %v", cut, got.records(), err)
		}
	}

	// The same through the tier: stretch ABC's length prefix on disk and
	// re-CRC the frame. The read fails naming segment and block.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := raw[seg.blocks[0].Off : seg.blocks[0].Off+seg.blocks[0].Len]
	frame[8+abc.Off] += 7
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tier.cache.dropSegment(seg.id)
	got, err := tier.sealed(seg, abc)
	if err == nil || got.records() != 0 || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("damaged block read %d records, err %v", got.records(), err)
	}
	if _, ok := tier.ownerOf(ghost); ok || tier.stats(0).ReadErrors != 2 {
		t.Fatalf("read errors = %d, want 2 (the trace read and the ID scan)", tier.stats(0).ReadErrors)
	}
}

// TestFormat2OwnerScan routes record IDs through a multi-block format-2
// segment: IDs that share all, part or none of their trace's ID, a
// relation, and a bloom false positive.
func TestFormat2OwnerScan(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(segmentsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	traces := []sealedTrace{sealRecs("A", 1, 1, 3), sealRecs("B", 2, 2, 30), sealRecs("C", 3, 3, 2)}
	traces[2].nodes = append(traces[2].nodes, &provenance.Node{ID: "C", Class: provenance.ClassData, Type: "t", AppID: "C"},
		&provenance.Node{ID: "zz", Class: provenance.ClassData, Type: "t", AppID: "C"})
	if _, err := writeSegment(OSFS{}, segmentPath(dir, 1), 9, traces, 1024); err != nil {
		t.Fatal(err)
	}
	tier, err := newTierManager(OSFS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := tier.snapshotSegs()[0]
	if len(seg.blocks) < 2 {
		t.Fatalf("%d blocks, want several", len(seg.blocks))
	}
	for id, want := range map[string]string{"A-r002": "A", "B-e029": "B", "C-r001": "C", "C": "C", "zz": "C"} {
		if app, ok := tier.ownerOf(id); !ok || app != want {
			t.Fatalf("ownerOf(%s) = %q %v, want %s", id, app, ok, want)
		}
	}
	ghost := ""
	for i := 0; ghost == ""; i++ {
		if id := fmt.Sprintf("B-ghost-%d", i); seg.bloomID.mightContain(id) {
			ghost = id
		}
	}
	if app, ok := tier.ownerOf(ghost); ok {
		t.Fatalf("ownerOf(%s) = %q, the ID was never sealed", ghost, app)
	}
	if st := tier.stats(0); st.SegmentProbes != st.ColdHits+st.FalseProbes || st.ReadErrors != 0 {
		t.Fatalf("tier stats after ID routing: %+v", st)
	}
}

// FuzzSegmentBlock: a CRC-valid block payload, with the footer's run
// offset and record count for a trace "A", never panics a read, and a read
// that succeeds materializes exactly the records the index counts, all of
// trace A. Anything else is an error the tier counts.
func FuzzSegmentBlock(f *testing.F) {
	seed := func(traces []sealedTrace, app string) {
		dir := f.TempDir()
		if _, err := writeSegment(OSFS{}, filepath.Join(dir, "s.seg"), 1, traces, 0); err != nil {
			f.Fatal(err)
		}
		seg, err := openSegment(OSFS{}, filepath.Join(dir, "s.seg"), 1)
		if err != nil {
			f.Fatal(err)
		}
		tr, _ := seg.findTrace(app)
		p, err := seg.readBlock(tr.Blk)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p, tr.Off, tr.Rows)
		f.Add(p, tr.Off, tr.Rows+1)
		f.Add(p, tr.Off+1, tr.Rows)
		f.Add(p[:len(p)-1], tr.Off, tr.Rows)
		flipped := bytes.Clone(p)
		flipped[tr.Off+len(flipped[tr.Off:])/2] ^= 0x20
		f.Add(flipped, tr.Off, tr.Rows)
	}
	seed([]sealedTrace{sealRecs("A", 4, 4, 3)}, "A")
	seed([]sealedTrace{sealRecs("0", 1, 1, 1), sealRecs("A", 4, 4, 2), sealRecs("AA", 2, 2, 2)}, "A")
	seed([]sealedTrace{sealRecs("B", 4, 4, 2)}, "B") // a foreign trace at A's offset
	f.Add([]byte{}, 0, 0)
	f.Fuzz(func(t *testing.T, payload []byte, off, rows int) {
		if len(payload) == 0 || len(payload) > 1<<16 {
			t.Skip()
		}
		dir := t.TempDir()
		if err := os.MkdirAll(segmentsDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		bt, bc := newBloom(1), newBloom(1)
		bt.add("A")
		ft := segFooter{
			Format: segFormat, SealSeq: 1, MinApp: "A", MaxApp: "A",
			Blocks:     []segBlock{{Off: int64(len(segMagic)), Len: int64(8 + len(payload))}},
			Traces:     []segTrace{{App: "A", Off: off, Rows: rows, Ver: 1}},
			BloomTrace: bt.marshal(), BloomClass: bc.marshal(), BloomType: bc.marshal(), BloomID: bc.marshal(),
		}
		js, _ := json.Marshal(ft)
		out := appendFrame([]byte(segMagic), func(b []byte) []byte { return append(b, payload...) })
		footerOff := len(out)
		out = appendFrame(out, func(b []byte) []byte { return append(b, js...) })
		out = append(binary.LittleEndian.AppendUint64(out, uint64(footerOff)), segEndMagic...)
		if err := os.WriteFile(segmentPath(dir, 1), out, 0o644); err != nil {
			t.Fatal(err)
		}
		tier, err := newTierManager(OSFS{}, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		segs := tier.snapshotSegs()
		if len(segs) == 0 {
			return // the footer check refused the offset or count
		}
		seg, tr, ok := tier.lookupTrace("A", 0)
		if !ok {
			t.Fatal("trace A indexed but not found")
		}
		g, err := tier.materialize(seg, tr)
		if err != nil {
			if tier.stats(0).ReadErrors != 1 {
				t.Fatalf("failed read not counted: %v", err)
			}
			return
		}
		nodes, edges := traceRecords(g, "A")
		if len(nodes)+len(edges) > rows || g.TraceVersion("A") != 1 {
			t.Fatalf("materialized %d records at version %d, the index says %d", len(nodes)+len(edges), g.TraceVersion("A"), rows)
		}
		if rows == 0 {
			return
		}
		run, _ := lenPrefixed(payload, off)
		es, err := decodeCommit(run[1:])
		if err != nil || len(es) != rows {
			t.Fatalf("materialized a run that decodes to %d records (%v), the index says %d", len(es), err, rows)
		}
		for _, e := range es {
			if e.app != "A" {
				t.Fatalf("materialized a record of trace %q as A's", e.app)
			}
		}
	})
}
