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
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/provenance"
)

// sealRecs builds one trace's sealed copy from synthetic records: nNodes
// requisitions and, past the first, an edge from each to the first.
func sealRecs(app string, ver, last uint64, nNodes int) sealedTrace {
	tr := sealedTrace{app: app, ver: ver, last: last}
	for i := 0; i < nNodes; i++ {
		tr.nodes = append(tr.nodes, &provenance.Node{
			ID: fmt.Sprintf("%s-r%03d", app, i), Class: provenance.ClassData, Type: "jobRequisition", AppID: app,
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"v": provenance.String(strings.Repeat("x", 50))}),
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
	if len(ft.Blocks) < 2 || ft.Format != 3 {
		t.Fatalf("format %d, %d blocks; want format 3 and several blocks", ft.Format, len(ft.Blocks))
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
		got, err := seg.records(p, tr, nil)
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
	// the offset check can catch it: in binary, and as a format-2 JSON
	// footer, which this build still reads. A binary footer cannot carry a
	// negative offset; its uvarint past the int range stands for one.
	for _, off := range []int{-1, 1 << 20} {
		for _, asJSON := range []bool{false, true} {
			damage(fmt.Sprintf("off%d-json%v.seg", off, asJSON), func(b []byte) []byte {
				return rewriteFooter(t, b, asJSON, func(ft *segFooter) { ft.Traces[0].Off = off })
			})
		}
	}
	// A binary footer cut short or with a byte to spare, re-CRCed.
	damage("short-footer.seg", func(b []byte) []byte {
		return rewriteFooterBytes(t, b, func(p []byte) []byte { return p[:len(p)-1] })
	})
	damage("long-footer.seg", func(b []byte) []byte {
		return rewriteFooterBytes(t, b, func(p []byte) []byte { return append(p, 0) })
	})

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

// footerPayload returns the footer frame's payload of the segment file b.
func footerPayload(b []byte) []byte {
	off := binary.LittleEndian.Uint64(b[len(b)-16:])
	n := binary.LittleEndian.Uint32(b[off:])
	return b[off+8 : off+8+uint64(n)]
}

// rewriteFooterBytes returns the segment file b with its footer payload
// replaced by edit's result, framed with a valid CRC and trailer.
func rewriteFooterBytes(t testing.TB, b []byte, edit func([]byte) []byte) []byte {
	t.Helper()
	off := binary.LittleEndian.Uint64(b[len(b)-16:])
	payload := edit(bytes.Clone(footerPayload(b)))
	out := appendFrame(bytes.Clone(b[:off]), func(d []byte) []byte { return append(d, payload...) })
	return append(binary.LittleEndian.AppendUint64(out, off), segEndMagic...)
}

// rewriteFooter returns the segment file b with its footer decoded, passed
// through edit and encoded again: as JSON, format 2's encoding, when asJSON
// is set, else in binary with ft.Format as the leading format number.
func rewriteFooter(t testing.TB, b []byte, asJSON bool, edit func(*segFooter)) []byte {
	t.Helper()
	ft, err := decodeSegFooter(footerPayload(b))
	if err != nil {
		t.Fatal(err)
	}
	if asJSON {
		ft.Format = segFormatJSON
	}
	edit(ft)
	return rewriteFooterBytes(t, b, func([]byte) []byte {
		if asJSON {
			js, err := json.Marshal(ft)
			if err != nil {
				t.Fatal(err)
			}
			return js
		}
		p := appendFooter(nil, ft)
		_, n := binary.Uvarint(p)
		return append(binary.AppendUvarint(nil, uint64(ft.Format)), p[n:]...)
	})
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
	tier, err := newTierManager(OSFS{}, dir, 0, nil)
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
		if got, err := seg.records(p[:cut], abc, nil); err == nil {
			t.Fatalf("payload cut at %d of %d: read %d records of ABC", cut, len(p), got.records())
		}
		if _, _, err := seg.owner(p[:cut], 0, ghost, nil); err == nil {
			t.Fatalf("payload cut at %d: ID scan reached the end", cut)
		}
		if got, err := seg.records(p[:cut], ab, nil); err != nil || got.records() != traces[1].records() {
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
	tier, err := newTierManager(OSFS{}, dir, 0, nil)
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
//
// The run at that offset also goes through both record decoders. A run
// the sealed-run decoder accepts decodes through the log-frame decoder to
// the same records, rendering byte-identical rows; a run the log-frame
// decoder refuses the sealed-run decoder refuses too; and the sealed-run
// decoder refuses more only by its one-trace rule: a run of exactly the
// indexed count of node and edge puts of trace A.
func FuzzSegmentBlock(f *testing.F) {
	for _, s := range segmentBlockSeeds(f) {
		f.Add(s.payload, s.off, s.rows)
	}
	f.Add([]byte{}, 0, 0)
	names := newNameTable(testModel(f))
	f.Fuzz(func(t *testing.T, payload []byte, off, rows int) {
		if len(payload) == 0 || len(payload) > 1<<16 {
			t.Skip()
		}
		if run, err := lenPrefixed(payload, off); err == nil {
			decodersAgree(t, names, run[1:], segTrace{App: "A", Rows: rows})
		}
		dir := t.TempDir()
		if err := os.MkdirAll(segmentsDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		bt, bc := newBloom(1), newBloom(1)
		bt.add("A")
		ft := &segFooter{
			Format: segFormat, SealSeq: 1, MinApp: "A", MaxApp: "A",
			Blocks:     []segBlock{{Off: int64(len(segMagic)), Len: int64(8 + len(payload))}},
			Traces:     []segTrace{{App: "A", Off: off, Rows: rows, Ver: 1}},
			BloomTrace: bt.marshal(), BloomClass: bc.marshal(), BloomType: bc.marshal(), BloomID: bc.marshal(),
		}
		out := appendFrame([]byte(segMagic), func(b []byte) []byte { return append(b, payload...) })
		footerOff := len(out)
		out = appendFrame(out, func(b []byte) []byte { return appendFooter(b, ft) })
		out = append(binary.LittleEndian.AppendUint64(out, uint64(footerOff)), segEndMagic...)
		if err := os.WriteFile(segmentPath(dir, 1), out, 0o644); err != nil {
			t.Fatal(err)
		}
		tier, err := newTierManager(OSFS{}, dir, 0, nil)
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
		es, err := decodeCommit(run[1:], nil)
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

// blockSeed is one FuzzSegmentBlock input: a data block's payload, and
// the footer's run offset and record count for trace "A". footer is the
// footer payload of the segment the block came from.
type blockSeed struct {
	payload   []byte
	off, rows int
	footer    []byte
}

// segmentBlockSeeds seals three segments and returns, for each, the block
// holding the trace the footer names, intact, with the count one too
// many, the offset one off, cut by a byte, and with a bit flipped in the
// run; the third seals a foreign trace at A's offset.
func segmentBlockSeeds(tb testing.TB) []blockSeed {
	var seeds []blockSeed
	seed := func(traces []sealedTrace, app string) {
		dir := tb.TempDir()
		if _, err := writeSegment(OSFS{}, filepath.Join(dir, "s.seg"), 1, traces, 0); err != nil {
			tb.Fatal(err)
		}
		seg, err := openSegment(OSFS{}, filepath.Join(dir, "s.seg"), 1)
		if err != nil {
			tb.Fatal(err)
		}
		tr, _ := seg.findTrace(app)
		p, err := seg.readBlock(tr.Blk)
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "s.seg"))
		if err != nil {
			tb.Fatal(err)
		}
		ft := footerPayload(raw)
		flipped := bytes.Clone(p)
		flipped[tr.Off+len(flipped[tr.Off:])/2] ^= 0x20
		seeds = append(seeds,
			blockSeed{p, tr.Off, tr.Rows, ft},
			blockSeed{p, tr.Off, tr.Rows + 1, ft},
			blockSeed{p, tr.Off + 1, tr.Rows, ft},
			blockSeed{p[:len(p)-1], tr.Off, tr.Rows, ft},
			blockSeed{flipped, tr.Off, tr.Rows, ft})
	}
	seed([]sealedTrace{sealRecs("A", 4, 4, 3)}, "A")
	seed([]sealedTrace{sealRecs("0", 1, 1, 1), sealRecs("A", 4, 4, 2), sealRecs("AA", 2, 2, 2)}, "A")
	seed([]sealedTrace{sealRecs("B", 4, 4, 2)}, "B") // a foreign trace at A's offset
	return seeds
}

// decodersAgree holds decodeRun, decodeTraces and decodeCommit to one
// reading of the payload p (a run after its opcode): see FuzzSegmentBlock
// and runsAgree.
func decodersAgree(t *testing.T, names nameTable, p []byte, tr segTrace) {
	t.Helper()
	nodes, edges, rerr := decodeRun(bytes.Clone(p), tr, names)
	es, lerr := decodeCommit(p, names)
	runsAgree(t, names, p, es, lerr)
	if lerr != nil {
		if rerr == nil {
			t.Fatalf("the log-frame decoder refuses a run the sealed-run decoder reads: %v", lerr)
		}
		return
	}
	oneTrace := len(es) == tr.Rows
	var nodeRows, edgeRows []Row // renderTrace's order: nodes, then edges
	for _, e := range es {
		switch {
		case e.app != tr.App:
			oneTrace = false
		case e.op == opPutNode:
			nodeRows = append(nodeRows, nodeRow(e.node))
		case e.op == opPutEdge:
			edgeRows = append(edgeRows, edgeRow(e.edge))
		default:
			oneTrace = false
		}
	}
	if rerr != nil {
		if oneTrace {
			t.Fatalf("the sealed-run decoder refuses a one-trace run the log-frame decoder reads: %v", rerr)
		}
		return
	}
	if !oneTrace {
		t.Fatalf("the sealed-run decoder read %d records the index does not count as trace %s's %d", len(es), tr.App, tr.Rows)
	}
	got, want := renderTrace(nodes, edges), append(nodeRows, edgeRows...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the decoders disagree:\nsealed run %v\nlog frame  %v", got, want)
	}
}

// runsAgree holds decodeTraces, replay's reading of a commit payload p, to
// decodeCommit's, which gave es or lerr. It refuses what decodeCommit
// refuses. Told no trace is resident, it reads a payload of node and edge
// puts to decodeCommit's records in decodeCommit's order, each run one
// trace's nodes, then its edges; told every trace is resident, or given an
// update, it reads the payload as decodeCommit does.
func runsAgree(t *testing.T, names nameTable, p []byte, es []entry, lerr error) {
	t.Helper()
	render := func(op opcode, app string, n *provenance.Node, e *provenance.Edge) string {
		if n != nil {
			return fmt.Sprint(op, app, nodeRow(n))
		}
		return fmt.Sprint(op, app, edgeRow(e))
	}
	var want []string
	for _, e := range es {
		want = append(want, render(e.op, e.app, e.node, e.edge))
	}
	update := slices.ContainsFunc(es, func(e entry) bool { return e.op == opUpdateNode })
	for _, resident := range []bool{false, true} {
		runs, res, err := decodeTraces(bytes.Clone(p), names, func(string) bool { return resident })
		if lerr != nil {
			if err == nil {
				t.Fatalf("decodeTraces reads a payload decodeCommit refuses: %v", lerr)
			}
			continue
		}
		if err != nil || (runs != nil) != (!resident && !update) || (runs != nil) == (res != nil) {
			t.Fatalf("decodeTraces = %d runs, %d records, %v for a payload decodeCommit reads (resident %v, update %v)", len(runs), len(res), err, resident, update)
		}
		var got []string
		for _, r := range runs {
			for _, n := range r.nodes {
				got = append(got, render(opPutNode, r.app, n, nil))
			}
			for _, e := range r.edges {
				got = append(got, render(opPutEdge, r.app, nil, e))
			}
		}
		for _, e := range res {
			got = append(got, render(e.op, e.app, e.node, e.edge))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("decodeTraces and decodeCommit disagree (resident %v):\ndecodeTraces %v\ndecodeCommit %v", resident, got, want)
		}
	}
}

// FuzzSegmentFooter feeds bytes straight into the binary footer decoder,
// with no file, frame or tier in between. It must never panic, and never
// allocate more than a small multiple of its input: a count the footer
// claims sizes nothing its bytes do not hold. A footer it reads encodes
// back to a footer that reads the same.
func FuzzSegmentFooter(f *testing.F) {
	for _, p := range segmentFooterSeeds(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > 1<<16 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ft, err := decodeFooter(p)
		runtime.ReadMemStats(&after)
		// A small object is counted when its span is cached, so the slack
		// covers a span per size class the decode touches.
		if n := after.TotalAlloc - before.TotalAlloc; n > 12*uint64(len(p))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(p), n)
		}
		if err != nil {
			return
		}
		again, err := decodeFooter(appendFooter(nil, ft))
		if err != nil || !reflect.DeepEqual(again, ft) {
			t.Fatalf("footer re-encodes to %+v, %v; read %+v", again, err, ft)
		}
	})
}

// segmentFooterSeeds are FuzzSegmentFooter's seeds: the golden fixtures'
// footers in binary — the format-2 one decoded and re-encoded — and the
// footers of FuzzSegmentBlock's segments, each also cut by a byte and with
// its trace count claimed far past its bytes.
func segmentFooterSeeds(tb testing.TB) [][]byte {
	var feet [][]byte
	for _, dir := range []string{"testdata/golden", "testdata/golden-v2"} {
		raw, err := os.ReadFile(filepath.Join(dir, "segments", "seg-00000001.seg"))
		if err != nil {
			tb.Fatal(err)
		}
		ft, err := decodeSegFooter(footerPayload(raw))
		if err != nil {
			tb.Fatal(err)
		}
		feet = append(feet, appendFooter(nil, ft))
	}
	seen := map[string]bool{}
	for _, s := range segmentBlockSeeds(tb) {
		if !seen[string(s.footer)] {
			seen[string(s.footer)] = true
			feet = append(feet, s.footer)
		}
	}
	var out [][]byte
	for _, p := range feet {
		ft, err := decodeFooter(p)
		if err != nil {
			tb.Fatal(err)
		}
		huge := *ft
		huge.Traces = append([]segTrace(nil), ft.Traces...)
		huge.Traces[0].Rows = 1 << 40
		claimed := appendFooter(nil, &huge)
		out = append(out, p, p[:len(p)-1], claimed)
	}
	// Counts claimed far past the bytes: a block table, a trace index.
	big := binary.AppendUvarint(nil, segFormat)
	big = append(big, 1, 1, 1, 1, 'A', 1, 'A')
	out = append(out,
		binary.AppendUvarint(bytes.Clone(big), 1<<40),
		binary.AppendUvarint(append(bytes.Clone(big), 0), 1<<40))
	return out
}

// TestIndexBytesIsWhatTheIndexRetains opens one segment of many traces
// into many handles and holds the heap they retain, blooms aside, to
// IndexBytes: the footer's payload, which the index's entries could slice,
// must not stay behind them.
func TestIndexBytesIsWhatTheIndexRetains(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.seg")
	traces := make([]sealedTrace, 2000)
	for i := range traces {
		traces[i] = sealRecs(fmt.Sprintf("hiring-%06d", i), 1, 1, 1)
	}
	if _, err := writeSegment(OSFS{}, path, 9, traces, 0); err != nil {
		t.Fatal(err)
	}
	const handles = 20
	segs := make([]*segment, handles)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range segs {
		seg, err := openSegment(OSFS{}, path, 1)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	seg := segs[0]
	blooms := 0
	for _, b := range []*bloom{seg.bloomTrace, seg.bloomClass, seg.bloomType, seg.bloomID} {
		blooms += len(b.bits)*8 + int(unsafe.Sizeof(*b))
	}
	perHandle := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / handles
	index := perHandle - int64(blooms) - int64(unsafe.Sizeof(*seg))
	if lo, hi := seg.indexBytes*95/100, seg.indexBytes*110/100+1024; index < lo || index > hi {
		t.Fatalf("a handle retains %d bytes besides its blooms, IndexBytes says %d", index, seg.indexBytes)
	}
	runtime.KeepAlive(segs)
}
