package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sealRows builds one trace's segTraceRows from synthetic rows.
func sealRows(app string, ver, last uint64, nRows int) segTraceRows {
	tr := segTraceRows{app: app, ver: ver, last: last, classes: []string{"data"}, types: []string{"jobRequisition"}}
	for i := 0; i < nRows; i++ {
		tr.rows = append(tr.rows, Row{
			ID:    fmt.Sprintf("%s-r%03d", app, i),
			Class: "data",
			AppID: app,
			XML:   fmt.Sprintf("<ps:jobRequisition ps:id=%q>%s</ps:jobRequisition>", fmt.Sprintf("%s-r%03d", app, i), strings.Repeat("x", 50)),
		})
	}
	return tr
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.seg")
	// Small block target forces multiple blocks; traces given unsorted to
	// exercise the writer's sort.
	traces := []segTraceRows{
		sealRows("C", 7, 31, 12),
		sealRows("A", 3, 10, 4),
		sealRows("B", 5, 20, 40),
	}
	ft, err := writeSegment(OSFS{}, path, 31, traces, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(ft.Blocks))
	}
	if ft.MinApp != "A" || ft.MaxApp != "C" || ft.MinSeq != 10 || ft.MaxSeq != 31 {
		t.Fatalf("zone map = %s..%s / %d..%d", ft.MinApp, ft.MaxApp, ft.MinSeq, ft.MaxSeq)
	}

	seg, err := openSegment(OSFS{}, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.traces) != 3 || seg.nRows != 56 || seg.sealSeq != 31 || len(seg.blocks) != len(ft.Blocks) {
		t.Fatalf("segment = %+v", seg)
	}
	if want := int64(len(ft.Blocks)*16 + 3*(48+1)); seg.indexBytes != want {
		t.Fatalf("indexBytes = %d, want %d", seg.indexBytes, want)
	}
	for _, want := range []struct {
		app  string
		ver  uint64
		rows int
	}{{"A", 3, 4}, {"B", 5, 40}, {"C", 7, 12}} {
		tr, ok := seg.findTrace(want.app)
		if !ok || tr.Ver != want.ver || tr.Rows != want.rows {
			t.Fatalf("findTrace(%s) = %+v %v", want.app, tr, ok)
		}
		if !seg.bloomTrace.mightContain(want.app) {
			t.Fatalf("trace bloom misses %s", want.app)
		}
		p, err := seg.readBlock(tr.Blk)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := runRows(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, r := range rows {
			if r.AppID == want.app {
				got++
				if !strings.Contains(r.XML, r.ID) {
					t.Fatalf("row %s round-tripped wrong XML", r.ID)
				}
			}
		}
		if got != want.rows {
			t.Fatalf("block holds %d rows of %s, want %d", got, want.app, want.rows)
		}
	}
	if !seg.bloomClass.mightContain("data") || !seg.bloomType.mightContain("jobRequisition") {
		t.Fatal("class/type blooms miss their keys")
	}
	// The row-ID bloom covers every sealed record ID — it is the routing
	// path for raw-ID cold reads once the router entries are evicted.
	if seg.bloomID == nil {
		t.Fatal("segment sealed without a row-ID bloom")
	}
	for _, tr := range traces {
		for _, r := range tr.rows {
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
	if _, err := writeSegment(OSFS{}, path, 9, []segTraceRows{sealRows("A", 2, 9, 8)}, 0); err != nil {
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

// refTraceRows is how a block was read before it was scanned: decode every
// record of the payload, keep the trace's.
func refTraceRows(t *testing.T, p []byte, app string) []Row {
	t.Helper()
	var out []Row
	for len(p) > 0 {
		rec := p[4 : 4+binary.LittleEndian.Uint32(p)]
		c, err := rowCols(rec, 0, len(rec))
		if err != nil {
			t.Fatal(err)
		}
		col := func(i int) string { return string(rec[c[i][0]:c[i][1]]) }
		if r := (Row{ID: col(0), Class: col(1), AppID: col(2), XML: col(3)}); r.AppID == app {
			out = append(out, r)
		}
		p = p[len(rec)+4:]
	}
	return out
}

// TestScanPathAgainstDecode reads every trace of a multi-block segment
// through the scanner and compares with the decode-everything read it
// replaced, then checks ID routing and what damage inside a CRC-valid
// payload does.
func TestScanPathAgainstDecode(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(segmentsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	const blockTarget = 1024
	// "A" is a prefix of "AB" is a prefix of "ABC"; "B" alone is several
	// block targets long.
	traces := []segTraceRows{
		sealRows("A", 1, 1, 4), sealRows("AB", 2, 2, 3), sealRows("ABC", 3, 3, 5),
		sealRows("B", 4, 4, 60),
		sealRows("C", 5, 5, 2), sealRows("D", 6, 6, 3), sealRows("E", 7, 7, 4),
		sealRows("F", 8, 8, 1),
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
		got, err := tier.traceRows(seg, tr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := seg.readBlock(tr.Blk)
		if err != nil {
			t.Fatal(err)
		}
		if ref := refTraceRows(t, p, want.app); !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(got, want.rows) {
			t.Fatalf("trace %s: scanned %d rows, decode path %d, sealed %d", want.app, len(got), len(ref), len(want.rows))
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
	// the payload inside its last record and inside that record's length
	// prefix: an error, not a panic and not a short read — unless the
	// wanted run ends before the damage, which the scan then never meets.
	p, err := seg.readBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	lastRec := 0
	for off := 0; off < len(p); {
		r, err := recAt(p, off)
		if err != nil {
			t.Fatal(err)
		}
		lastRec, off = off, r.end
	}
	for _, cut := range []int{len(p) - 2, lastRec + 2} {
		if run, n, err := findRun(p[:cut], "ABC"); err == nil {
			t.Fatalf("payload cut at %d of %d: read %d records (%d bytes) of ABC", cut, len(p), n, len(run))
		}
		if rows, err := runRows(p[:cut], 0); err == nil {
			t.Fatalf("payload cut at %d: decoded %d rows", cut, len(rows))
		}
		if _, _, err := recordOwner(p[:cut], ghost); err == nil {
			t.Fatalf("payload cut at %d: ID scan reached the end", cut)
		}
		if _, n, err := findRun(p[:cut], "AB"); err != nil || n != 3 {
			t.Fatalf("payload cut at %d: AB read %d records, %v", cut, n, err)
		}
	}

	// The same through the tier: stretch the last record's length prefix on
	// disk and re-CRC the frame. The read fails naming segment and block.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := raw[seg.blocks[0].Off : seg.blocks[0].Off+seg.blocks[0].Len]
	frame[8+lastRec] += 7
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tier.cache.dropSegment(seg.id)
	_, tr, _ := tier.lookupTrace("ABC", 0)
	rows, err := tier.traceRows(seg, tr)
	if err == nil || rows != nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("damaged block read %d rows, err %v", len(rows), err)
	}
	if _, ok := tier.ownerOf(ghost); ok || tier.stats(0).ReadErrors != 2 {
		t.Fatalf("read errors = %d, want 2 (the trace read and the ID scan)", tier.stats(0).ReadErrors)
	}
}
